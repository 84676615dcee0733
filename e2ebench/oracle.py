"""Independent output oracle for emulated slots and traced timelines.

Slots are checked against a naive numpy convolution of the decoded input
with the dense truncated taps (top ``taps`` by power, ties to the lower
index, zero-power taps never kept) scaled by the calibrated gain (5 dB above
the strongest snapshot's coherent gain).  With noise on, the residual after
subtracting that reference is checked statistically, not sample by sample,
so any valid noise generator passes.
"""

import math

import numpy as np

import inputs

HEADROOM_DB = 5.0
F32_RTOL = 1e-6
I16_ATOL = 1.0           # LSB
NOISE_SIGMAS = 6.0       # acceptance band of the residual statistics
TAP_RTOL = 1e-6          # traced taps vs the stored reference (complex64 file)


def signal_gain(taps):
    coherent = np.abs(taps.sum(axis=1)) ** 2
    return 10.0 ** ((HEADROOM_DB - 10.0 * math.log10(coherent.max())) / 20.0)


def truncate(h, count):
    """Dense copy of ``h`` keeping its ``count`` strongest non-zero taps."""
    power = np.abs(h) ** 2
    order = np.argsort(-power, kind="stable")[:count]
    order = order[power[order] > 0.0]
    out = np.zeros_like(h)
    out[order] = h[order]
    return out


class SlotOracle:
    """Reference output of any slot of a session, from the seeded inputs."""

    def __init__(self, timeline, taps, decoded_pool, seq, noise_db):
        self.timeline = timeline
        self.taps = taps
        self.pool = decoded_pool
        self.seq = seq
        self.gain = signal_gain(timeline.taps)
        self.slots_per_snapshot = round(timeline.t_int / inputs.SLOT_S)
        self.noise_power = None if noise_db is None else 10.0 ** (noise_db / 10.0)
        self._dense = {}

    def snapshot(self, slot):
        return slot // self.slots_per_snapshot

    def dense(self, snap):
        if snap not in self._dense:
            self._dense[snap] = self.gain * truncate(self.timeline.taps[snap], self.taps)
        return self._dense[snap]

    def reference(self, slot, count):
        """First ``count`` output samples of ``slot`` (history carried)."""
        h = self.dense(self.snapshot(slot))
        hist = len(h) - 1
        prev = (self.pool[self.seq[slot - 1]][-hist:] if slot
                else np.zeros(hist, dtype=complex))
        ext = np.concatenate([prev, self.pool[self.seq[slot]][:count]])
        return np.convolve(ext, h)[hist:hist + count]

    def check(self, slot, raw, fmt):
        """None if the reply bytes ``raw`` (a prefix of the frame) are right,
        else the reason."""
        count = (len(raw) - inputs.OWIQ.size) // (8 if fmt == "f32" else 4)
        padded = raw + bytes(inputs.frame_bytes(fmt) - len(raw))
        try:
            index, y = inputs.decode_frame(padded, fmt)
        except ValueError as exc:
            return str(exc)
        if index != slot:
            return f"reply carries slot {index}"
        y = y[:count]
        ref = self.reference(slot, count)
        if fmt == "f32":
            err = np.linalg.norm(y - ref) / max(np.linalg.norm(ref), 1e-300)
            return None if err <= F32_RTOL else f"f32 relative error {err:.3g}"
        expected = (np.clip(ref.real, -32767, 32767)
                    + 1j * np.clip(ref.imag, -32767, 32767))
        if self.noise_power is None:
            worst = max(np.abs(y.real - expected.real).max(),
                        np.abs(y.imag - expected.imag).max())
            return None if worst <= I16_ATOL else f"int16 error {worst:.3g} LSB"
        return self._noise_check(y - expected)

    def _noise_check(self, resid):
        # complex Gaussian residual: |r|^2 has relative spread 1/sqrt(n), the
        # mean has spread sqrt(power/n); int16 rounding adds 1/6 LSB^2
        n = len(resid)
        power = float(np.mean(np.abs(resid) ** 2)) - 1.0 / 6.0
        rel = power / self.noise_power - 1.0
        mean = abs(complex(resid.mean()))
        if abs(rel) > NOISE_SIGMAS / math.sqrt(n):
            return f"residual power off by {rel:+.3%}"
        if mean > NOISE_SIGMAS * math.sqrt(self.noise_power / n) + 0.5:
            return f"residual mean {mean:.3g} LSB"
        return None


def check_timeline(timeline, count, interval):
    """Structural checks on a traced .cirt: None or the reason."""
    snaps, taps = timeline.taps.shape
    if snaps != count or taps != inputs.L_MAX:
        return f"timeline holds {snaps} x {taps} taps, expected {count} x {inputs.L_MAX}"
    if abs(timeline.f_samp - inputs.F_SAMP) > 1e-6 or abs(timeline.t_int - interval) > 1e-9:
        return f"timeline f_samp {timeline.f_samp}, t_int {timeline.t_int}"
    if not np.all(np.isfinite(timeline.taps)) or not np.all(np.abs(timeline.taps).max(axis=1) > 0):
        return "timeline holds a non-finite or all-zero snapshot"
    return None


def compare_taps(timeline, reference):
    """Number of snapshots whose taps differ from ``reference`` beyond
    TAP_RTOL of the snapshot's strongest tap."""
    err = np.abs(timeline.taps - reference).max(axis=1)
    scale = np.abs(reference).max(axis=1)
    return int(np.count_nonzero(err > TAP_RTOL * scale))
