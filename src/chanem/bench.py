"""Per-slot latency of the frame driver against the slot-period budget.

:func:`bench` runs :func:`~chanem.emulator.run_scenario`, the frame loop
that ``chanem emulate`` runs, over a ring of f32 OWIQ frames encoded once
from seeded random slots, and drops the frames it writes.  So every slot
is decoded, convolved and encoded as in production, with no file, pipe or
socket in the way, and every second it reports is one that the driver's
own stage timers measured.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .cir import CirConfig
from .emulator import NOISE_OFF_DB, EmulatorState, run_scenario, samples_per_slot
from .errors import InvalidInputError
from .iqstream import FMT_F32, restamp_frame, write_frame
from .timeline import CirTimeline

# A run keeps two float64 latencies per slot, so a million slots hold 16 MB.
MAX_SLOT_COUNT = 1_000_000


@dataclass(frozen=True)
class BenchStats:
    """Latency summary of a bench run: the convolve stage's min, median, p99
    and max, and the median and p99 of the whole driver step (read, convolve
    and write).  ``passed`` is True when that step's median fits the slot
    period ``budget_s``."""

    slot_count: int
    l_sel: int
    samples_per_slot: int
    min_s: float
    median_s: float
    p99_s: float
    max_s: float
    budget_s: float
    slot_median_s: float
    slot_p99_s: float

    @property
    def passed(self):
        return self.slot_median_s < self.budget_s


def bench(slot_count, l_sel, fft_size, f_samp, seed=0, noise_power_db=NOISE_OFF_DB):
    """Run ``slot_count`` slots of ``samples_per_slot(fft_size)`` samples at
    ``f_samp`` through :func:`~chanem.emulator.run_scenario`, with up to
    ``l_sel`` random taps of ``CirConfig(f_samp=f_samp)``.

    The input is a ring of ``min(8, slot_count)`` f32 frames, encoded
    before the run; each is restamped with its next slot index between two
    slots, outside the driver's clock.  ``min_s`` to ``max_s`` are the
    ``convolve_s`` the driver yields (``emulate --stats``' ``latency_s``);
    ``slot_median_s`` and ``slot_p99_s`` are those of its
    ``read_s + convolve_s + write_s``, the step from frame in to frame out.
    Noise defaults to off so the convolve stage isolates the
    tap accumulation (enable it via ``noise_power_db`` to measure noise too).
    """
    if not 1 <= slot_count <= MAX_SLOT_COUNT:
        raise InvalidInputError(
            f"slot_count must be in 1..{MAX_SLOT_COUNT}, got {slot_count}")
    if l_sel < 1:
        raise InvalidInputError(f"l_sel must be >= 1, got {l_sel}")
    n_s = samples_per_slot(fft_size)
    l_max = CirConfig(f_samp=f_samp).l_max
    rng = np.random.default_rng(seed % (1 << 64))  # as EmulatorState keys its noise
    l_sel = min(l_sel, l_max)
    indices = rng.choice(l_max, size=l_sel, replace=False)
    taps = np.zeros((1, l_max), dtype=np.complex128)
    taps[0, indices] = rng.standard_normal(l_sel) + 1j * rng.standard_normal(l_sel)
    timeline = CirTimeline(taps, f_samp, t_int=slot_count * (n_s / f_samp))

    state = EmulatorState(timeline, l_sel, fft_size, noise_power_db=noise_power_db,
                          rng_seed=seed)
    k = min(8, slot_count)  # frames in the ring
    ring, out = io.BytesIO(), io.BytesIO()
    for _ in range(k):
        write_frame(ring, 0, rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s),
                    FMT_F32)
    frame_size, frames = ring.tell() // k, ring.getbuffer()
    ring.seek(0)
    convolve_s, slot_s = np.empty(slot_count), np.empty(slot_count)
    # the driver reads a frame only when asked for its next slot, so each
    # frame is restamped and served between two slots, outside its clock;
    # the end of the ring ends the run
    for i, read_s, seconds, write_s, _ in run_scenario(state, ring, out):
        convolve_s[i], slot_s[i] = seconds, read_s + seconds + write_s
        start = (i + 1) % k * frame_size
        restamp_frame(frames, start, i + 1)
        ring.seek(start if i + 1 < slot_count else len(frames))
        out.seek(0)  # each output frame overwrites the last
    # min, median, p99 and max of each sorted series
    picks = [0, slot_count // 2, min(slot_count - 1, math.ceil(0.99 * slot_count) - 1), -1]
    return BenchStats(slot_count, l_sel, n_s, *np.sort(convolve_s)[picks].tolist(),
                      state.slot_duration, *np.sort(slot_s)[picks[1:3]].tolist())
