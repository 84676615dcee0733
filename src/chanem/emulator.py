"""Slot-based streaming convolution of baseband IQ with sorted CIR taps.

Each radio slot of N_s samples is convolved with the active snapshot's
selected taps (a sparse tapped delay line), scaled, and mixed with circular
complex Gaussian noise read from a per-stream bank, keyed per (seed, slot).
Snapshots advance every ``slots_per_snapshot`` slots; slot history carries
across slot boundaries so the streaming output equals one long convolution
(``carry`` mode), or is zeroed per slot to reproduce strict per-slot matrix
processing (``zero``).
:func:`run_scenario` drives a stream of OWIQ frames through it, decoding
each frame into the stream's own buffer.

The tap accumulation runs through BLAS axpy: a pure-numpy loop costs about
3x more per slot and misses the real-time budget on a desktop core.
"""

import cmath
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .cir import path_gain_total
from .errors import (EndOfScenario, InvalidInputError, NoReferenceError,
                     SequencingError)
from .iqstream import FrameBuffers, read_frame, write_frame
from .timeline import CirTimeline

CARRY = "carry"
ZERO = "zero"

_U64_MASK = (1 << 64) - 1
_SQRT_HALF = math.sqrt(0.5)

# Entries in a stream's noise bank (2 MB of complex64); a bank grows to the
# smallest larger power of two whose halves each hold two slots.
NOISE_BANK_SIZE = 1 << 18

# Upper bound on N_s: it sizes the stream buffers, the noise bank and bench's
# input pool.  It admits OAI's 6144-point FFT (92,160 samples per slot).
MAX_SLOT_SAMPLES = 1 << 17

# Byte alignment of the axpy accumulators.  numpy only promises 16 bytes; at
# 16 bytes past a 32-byte boundary every 32-byte vector store of zaxpy splits
# a cache line, and a 28-tap 23040-sample slot took 0.50-0.62 ms instead of
# 0.43-0.46 ms (2-vCPU Xeon, one BLAS thread).
_ALIGN = 64


def _aligned_empty(n, dtype):
    """Uninitialized 1-D array of ``n`` items starting on an _ALIGN boundary."""
    size = n * np.dtype(dtype).itemsize
    raw = np.empty(size + _ALIGN, dtype=np.uint8)
    skip = -raw.ctypes.data % _ALIGN
    return raw[skip:skip + size].view(dtype)


def noise_block(state, cfg, slot_index):
    """Write slot ``slot_index``'s noise, at ``cfg.noise_scale``, into ``state.out``.

    Circular complex Gaussian noise read from the stream's bank (see
    :class:`EmulatorState`), keyed per (seed, slot): an ``SFC64`` generator
    seeded by ``SeedSequence(seed mod 2**64, spawn_key=(slot_index,))``, the
    ``slot_index``-th child that ``SeedSequence.spawn`` would give, draws one
    window offset in each half of the bank and two uniform phases, and the
    slot is ``sigma * (lo * e^{j phi1} + hi * e^{j phi2}) / sqrt(2)``.  So
    any slot's noise is reproducible without generating its predecessors,
    and a slot's two windows never share a sample.  (An entropy tuple
    ``(seed, slot_index)`` would not do: numpy concatenates its 32-bit
    words, so seed 2**32 + 5 at slot 0 would repeat seed 5 at slot 1.)
    The sum is formed in the complex64 scratch ``state.noise``, copied into
    ``state.out`` and scaled there; ``state.out`` is returned.  Nothing
    slot-sized is allocated (a casting multiply would allocate numpy's
    128 KB cast buffer on every call).
    """
    bank, acc = state.bank, state.noise
    n = len(acc)
    half = len(bank) // 2
    gen = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(cfg.rng_seed & _U64_MASK, spawn_key=(slot_index,))))
    lo, hi = gen.integers(0, half - n, size=2, endpoint=True)
    phi_lo, phi_hi = gen.uniform(0.0, 2.0 * math.pi, size=2)
    np.multiply(bank[lo:lo + n], np.complex64(cmath.rect(_SQRT_HALF, phi_lo)), out=acc)
    hi += half
    acc = state.caxpy(bank[hi:hi + n], acc, a=cmath.rect(_SQRT_HALF, phi_hi))
    out = state.out
    np.copyto(out, acc)
    out *= cfg.noise_scale  # float64, so no noise level under- or overflows
    return out


@dataclass
class EmulatorConfig:
    """Everything needed to run a scenario over an IQ stream.

    Slots carry N_s = 15 * ``fft_size`` samples, at most
    :data:`MAX_SLOT_SAMPLES`, at the timeline's tap rate.
    ``sorted_snapshots`` holds each snapshot's top-``l_sel`` taps, selected
    once from the timeline when the config is built.
    """

    timeline: CirTimeline
    l_sel: int
    fft_size: int
    signal_gain_db: float = 0.0
    noise_power_db: float = float("-inf")  # -inf disables noise
    rng_seed: int = 0
    history_mode: str = CARRY
    sorted_snapshots: list = field(init=False, repr=False)

    def __post_init__(self):
        if (isinstance(self.fft_size, bool) or not isinstance(self.fft_size, numbers.Integral)
                or self.fft_size < 1):
            raise InvalidInputError(f"fft_size must be an integer >= 1, got {self.fft_size!r}")
        if self.samples_per_slot > MAX_SLOT_SAMPLES:
            raise InvalidInputError(
                f"fft_size {self.fft_size} gives {self.samples_per_slot} samples "
                f"per slot, above the {MAX_SLOT_SAMPLES}-sample limit")
        if not len(self.timeline):
            raise InvalidInputError("timeline must not be empty")
        if math.isnan(self.signal_gain_db):
            raise InvalidInputError("signal_gain_db must not be NaN")
        if math.isnan(self.noise_power_db) or self.noise_power_db == math.inf:
            raise InvalidInputError(
                f"noise_power_db must be finite or -inf (no noise), got "
                f"{self.noise_power_db}")
        if self.history_mode not in (CARRY, ZERO):
            raise InvalidInputError(
                f"history_mode must be '{CARRY}' or '{ZERO}', got {self.history_mode!r}"
            )
        t_int = self.timeline.t_int
        slot_dur = self.slot_duration
        ratio = t_int / slot_dur
        if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9 * max(ratio, 1.0):
            raise InvalidInputError(
                f"t_int {t_int} must be a positive integer multiple of the "
                f"slot duration {slot_dur}"
            )
        self.sorted_snapshots = self.timeline.sorted_snapshots(self.l_sel)

    @property
    def samples_per_slot(self):
        return self.fft_size * 15

    @property
    def slot_duration(self):
        return self.samples_per_slot / self.timeline.f_samp

    @property
    def slots_per_snapshot(self):
        return round(self.timeline.t_int / self.slot_duration)

    @property
    def capacity_slots(self):
        return len(self.timeline) * self.slots_per_snapshot

    @property
    def signal_scale(self):
        return 10.0 ** (self.signal_gain_db / 20.0)

    @property
    def noise_scale(self):
        return 10.0 ** (self.noise_power_db / 20.0)


class EmulatorState:
    """Every per-stream resource and the slot sequencing: the stream's
    set-up, which every driver builds before any I/O so no slot pays for it.

    ``ext`` holds the ``l_max - 1`` carried input samples followed by the
    current slot; ``slot`` is a view of that tail, where frames are decoded.
    ``out`` receives each slot's output and is overwritten by the next; it
    and ``noise``, the axpy accumulators, start on 64-byte boundaries.

    With noise on, ``bank`` holds the stream's Gaussian samples: complex64
    with variance 0.5 per component, drawn once from the root
    ``SeedSequence(seed mod 2**64)`` (never equal to a slot's child key).
    It has ``NOISE_BANK_SIZE`` entries, or more when a slot is longer than a
    quarter of that.  ``noise`` is the complex64 scratch of
    :func:`noise_block`.  Both are None with noise off.  ``bufs`` holds the
    frame codec's scratch.  ``zaxpy`` and ``caxpy`` are scipy's BLAS, loaded
    here so that commands which never stream IQ never import scipy.
    """

    def __init__(self, cfg):
        from scipy.linalg.blas import caxpy, zaxpy
        self.zaxpy, self.caxpy = zaxpy, caxpy
        n_s = cfg.samples_per_slot
        self.hist = cfg.timeline.l_max - 1
        self.next_slot_index = 0
        self.ext = np.zeros(self.hist + n_s, dtype=np.complex128)
        self.slot = self.ext[self.hist:]
        self.out = _aligned_empty(n_s, np.complex128)
        self.bank = self.noise = None
        if cfg.noise_scale > 0.0:
            size = NOISE_BANK_SIZE
            while size < 4 * n_s:
                size *= 2
            self.bank = np.empty(size, dtype=np.complex64)
            iq = self.bank.view(np.float32)
            gen = np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(cfg.rng_seed & _U64_MASK)))
            gen.standard_normal(dtype=np.float32, out=iq)
            iq *= np.float32(_SQRT_HALF)
            self.noise = _aligned_empty(n_s, np.complex64)
        self.bufs = FrameBuffers(n_s)


def convolve_slot(state, cfg, slot_index, samples):
    """Convolve one slot with the active snapshot's taps and add noise.

    Returns ``state.out``, which the next call overwrites.  ``samples`` may
    be ``state.slot`` itself, which then is not copied.  Slots must arrive
    in index order; an index at or beyond the timeline capacity raises
    :class:`EndOfScenario`.
    """
    if slot_index != state.next_slot_index:
        raise SequencingError(
            f"slot {slot_index} arrived, expected {state.next_slot_index}"
        )
    snap = slot_index // cfg.slots_per_snapshot
    if snap >= len(cfg.sorted_snapshots):
        raise EndOfScenario(
            f"slot {slot_index} lies beyond the {len(cfg.sorted_snapshots)}-snapshot timeline"
        )
    n_s = cfg.samples_per_slot
    if len(samples) != n_s:
        raise InvalidInputError(
            f"slot has {len(samples)} samples, expected {n_s}"
        )

    hist, ext, out = state.hist, state.ext, state.out
    state.slot[...] = samples
    if cfg.noise_scale > 0.0:
        noise_block(state, cfg, slot_index)
    else:
        out.fill(0.0)

    cir = cfg.sorted_snapshots[snap]
    scale = cfg.signal_scale
    zaxpy = state.zaxpy
    for amp, k in zip(cir.amps, cir.indices):
        start = hist - int(k)
        out = zaxpy(ext[start:start + n_s], out, a=scale * amp)

    if cfg.history_mode == CARRY:  # in zero mode ext[:hist] stays zero
        ext[:hist] = ext[n_s:]
    state.next_slot_index += 1
    return out


def calibrate_signal_gain(taps, headroom_db=5.0):
    """Signal gain that puts the strongest snapshot ``headroom_db`` above 0 dB.

    ``taps`` holds one tap vector per snapshot (``CirTimeline.taps``).
    Raises :class:`NoReferenceError` when every snapshot sums to zero.
    """
    if not len(taps):
        raise NoReferenceError("cannot calibrate against an empty timeline")
    best = max(path_gain_total(row) for row in taps)
    if best == float("-inf"):
        raise NoReferenceError(
            "all snapshots have zero coherent gain; no calibration reference"
        )
    return headroom_db - best


def run_scenario(state, cfg, rf, wf):
    """Drive one frame stream; yield (slot_index, seconds, clipped) per slot.

    This is the one frame loop.  It reads each OWIQ frame from ``rf``
    straight into ``state.slot``, convolves it and writes the output frame
    to ``wf`` in the input frame's format, through ``state.bufs``; no slot
    allocates an array.
    The seconds cover :func:`convolve_slot` alone; ``clipped`` counts the
    int16 values the output frame saturated.  A slot past the end of the
    timeline raises :class:`EndOfScenario`; frame, sequencing and input
    errors propagate too.
    """
    while (frame := read_frame(rf, state.slot, state.bufs)) is not None:
        slot_index, fmt = frame
        t0 = time.perf_counter()
        out = convolve_slot(state, cfg, slot_index, state.slot)
        seconds = time.perf_counter() - t0
        yield slot_index, seconds, write_frame(wf, slot_index, out, fmt, state.bufs)
