"""Slot-based streaming convolution of baseband IQ with sorted CIR taps.

Each radio slot of N_s = 15 * ``fft_size`` samples (:func:`samples_per_slot`)
is convolved with the active snapshot's selected taps (a sparse tapped delay
line) and mixed with circular complex Gaussian noise read from a per-stream
bank, keyed per (seed, slot).  A stream selects each snapshot's taps, scales
them by the signal gain and turns their delays into offsets into its input
buffer once, at set-up (:class:`EmulatorState`), so a slot only slices and
accumulates.
Snapshots advance every ``slots_per_snapshot`` slots.  Each slot's input is
carried into the next as its history, so a stream's output equals one long
convolution of its input; there is no per-slot reset.
:func:`run_scenario` drives a stream of OWIQ frames through it, decoding
each frame into the stream's own buffer and timing each slot's read,
convolve and write stages.

The tap accumulation and the noise run through BLAS ``zaxpy``: a
pure-numpy loop costs about 3x more per slot and misses the real-time
budget on a desktop core.  Every slot buffer and the noise bank are
complex128, so a stream needs that one routine.  It comes from scipy's f2py
BLAS extension, loaded on its own by :func:`_load_fblas` when a stream is
set up: importing it through ``scipy.linalg.blas`` runs all of
``scipy.linalg``'s package init, about 0.25 s, nearly half of a stream's
set-up, for one routine.
"""

import cmath
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import time

import numpy as np

from .cir import path_gain_total
from .errors import EndOfScenario, InvalidInputError
from .iqstream import FrameBuffers, read_frame, write_frame

CARRY = "carry"  # the one history rule; `chanem emulate --history` reads it

NOISE_OFF_DB = -math.inf  # the noise_power_db of a stream without noise
HEADROOM_DB = 5.0  # calibrate_signal_gain's strongest snapshot, above 0 dB

_U64_MASK = (1 << 64) - 1
_SQRT_HALF = math.sqrt(0.5)
_RADIANS_PER_WORD = 2.0 * math.pi / 2.0 ** 64  # a uniform 64-bit word's phase

# Entries in a stream's noise bank (4 MB of complex128, drawn as 2 MB of
# float32); a bank grows to the smallest larger power of two whose halves
# each hold two slots.
NOISE_BANK_SIZE = 1 << 18

# Upper bound on N_s: it sizes the stream buffers, the noise bank (at most
# 2**19 entries, 8 MB) and bench's frame ring.  It admits OAI's 6144-point
# FFT (92,160 samples per slot).
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


def _load_fblas():
    """scipy's f2py BLAS extension ``scipy.linalg._fblas``, alone.

    Imports ``scipy`` (about 15 ms) to find it, then executes only the
    extension (about 5 ms), not ``scipy.linalg``'s package init (about
    250 ms).  The module is registered under its own name, so a later
    ``import scipy.linalg`` reuses it, and one imported earlier is returned
    as is: either way ``scipy.linalg.blas`` exports the very same routines.
    Raises ImportError, naming the directory searched, if it is missing.
    """
    name = "scipy.linalg._fblas"
    module = sys.modules.get(name)
    if module is None:
        import scipy
        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [where])
        if spec is None:
            raise ImportError(f"scipy's BLAS extension {name} not found in {where}",
                              name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _db_to_scale(name, db):
    """The linear amplitude scale of ``db`` dB; raises InvalidInputError,
    naming the parameter ``name``, where that scale is not finite."""
    try:
        scale = 10.0 ** (db / 20.0)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise InvalidInputError(f"{name} of {db} dB overflows its linear scale")
    return scale


def samples_per_slot(fft_size):
    """N_s, the samples in a slot of an ``fft_size``-point FFT: 15 * ``fft_size``.

    Raises :class:`InvalidInputError` unless ``fft_size`` is an integer >= 1
    whose N_s is at most :data:`MAX_SLOT_SAMPLES`.
    """
    if not isinstance(fft_size, numbers.Integral) or isinstance(fft_size, bool) or fft_size < 1:
        raise InvalidInputError(f"fft_size must be an integer >= 1, got {fft_size!r}")
    n_s = fft_size * 15
    if n_s > MAX_SLOT_SAMPLES:
        raise InvalidInputError(f"fft_size {fft_size} gives {n_s} samples per slot, "
                                f"above the {MAX_SLOT_SAMPLES}-sample limit")
    return n_s


def noise_block(state, slot_index):
    """Write slot ``slot_index``'s noise, at ``state.noise_scale``, into ``state.out``.

    Circular complex Gaussian noise read from the stream's bank (see
    :class:`EmulatorState`), keyed per (seed, slot) by
    ``SeedSequence(seed mod 2**64, spawn_key=(slot_index,))``, the
    ``slot_index``-th child that ``SeedSequence.spawn`` would give.  One
    ``generate_state(4, uint64)`` call gives four 64-bit words ``w``: two
    pick a window offset in each half of the bank,
    ``(w * (half - n + 1)) >> 64`` (plus ``half`` for the second), and two
    a phase each, ``w * 2 pi / 2**64``.  The slot is
    ``sigma * (lo * e^{j phi1} + hi * e^{j phi2}) / sqrt(2)``.  So any
    slot's noise is reproducible without generating its predecessors, and a
    slot's two windows never share a sample.  (An entropy tuple
    ``(seed, slot_index)`` would not do: numpy concatenates its 32-bit
    words, so seed 2**32 + 5 at slot 0 would repeat seed 5 at slot 1.)
    The noise is formed in ``state.out`` in two slot-length passes, a
    multiply of the first window and one ``zaxpy`` of the second, with
    ``sigma`` folded into their float64 phasors, so the noise level keeps
    float64's range.  ``state.out`` is returned; nothing slot-sized is
    allocated.
    """
    bank, out = state.bank, state.out
    n = len(out)
    half = len(bank) // 2
    w_lo, w_hi, w_phi_lo, w_phi_hi = np.random.SeedSequence(
        state.rng_seed & _U64_MASK, spawn_key=(slot_index,)).generate_state(4, np.uint64).tolist()
    lo = (w_lo * (half - n + 1)) >> 64
    hi = half + ((w_hi * (half - n + 1)) >> 64)
    amp = _SQRT_HALF * state.noise_scale
    np.multiply(bank[lo:lo + n], cmath.rect(amp, w_phi_lo * _RADIANS_PER_WORD), out=out)
    return state.zaxpy(bank[hi:hi + n], out, a=cmath.rect(amp, w_phi_hi * _RADIANS_PER_WORD))


class EmulatorState:
    """One stream: its scenario, every per-stream resource and the slot
    sequencing, built before any I/O so no slot pays for the set-up.

    Slots carry N_s = ``samples_per_slot`` = 15 * ``fft_size`` samples
    (:func:`samples_per_slot`) at the timeline's tap rate, and last
    ``slot_duration`` seconds; each snapshot lasts ``slots_per_snapshot``
    slots.  ``tap_table`` is the stream's only per-snapshot tap data: for
    each snapshot, from its top-``l_sel`` taps selected once here by
    ``timeline.sorted_snapshots``, a pair of arrays, the offsets
    ``hist - k`` into ``ext`` (``hist`` = ``l_max - 1``) and the weights
    ``10 ** (signal_gain_db / 20) * amp``, 24 bytes a tap.  A ``signal_gain_db`` that
    scales a selected tap past float64 raises :class:`InvalidInputError`
    naming the snapshot and tap.

    ``ext`` holds the stream's last ``l_max - 1`` input samples before the
    current slot (zeros before the first slot), followed by the current
    slot; ``slot`` is a view of that tail, where frames are decoded.
    ``out`` receives each slot's output and is overwritten by the next; it
    is the axpy accumulator, and starts on a 64-byte boundary.

    With noise on, ``bank`` holds the stream's Gaussian samples, variance
    0.5 per component, drawn once as float32 from the root
    ``SeedSequence(seed mod 2**64)`` (never equal to a slot's child key)
    and widened to complex128, the dtype of ``ext`` and ``out``.  It has
    ``NOISE_BANK_SIZE`` entries, or more when a slot is longer than a
    quarter of that; it is None with noise off.  A slot reads its two
    windows and phases from four words of its own child key
    (:func:`noise_block`), with no generator object.  ``bufs`` holds the
    frame codec's scratch, with the one frame buffer that each frame is
    read into and written from in one call.  Every buffer is written once
    here, so the first slot takes none of their page faults.  ``zaxpy`` is
    scipy's BLAS routine, the very object ``scipy.linalg.blas`` exports,
    loaded here by :func:`_load_fblas` without ``scipy.linalg``'s package
    init; so commands which never stream IQ never import scipy, and a
    stream's set-up skips the 0.25 s that init costs.
    """

    def __init__(self, timeline, l_sel, fft_size, signal_gain_db=0.0,
                 noise_power_db=NOISE_OFF_DB, rng_seed=0):
        n_s = self.samples_per_slot = samples_per_slot(fft_size)
        if not len(timeline):
            raise InvalidInputError("timeline must not be empty")
        if math.isnan(signal_gain_db):
            raise InvalidInputError("signal_gain_db must not be NaN")
        if math.isnan(noise_power_db) or noise_power_db == math.inf:
            raise InvalidInputError(
                f"noise_power_db must be finite or -inf (no noise), got "
                f"{noise_power_db}")
        t_int = timeline.t_int
        slot_dur = self.slot_duration = n_s / timeline.f_samp
        ratio = t_int / slot_dur
        if (not math.isfinite(ratio) or round(ratio) < 1
                or abs(ratio - round(ratio)) > 1e-9 * max(ratio, 1.0)):
            raise InvalidInputError(
                f"t_int {t_int} must be a positive integer multiple of the "
                f"slot duration {slot_dur}"
            )
        self.rng_seed = rng_seed
        self.slots_per_snapshot = round(ratio)
        self.capacity_slots = len(timeline) * self.slots_per_snapshot
        signal_scale = _db_to_scale("signal_gain_db", signal_gain_db)
        self.noise_scale = _db_to_scale("noise_power_db", noise_power_db)
        hist = self.hist = timeline.l_max - 1
        # formed in the selection's own arrays: a copy of them raised the
        # stream's peak RSS by 0.7 MB at 600 snapshots of 146 taps
        with np.errstate(over="ignore", invalid="ignore"):
            self.tap_table = [(np.subtract(hist, cir.indices, out=cir.indices),
                               np.multiply(signal_scale, cir.amps, out=cir.amps))
                              for cir in timeline.sorted_snapshots(l_sel)]
        for s, (offsets, weights) in enumerate(self.tap_table):
            bad = np.flatnonzero(~np.isfinite(weights))
            if bad.size:
                raise InvalidInputError(
                    f"signal_gain_db of {signal_gain_db} dB overflows snapshot {s} "
                    f"tap {hist - offsets[bad[0]]}")

        self.zaxpy = _load_fblas().zaxpy
        self.next_slot_index = 0
        self.ext = np.zeros(hist + n_s, dtype=np.complex128)
        self.slot = self.ext[hist:]
        self.out = _aligned_empty(n_s, np.complex128)
        self.bank = None
        if self.noise_scale > 0.0:
            size = NOISE_BANK_SIZE
            while size < 4 * n_s:
                size *= 2
            iq = np.empty(2 * size, dtype=np.float32)
            gen = np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(rng_seed & _U64_MASK)))
            gen.standard_normal(dtype=np.float32, out=iq)
            iq *= np.float32(_SQRT_HALF)
            self.bank = iq.view(np.complex64).astype(np.complex128)
        self.bufs = FrameBuffers(n_s)
        for buf in (self.ext, self.out, self.bufs.frame, self.bufs.values,
                    self.bufs.mask):
            buf.fill(0)


def convolve_slot(state, slot_index, samples):
    """Convolve one slot with the active snapshot's taps and add noise.

    Each tap of ``state.tap_table`` is one axpy of the slice of ``state.ext``
    at its offset, scaled by its weight, into ``state.out``.  The stream's
    last ``state.hist`` input samples then move to the head of
    ``state.ext``, the history the next slot's taps read.

    Returns ``state.out``, which the next call overwrites.  ``samples`` may
    be ``state.slot`` itself, which then is not copied.  Slots must arrive
    in index order, else :class:`InvalidInputError`; an index at or beyond
    the timeline capacity raises :class:`EndOfScenario`.
    """
    if slot_index != state.next_slot_index:
        raise InvalidInputError(
            f"slot {slot_index} arrived, expected {state.next_slot_index}"
        )
    snap = slot_index // state.slots_per_snapshot
    if snap >= len(state.tap_table):
        raise EndOfScenario(f"slot {slot_index} lies beyond the "
                            f"{len(state.tap_table)}-snapshot timeline")
    n_s = state.samples_per_slot
    if len(samples) != n_s:
        raise InvalidInputError(
            f"slot has {len(samples)} samples, expected {n_s}"
        )

    hist, ext, out = state.hist, state.ext, state.out
    state.slot[...] = samples
    if state.noise_scale > 0.0:
        noise_block(state, slot_index)
    else:
        out.fill(0.0)

    offsets, weights = state.tap_table[snap]
    zaxpy = state.zaxpy
    for start, weight in zip(offsets.tolist(), weights.tolist()):
        out = zaxpy(ext[start:start + n_s], out, a=weight)

    ext[:hist] = ext[n_s:]
    state.next_slot_index += 1
    return out


def calibrate_signal_gain(taps):
    """Signal gain that puts the strongest snapshot HEADROOM_DB above 0 dB.

    ``taps`` holds one tap vector per snapshot (``CirTimeline.taps``).
    Raises :class:`InvalidInputError` when every snapshot sums to zero.
    """
    if not len(taps):
        raise InvalidInputError("cannot calibrate against an empty timeline")
    best = max(path_gain_total(row) for row in taps)
    if best == float("-inf"):
        raise InvalidInputError(
            "all snapshots have zero coherent gain; no calibration reference"
        )
    return HEADROOM_DB - best


def run_scenario(state, rf, wf):
    """Drive one frame stream; yield (slot_index, read_s, convolve_s,
    write_s, clipped) per slot.

    This is the one frame loop, which ``chanem emulate`` and
    :func:`~chanem.bench.bench` both run, and the one clock of a slot.  It
    reads each OWIQ frame from ``rf`` straight into ``state.slot``,
    convolves it and writes the output frame to ``wf`` in the input frame's
    format, through ``state.bufs``; no slot allocates an array.
    Each stage is timed by ``time.perf_counter``: ``read_s`` covers
    :func:`~chanem.iqstream.read_frame` (header, payload and decode; over a
    pipe or socket it includes waiting for the frame), ``convolve_s``
    :func:`convolve_slot` with its noise, and ``write_s``
    :func:`~chanem.iqstream.write_frame` (encode and write).  Time the
    caller spends between two slots counts in no stage.  ``clipped``
    counts the values the output frame saturated or wrote as 0 for NaN.
    A slot past the end of the timeline raises :class:`EndOfScenario`;
    frame, sequencing and input errors propagate too.
    """
    t0 = time.perf_counter()
    while (frame := read_frame(rf, state.slot, state.bufs)) is not None:
        slot_index, fmt = frame
        t1 = time.perf_counter()
        out = convolve_slot(state, slot_index, state.slot)
        t2 = time.perf_counter()
        clipped = write_frame(wf, slot_index, out, fmt, state.bufs)
        t3 = time.perf_counter()
        yield slot_index, t1 - t0, t2 - t1, t3 - t2, clipped
        t0 = time.perf_counter()
