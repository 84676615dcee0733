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
3x more per slot and misses the real-time budget on a desktop core.  The
axpy routines come from scipy's f2py BLAS extension, loaded on its own by
:func:`_load_fblas` when a stream is set up: importing them through
``scipy.linalg.blas`` runs all of ``scipy.linalg``'s package init, about
0.25 s, nearly half of a stream's set-up, for two routines.
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
from .errors import (EndOfScenario, InvalidInputError, NoReferenceError,
                     SequencingError)
from .iqstream import FrameBuffers, read_frame, write_frame

CARRY = "carry"
ZERO = "zero"

NOISE_OFF_DB = -math.inf  # the noise_power_db of a stream without noise
HEADROOM_DB = 5.0  # calibrate_signal_gain's strongest snapshot, above 0 dB

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


def noise_block(state, slot_index):
    """Write slot ``slot_index``'s noise, at ``state.noise_scale``, into ``state.out``.

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
        np.random.SeedSequence(state.rng_seed & _U64_MASK, spawn_key=(slot_index,))))
    lo, hi = gen.integers(0, half - n, size=2, endpoint=True)
    phi_lo, phi_hi = gen.uniform(0.0, 2.0 * math.pi, size=2)
    np.multiply(bank[lo:lo + n], np.complex64(cmath.rect(_SQRT_HALF, phi_lo)), out=acc)
    hi += half
    acc = state.caxpy(bank[hi:hi + n], acc, a=cmath.rect(_SQRT_HALF, phi_hi))
    out = state.out
    np.copyto(out, acc)
    out *= state.noise_scale  # float64, so no noise level under- or overflows
    return out


class EmulatorState:
    """One stream: its scenario, every per-stream resource and the slot
    sequencing, built before any I/O so no slot pays for the set-up.

    Slots carry N_s = ``samples_per_slot`` = 15 * ``fft_size`` samples, at
    most :data:`MAX_SLOT_SAMPLES`, at the timeline's tap rate, and last
    ``slot_duration`` seconds; each snapshot lasts ``slots_per_snapshot``
    slots.  ``sorted_snapshots`` holds each snapshot's top-``l_sel`` taps,
    selected once from the timeline here; a ``signal_gain_db`` that scales
    one of them past float64 raises :class:`InvalidInputError`.

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
    frame codec's scratch.  Every buffer is written once here, so the first
    slot takes none of their page faults.  ``zaxpy`` and ``caxpy`` are
    scipy's BLAS routines, the very objects ``scipy.linalg.blas`` exports,
    loaded here by :func:`_load_fblas` without ``scipy.linalg``'s package
    init; so commands which never stream IQ never import scipy, and a
    stream's set-up skips the 0.25 s that init costs.
    """

    def __init__(self, timeline, l_sel, fft_size, signal_gain_db=0.0,
                 noise_power_db=NOISE_OFF_DB, rng_seed=0, history_mode=CARRY):
        if (isinstance(fft_size, bool) or not isinstance(fft_size, numbers.Integral)
                or fft_size < 1):
            raise InvalidInputError(f"fft_size must be an integer >= 1, got {fft_size!r}")
        n_s = self.samples_per_slot = fft_size * 15
        if n_s > MAX_SLOT_SAMPLES:
            raise InvalidInputError(
                f"fft_size {fft_size} gives {n_s} samples "
                f"per slot, above the {MAX_SLOT_SAMPLES}-sample limit")
        if not len(timeline):
            raise InvalidInputError("timeline must not be empty")
        if math.isnan(signal_gain_db):
            raise InvalidInputError("signal_gain_db must not be NaN")
        if math.isnan(noise_power_db) or noise_power_db == math.inf:
            raise InvalidInputError(
                f"noise_power_db must be finite or -inf (no noise), got "
                f"{noise_power_db}")
        if history_mode not in (CARRY, ZERO):
            raise InvalidInputError(
                f"history_mode must be '{CARRY}' or '{ZERO}', got {history_mode!r}"
            )
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
        self.history_mode = history_mode
        self.slots_per_snapshot = round(ratio)
        self.capacity_slots = len(timeline) * self.slots_per_snapshot
        self.signal_scale = _db_to_scale("signal_gain_db", signal_gain_db)
        self.noise_scale = _db_to_scale("noise_power_db", noise_power_db)
        self.sorted_snapshots = timeline.sorted_snapshots(l_sel)
        # the weights convolve_slot forms, signal_scale * amp, must be finite
        with np.errstate(over="ignore", invalid="ignore"):
            for s, cir in enumerate(self.sorted_snapshots):
                bad = np.flatnonzero(~np.isfinite(self.signal_scale * cir.amps))
                if bad.size:
                    raise InvalidInputError(
                        f"signal_gain_db of {signal_gain_db} dB overflows snapshot {s} "
                        f"tap {cir.indices[bad[0]]}")

        fblas = _load_fblas()
        self.zaxpy, self.caxpy = fblas.zaxpy, fblas.caxpy
        self.hist = timeline.l_max - 1
        self.next_slot_index = 0
        self.ext = np.zeros(self.hist + n_s, dtype=np.complex128)
        self.slot = self.ext[self.hist:]
        self.out = _aligned_empty(n_s, np.complex128)
        self.bank = self.noise = None
        if self.noise_scale > 0.0:
            size = NOISE_BANK_SIZE
            while size < 4 * n_s:
                size *= 2
            self.bank = np.empty(size, dtype=np.complex64)
            iq = self.bank.view(np.float32)
            gen = np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(rng_seed & _U64_MASK)))
            gen.standard_normal(dtype=np.float32, out=iq)
            iq *= np.float32(_SQRT_HALF)
            self.noise = _aligned_empty(n_s, np.complex64)
        self.bufs = FrameBuffers(n_s)
        for buf in (self.ext, self.out, self.noise, self.bufs.payload,
                    self.bufs.values, self.bufs.mask):
            if buf is not None:
                buf.fill(0)


def convolve_slot(state, slot_index, samples):
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
    snap = slot_index // state.slots_per_snapshot
    if snap >= len(state.sorted_snapshots):
        raise EndOfScenario(
            f"slot {slot_index} lies beyond the {len(state.sorted_snapshots)}-snapshot timeline"
        )
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

    cir = state.sorted_snapshots[snap]
    scale = state.signal_scale
    zaxpy = state.zaxpy
    for amp, k in zip(cir.amps, cir.indices):
        start = hist - int(k)
        out = zaxpy(ext[start:start + n_s], out, a=scale * amp)

    if state.history_mode == CARRY:  # in zero mode ext[:hist] stays zero
        ext[:hist] = ext[n_s:]
    state.next_slot_index += 1
    return out


def calibrate_signal_gain(taps):
    """Signal gain that puts the strongest snapshot HEADROOM_DB above 0 dB.

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
    return HEADROOM_DB - best


def run_scenario(state, rf, wf):
    """Drive one frame stream; yield (slot_index, seconds, clipped) per slot.

    This is the one frame loop.  It reads each OWIQ frame from ``rf``
    straight into ``state.slot``, convolves it and writes the output frame
    to ``wf`` in the input frame's format, through ``state.bufs``; no slot
    allocates an array.
    The seconds cover :func:`convolve_slot` alone; ``clipped`` counts the
    values the output frame saturated or wrote as 0 for NaN (see
    :func:`~chanem.iqstream.write_frame`).  A slot past the end of the
    timeline raises :class:`EndOfScenario`; frame, sequencing and input
    errors propagate too.
    """
    while (frame := read_frame(rf, state.slot, state.bufs)) is not None:
        slot_index, fmt = frame
        t0 = time.perf_counter()
        out = convolve_slot(state, slot_index, state.slot)
        seconds = time.perf_counter() - t0
        yield slot_index, seconds, write_frame(wf, slot_index, out, fmt, state.bufs)
