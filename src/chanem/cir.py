"""Bandwidth-limited discrete channel impulse responses.

A delay profile (continuous path delays) becomes a dense tap vector by
sampling the ideal sinc pulse at the system rate; negative-index sinc tails
are discarded, the upper index gets a fixed 6-tap guard beyond the maximum
delay spread.  Truncation keeps only the highest-power taps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Default number of leading taps kept by the real-time emulator.
DEFAULT_TAP_BUDGET = 28

SINC_GUARD_TAPS = 6
DEFAULT_MAX_DELAY_SPREAD = 3e-6  # s: 146 taps at the reference 46.08 Msps

# Upper bound on a tap vector's length (``CirConfig.l_max``): 1.4 ms of delay
# spread at 46.08 Msps, far above the default's 146 taps.  It caps
# the sinc kernel and the tap matrix that a rate and a delay spread can size.
MAX_TAP_VECTOR_LEN = 1 << 16


def check_tap_grid(l_max, f_samp):
    """Raise :class:`InvalidInputError`, naming ``f_samp``, unless a grid of
    ``l_max`` taps at ``f_samp`` spans a finite number of seconds."""
    if not math.isfinite(l_max / f_samp):
        raise InvalidInputError(f"f_samp of {f_samp} Hz is too low: its {l_max}-tap "
                                f"grid spans more seconds than the largest float")


@dataclass(frozen=True)
class CirConfig:
    """Sampling grid for discrete CIRs.

    ``l_max`` (the tap vector length) is ceil(max_delay_spread * f_samp)
    plus the sinc guard plus one, and at most :data:`MAX_TAP_VECTOR_LEN`.
    The grid's span in seconds, ``l_max / f_samp``, must be finite.
    """

    f_samp: float
    max_delay_spread: float = DEFAULT_MAX_DELAY_SPREAD

    def __post_init__(self):
        for name in ("f_samp", "max_delay_spread"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")
        span = self.max_delay_spread * self.f_samp
        if span + SINC_GUARD_TAPS + 1 > MAX_TAP_VECTOR_LEN:
            raise InvalidInputError(
                f"max_delay_spread * f_samp = {span:.6g} taps exceeds the "
                f"{MAX_TAP_VECTOR_LEN}-tap vector limit")
        check_tap_grid(self.l_max, self.f_samp)

    @property
    def l_max(self):
        return math.ceil(self.max_delay_spread * self.f_samp) + SINC_GUARD_TAPS + 1

    @property
    def k_max(self):
        return self.l_max - 1


@dataclass
class SortedCir:
    """Power-sorted top-L tap selection of one snapshot's tap vector."""

    indices: np.ndarray   # original tap positions, power-descending
    amps: np.ndarray      # tap values in the same order
    total_power: float    # sum |h[k]|^2 over the full vector
    retained_power: float  # sum |amps|^2

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if len(self.indices) != len(self.amps):
            raise InvalidInputError("indices and amps must have equal length")

    @property
    def l_sel(self):
        return len(self.indices)


def discretize(profile, cfg):
    """Sample a delay profile onto the tap grid: h[k] = sum_p a_p sinc(k - f_samp*tau_p).

    Returns the ``cfg.l_max`` taps as a 1-D complex vector.  Negative-index
    sinc energy is dropped (the grid starts at k = 0).
    Raises :class:`InvalidInputError` naming the first offending path if
    any delay exceeds ``cfg.max_delay_spread``, or naming the first tap that
    is not finite where the paths' amplitudes sum past the largest float.
    """
    delays = np.asarray(profile.delays, dtype=np.float64)
    amps = np.asarray(profile.amps, dtype=np.complex128)
    over = np.nonzero(delays > cfg.max_delay_spread)[0]
    if over.size:
        p = int(over[0])
        raise InvalidInputError(f"path {p} delay {delays[p]:.6g} s exceeds max delay "
                                f"spread {cfg.max_delay_spread:.6g} s")
    if not delays.size:
        return np.zeros(cfg.l_max, dtype=np.complex128)
    k = np.arange(cfg.l_max, dtype=np.float64)
    # (P, l_max) sinc kernel, weighted and summed over paths in numpy: a BLAS
    # matrix product would run on OpenBLAS's threads and stall when the other
    # core is busy (0.9-1.0 s against 14-24 ms for 150 profiles, 2-vCPU host)
    kernel = np.sinc(k[np.newaxis, :] - cfg.f_samp * delays[:, np.newaxis])
    # numpy's complex product flags an overflow for some finite products of
    # amplitudes near the largest float; a tap that really overflows is
    # named below
    with np.errstate(over="ignore", invalid="ignore"):
        taps = (amps[:, np.newaxis] * kernel).sum(axis=0)
    bad = np.flatnonzero(~np.isfinite(taps))
    if bad.size:
        k = int(bad[0])
        raise InvalidInputError(
            f"tap {k} = {taps[k]} is not finite: the path amplitudes sum past "
            f"the largest float")
    return taps


def sort_truncate(taps, l_sel):
    """Keep the ``l_sel`` highest-power taps of a tap vector, power-descending.

    Ties in power resolve to the smaller tap index so the selection is
    reproducible.  Zero-power taps are never selected.
    """
    if l_sel < 1:
        raise InvalidInputError(f"l_sel must be >= 1, got {l_sel}")
    taps = np.asarray(taps, dtype=np.complex128)
    powers = np.abs(taps) ** 2
    # lexsort: primary key last -> descending power, then ascending index
    order = np.lexsort((np.arange(len(powers)), -powers))
    nonzero = order[powers[order] > 0.0]
    sel = nonzero[: min(l_sel, len(nonzero))]
    total = float(powers.sum())
    retained = float(powers[sel].sum())
    return SortedCir(indices=sel, amps=taps[sel],
                     total_power=total, retained_power=retained)


def path_gain_total(taps):
    """Coherent path gain 10*log10(|sum_k h[k]|^2) of a tap vector in dB;
    -inf if the sum is zero."""
    power = abs(np.sum(taps)) ** 2
    if power == 0.0:
        return float("-inf")
    return 10.0 * math.log10(power)
