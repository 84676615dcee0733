"""5G NR link KPI arithmetic.

TDD symbol occupancy, single-layer bitrate ceilings, BLER-scaled effective
throughput, RMS delay spread, and the OFDM timing feasibility chain
(delay spread << guard interval << symbol duration << fading period).
"""

import math
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import InvalidInputError

SYMBOLS_PER_SLOT = 14

# Largest NR numerology, 960 kHz subcarrier spacing (TS 38.211 Table 4.2-1).
MAX_NUMEROLOGY = 6

DL = "dl"
UL = "ul"

# Defaults of the timing checks: ofdm_feasibility's "much less than" factor,
# the delay spread of one path, and cir_isi_check's significance floor.
FEASIBILITY_MARGIN = 10.0
NO_DELAY_SPREAD = 0.0  # s
ISI_POWER_FLOOR_DB = -40.0


@dataclass(frozen=True)
class TddPattern:
    """TDD slot pattern plus the special-slot symbol split."""

    slots: tuple             # e.g. ('D','D','D','S','U')
    special: tuple           # (dl_symbols, guard_symbols, ul_symbols)

    def __post_init__(self):
        if not self.slots:
            raise InvalidInputError("slot pattern must not be empty")
        bad = set(self.slots) - {"D", "S", "U"}
        if bad:
            raise InvalidInputError(f"slot pattern may contain only D/S/U, got {bad}")
        if len(self.special) != 3 or any(s < 0 for s in self.special):
            raise InvalidInputError("special format must be three nonnegative counts")
        if sum(self.special) != SYMBOLS_PER_SLOT:
            raise InvalidInputError(
                f"special slot symbols must sum to {SYMBOLS_PER_SLOT}, "
                f"got {sum(self.special)}"
            )

    @classmethod
    def parse(cls, pattern, special):
        """Build from strings like 'DDDSU' and '6,4,4'."""
        try:
            counts = tuple(int(s) for s in special.split(","))
        except ValueError:
            raise InvalidInputError(f"special counts must be integers, got {special!r}") from None
        return cls(tuple(pattern.upper()), counts)


def tdd_occupancy_exact(tdd):
    """(dl, ul, guard) symbol-time fractions as exact rationals."""
    n_slots = len(tdd.slots)
    total = SYMBOLS_PER_SLOT * n_slots
    n_special = tdd.slots.count("S")
    dl = SYMBOLS_PER_SLOT * tdd.slots.count("D") + n_special * tdd.special[0]
    ul = SYMBOLS_PER_SLOT * tdd.slots.count("U") + n_special * tdd.special[2]
    guard = n_special * tdd.special[1]
    return (Fraction(dl, total), Fraction(ul, total), Fraction(guard, total))


def tdd_occupancy(tdd):
    """(alpha_dl, alpha_ul) as floats; guard symbols count toward neither."""
    dl, ul, _ = tdd_occupancy_exact(tdd)
    return float(dl), float(ul)


def _half_up(value):
    if isinstance(value, Fraction):
        value = Decimal(value.numerator) / Decimal(value.denominator)
    return float(Decimal(value).quantize(Decimal("1e-4"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding row: spectral efficiency as listed (4 decimals)."""

    index: int
    q_m: int
    code_rate_x1024: float
    spectral_eff: float

    def __post_init__(self):
        listed = _half_up(Fraction(self.q_m) * Fraction(self.code_rate_x1024) / 1024)
        if abs(self.spectral_eff - listed) > 5e-5:
            raise InvalidInputError(
                f"MCS {self.index}: spectral efficiency {self.spectral_eff} "
                f"inconsistent with q_m * rate/1024 = {listed}"
            )


# TS 38.214 Table 5.1.3.1-2 (256QAM), indices 0..27.
MCS_TABLE_256QAM = tuple(
    McsEntry(i, qm, rate, eff)
    for i, (qm, rate, eff) in enumerate([
        (2, 120, 0.2344), (2, 193, 0.3770), (2, 308, 0.6016), (2, 449, 0.8770),
        (2, 602, 1.1758), (4, 378, 1.4766), (4, 434, 1.6953), (4, 490, 1.9141),
        (4, 553, 2.1602), (4, 616, 2.4063), (4, 658, 2.5703), (6, 466, 2.7305),
        (6, 517, 3.0293), (6, 567, 3.3223), (6, 616, 3.6094), (6, 666, 3.9023),
        (6, 719, 4.2129), (6, 772, 4.5234), (6, 822, 4.8164), (6, 873, 5.1152),
        (8, 682.5, 5.3320), (8, 711, 5.5547), (8, 754, 5.8906), (8, 797, 6.2266),
        (8, 841, 6.5703), (8, 885, 6.9141), (8, 916.5, 7.1602), (8, 948, 7.4063),
    ])
)


def mcs_lookup(index):
    """256QAM-table MCS entry for ``index`` in 0..27."""
    if not 0 <= index < len(MCS_TABLE_256QAM):
        raise InvalidInputError(
            f"MCS index must be in 0..{len(MCS_TABLE_256QAM) - 1}, got {index}"
        )
    return MCS_TABLE_256QAM[index]


@dataclass(frozen=True)
class LinkConfig:
    """NR numerology, bandwidth, TDD pattern, and per-direction overheads."""

    numerology_mu: int
    bandwidth: float       # Hz
    n_prb: int
    overhead_dl: float
    overhead_ul: float
    tdd: TddPattern
    fft_size: int
    f_samp: float          # samples/s
    carrier_freq: float    # Hz
    cp_long_samples: int = 132
    cp_short_samples: int = 106

    def __post_init__(self):
        if not 0 <= self.numerology_mu <= MAX_NUMEROLOGY:
            raise InvalidInputError(
                f"numerology_mu must be in 0..{MAX_NUMEROLOGY}, got {self.numerology_mu}")
        # an integer past the largest float overflows the first float product
        if not (1 <= self.n_prb <= sys.float_info.max
                and 1 <= self.fft_size <= sys.float_info.max):
            raise InvalidInputError(
                f"n_prb and fft_size must be >= 1 and at most the largest float, "
                f"got {self.n_prb} and {self.fft_size}")
        for oh in (self.overhead_dl, self.overhead_ul):
            if not 0.0 <= oh < 1.0:
                raise InvalidInputError(f"overhead must be in [0, 1), got {oh}")

    @property
    def avg_symbol_duration(self):
        """Average OFDM symbol duration over a 1 ms subframe, seconds."""
        return 1e-3 / (SYMBOLS_PER_SLOT * 2**self.numerology_mu)


# The paper's carrier, band n77 at 40 MHz: the CLI's defaults read it, and its
# TDD pattern in the text form that TddPattern.parse reads.
REFERENCE_PATTERN, REFERENCE_SPECIAL = "DDDSU", "6,4,4"
REFERENCE_CARRIER = LinkConfig(
    numerology_mu=1, bandwidth=40e6, n_prb=106, overhead_dl=0.14, overhead_ul=0.08,
    tdd=TddPattern.parse(REFERENCE_PATTERN, REFERENCE_SPECIAL),
    fft_size=1536, f_samp=46.08e6, carrier_freq=4.01916e9)


def _overhead(cfg, direction):
    d = direction.lower()
    if d == DL:
        return cfg.overhead_dl
    if d == UL:
        return cfg.overhead_ul
    raise InvalidInputError(f"direction must be 'dl' or 'ul', got {direction!r}")


def max_bitrate(cfg, mcs, direction):
    """Single-layer maximum bitrate in Mbps for one link direction.

    Raises :class:`InvalidInputError`, naming ``n_prb``, where the bitrate
    overflows a float.
    """
    subcarriers_per_sec = 12.0 * cfg.n_prb / cfg.avg_symbol_duration
    r_b = 1e-6 * mcs.spectral_eff * subcarriers_per_sec * (1.0 - _overhead(cfg, direction))
    if not math.isfinite(r_b):
        raise InvalidInputError(f"n_prb of {cfg.n_prb:.6g} overflows the bitrate")
    return r_b


def effective_throughput(cfg, mcs, bler, direction):
    """BLER- and TDD-occupancy-scaled throughput in Mbps."""
    if not 0.0 <= bler <= 1.0:
        raise InvalidInputError(f"BLER must be in [0, 1], got {bler}")
    dl, ul, _ = tdd_occupancy_exact(cfg.tdd)
    alpha = float(dl if direction.lower() == DL else ul)
    _overhead(cfg, direction)  # validates direction
    return (1.0 - bler) * alpha * max_bitrate(cfg, mcs, direction)


def _rms_spread(powers, delays, total):
    """Power-weighted RMS spread of ``delays``, given ``total = powers.sum()``."""
    mean = float(np.dot(powers, delays) / total)
    mean_sq = float(np.dot(powers, delays**2) / total)
    return math.sqrt(max(mean_sq - mean**2, 0.0))


def rms_delay_spread(profile):
    """Power-weighted RMS delay spread of a delay profile, seconds."""
    powers = np.abs(np.asarray(profile.amps)) ** 2
    total = powers.sum()
    if profile.n_paths == 0 or total <= 0.0:
        raise InvalidInputError("RMS delay spread undefined for zero-power profile")
    return _rms_spread(powers, np.asarray(profile.delays), total)


def cir_rms_delay_spread(taps, f_samp):
    """RMS delay spread of a tap vector, treating taps as paths at k/f_samp.

    The spread is taken in taps and then divided by ``f_samp``, so it stays
    finite wherever the grid ``len(taps) / f_samp`` is.  Returns NaN for an
    all-zero tap vector.
    """
    powers = np.abs(taps) ** 2
    total = powers.sum()
    if total <= 0.0:
        return float("nan")
    return _rms_spread(powers, np.arange(len(taps)), total) / f_samp


@dataclass(frozen=True)
class OfdmFeasibility:
    """Timing chain values and the three 'much less than' verdicts."""

    rms_delay_spread: float
    guard_interval: float
    symbol_duration: float
    fading_period: float
    doppler_freq: float
    isi_ok: bool        # rms delay spread << guard interval
    guard_ok: bool      # guard interval << symbol duration
    coherence_ok: bool  # symbol duration << fading period

    @property
    def all_ok(self):
        return self.isi_ok and self.guard_ok and self.coherence_ok


def ofdm_feasibility(cfg, sigma_tau, speed, margin=FEASIBILITY_MARGIN):
    """Evaluate the OFDM timing chain for a given delay spread and UE speed.

    Each 'much less than' is operationalized as left * margin <= right.
    Zero speed gives an infinite fading period (static channel), and so
    does a Doppler shift below the smallest float.  Raises
    :class:`InvalidInputError`, naming ``f_samp`` and ``fft_size``, where
    the guard interval or the symbol duration overflows a float, and,
    naming the speed and the carrier, where the Doppler shift does.
    """
    for name, value in (("speed", speed), ("sigma_tau", sigma_tau), ("margin", margin)):
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidInputError(f"{name} must be finite and >= 0, got {value}")
    t_gi = cfg.cp_short_samples / cfg.f_samp
    t_ofdm = cfg.fft_size / cfg.f_samp
    if not (math.isfinite(t_gi) and math.isfinite(t_ofdm)):
        raise InvalidInputError(f"f_samp of {cfg.f_samp} Hz with fft_size "
                                f"{cfg.fft_size} overflows the OFDM symbol timing")
    # + 0.0 turns an input of -0 into 0: -0 m/s is at rest, with no Doppler shift
    sigma_tau, speed = sigma_tau + 0.0, speed + 0.0
    f_d = cfg.carrier_freq * speed / SPEED_OF_LIGHT
    if not math.isfinite(f_d):
        raise InvalidInputError(f"speed of {speed:.6g} m/s at carrier {cfg.carrier_freq:.6g} "
                                f"Hz overflows the Doppler frequency")
    t_f = 1.0 / f_d if f_d > 0.0 else math.inf
    return OfdmFeasibility(
        rms_delay_spread=sigma_tau,
        guard_interval=t_gi,
        symbol_duration=t_ofdm,
        fading_period=t_f,
        doppler_freq=f_d,
        isi_ok=sigma_tau * margin <= t_gi,
        guard_ok=t_gi * margin <= t_ofdm,
        coherence_ok=t_ofdm * margin <= t_f,
    )


@dataclass(frozen=True)
class IsiCheckResult:
    """Verdict of the CP-exceedance check plus any offending tap indices."""

    ok: bool
    offending_indices: tuple

    def __bool__(self):
        return self.ok


def cir_isi_check(taps, cfg):
    """True iff no significant tap lies beyond the short-CP sample count.

    A tap is significant when its power is within ISI_POWER_FLOOR_DB of the
    strongest tap.
    """
    powers = np.abs(np.asarray(taps)) ** 2
    peak = powers.max() if len(powers) else 0.0
    if peak <= 0.0:
        return IsiCheckResult(True, ())
    floor = peak * 10.0 ** (ISI_POWER_FLOOR_DB / 10.0)
    ks = np.nonzero(powers >= floor)[0]
    offending = tuple(int(k) for k in ks if k > cfg.cp_short_samples)
    return IsiCheckResult(not offending, offending)
