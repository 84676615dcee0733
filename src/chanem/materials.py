"""Frequency-dependent electromagnetic material properties.

Materials follow the ITU-R power-law model: the real relative permittivity
is eps_r = a * (f/1e9)**b and the conductivity is sigma_c = c * (f/1e9)**d
with f in Hz.  The GHz scaling lives only inside :func:`evaluate_material`;
everything else in the package works in Hz.
"""

import math
from dataclasses import dataclass

from .constants import VACUUM_PERMITTIVITY
from .errors import InvalidInputError


@dataclass(frozen=True)
class MaterialSpec:
    """Power-law coefficients for one material class."""

    name: str
    a: float
    b: float
    c: float  # S/m coefficient
    d: float

    def __post_init__(self):
        if self.a < 1.0:
            raise InvalidInputError(
                f"material {self.name!r}: permittivity coefficient a={self.a} must be >= 1"
            )
        if self.c < 0.0:
            raise InvalidInputError(
                f"material {self.name!r}: conductivity coefficient c={self.c} must be >= 0"
            )


@dataclass(frozen=True)
class EmProperties:
    """Evaluated material properties at one frequency."""

    eps_r: float       # real relative permittivity
    sigma_c: float     # conductivity, S/m
    freq: float        # Hz

    def __post_init__(self):
        # written as ranges so that NaN fails them too
        if not (1.0 <= self.eps_r < math.inf and 0.0 <= self.sigma_c < math.inf
                and 0.0 < self.freq < math.inf):
            raise InvalidInputError(
                f"invalid EM properties: eps_r={self.eps_r}, "
                f"sigma_c={self.sigma_c}, freq={self.freq}"
            )


def _power_law(coeff, f_ghz, exponent):
    """``coeff * f_ghz**exponent``, or inf where the power overflows a float."""
    try:
        return coeff * f_ghz**exponent
    except (OverflowError, ZeroDivisionError):  # 0.0 ** -x raises the latter
        return math.inf


def evaluate_material(spec, freq_hz):
    """Evaluate a material's permittivity and conductivity at ``freq_hz``.

    Raises :class:`InvalidInputError`, naming the material and the
    frequency, where either power law gives no finite value in range.
    """
    if not (math.isfinite(freq_hz) and freq_hz > 0.0):
        raise InvalidInputError(f"frequency must be finite and positive, got {freq_hz}")
    f_ghz = freq_hz * 1e-9
    try:
        return EmProperties(eps_r=_power_law(spec.a, f_ghz, spec.b),
                            sigma_c=_power_law(spec.c, f_ghz, spec.d), freq=freq_hz)
    except InvalidInputError as exc:
        raise InvalidInputError(f"material {spec.name!r}: {exc}") from None


def complex_permittivity(props):
    """Complex relative permittivity eps_r - j*sigma_c/(2*pi*f*eps0).

    Raises :class:`InvalidInputError`, naming the conductivity and the
    frequency, where the loss term is not finite: where it overflows, or
    where its denominator underflows to 0.
    """
    denom = 2.0 * math.pi * props.freq * VACUUM_PERMITTIVITY  # 0.0 where it underflows
    loss = props.sigma_c / denom if denom else math.inf
    if not math.isfinite(loss):
        raise InvalidInputError(f"invalid EM properties: loss term sigma_c/(2 pi f eps0) "
                                f"is not finite at sigma_c={props.sigma_c}, freq={props.freq}")
    return complex(props.eps_r, -loss)


# Built-in registry: the four ITU-R material classes used by the scene files.
BUILTIN_MATERIALS = {
    m.name: m
    for m in (
        MaterialSpec("vacuum", 1.0, 0.0, 0.0, 0.0),
        MaterialSpec("concrete", 5.24, 0.0, 0.0462, 0.7822),
        MaterialSpec("glass", 6.31, 0.0, 0.0036, 1.3394),
        MaterialSpec("metal", 1.0, 0.0, 1e7, 0.0),
    )
}


def get_material(name, registry=None):
    """Look up a material by name in ``registry`` (defaults to built-ins)."""
    table = BUILTIN_MATERIALS if registry is None else registry
    try:
        return table[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown material {name!r}; known: {', '.join(sorted(table))}"
        ) from None
