"""Deterministic multipath snapshots: image-method specular paths off
planar facets, line of sight included as the path with no reflection.

Scenes are desk-scale: axis-aligned rectangular facets (:class:`Facet`), an
optional infinite ground plane and vertical walls.  Every path is
constructed exactly by mirroring the transmitter across the planes of its
facet sequence, walking the chain back from the receiver, and validating
bounds and occlusion per segment.  Each path carries the Friis free-space
amplitude over its total unfolded length times the product of Fresnel
reflection coefficients.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import InvalidInputError, SceneGeometryError
from .materials import (BUILTIN_MATERIALS, complex_permittivity,
                        evaluate_material, get_material)

GEOM_TOL = 1e-6  # m

TE = "TE"
TM = "TM"

MAX_REFLECTION_DEPTH = 5


def reflection_coefficient(props, incidence_angle, polarization):
    """Fresnel reflection coefficient for a half-space of the given material.

    ``incidence_angle`` is measured from the surface normal, 0 <= angle < pi/2.
    Both polarizations use the sign convention that makes them agree at
    normal incidence: Gamma(0) = (1 - sqrt(eta)) / (1 + sqrt(eta)).
    """
    if not 0.0 <= incidence_angle < math.pi / 2:
        raise InvalidInputError(
            f"incidence angle must be in [0, pi/2), got {incidence_angle}"
        )
    eta = complex_permittivity(props)
    cos_t = math.cos(incidence_angle)
    sin2 = math.sin(incidence_angle) ** 2
    root = cmath.sqrt(eta - sin2)
    if polarization == TE:
        return (cos_t - root) / (cos_t + root)
    if polarization == TM:
        return (root - eta * cos_t) / (root + eta * cos_t)
    raise InvalidInputError(f"polarization must be 'TE' or 'TM', got {polarization!r}")


# In-plane axes of a facet, in increasing order, by its plane axis.
_IN_PLANE = ((1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class Facet:
    """Axis-aligned planar rectangle: the plane ``p[axis] = value``.

    ``lo``/``hi`` bound the two in-plane axes ``_IN_PLANE[axis]``, in
    increasing axis order; the ground has infinite bounds.  Polarization
    follows the axis: TM off the horizontal ground (vertical field), TE off
    the vertical walls (horizontal field).
    """

    axis: int          # 0 -> plane x = value, 1 -> y = value, 2 -> z = value
    value: float
    lo: tuple
    hi: tuple
    material: str = "concrete"

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise SceneGeometryError(f"facet axis must be 0, 1 or 2, got {self.axis}")
        if any(high - low <= GEOM_TOL for low, high in zip(self.lo, self.hi)):
            raise SceneGeometryError("facet must have positive extent")

    @classmethod
    def ground(cls, height, material="concrete"):
        """Infinite horizontal plane z = height."""
        return cls(2, height, (-math.inf, -math.inf), (math.inf, math.inf), material)

    @classmethod
    def wall(cls, x1, y1, x2, y2, z_min, z_max, material):
        """Vertical rectangle over two ground-track endpoints; one coordinate
        must repeat."""
        if abs(x1 - x2) <= GEOM_TOL and abs(y1 - y2) > GEOM_TOL:
            return cls(0, x1, (min(y1, y2), z_min), (max(y1, y2), z_max), material)
        if abs(y1 - y2) <= GEOM_TOL and abs(x1 - x2) > GEOM_TOL:
            return cls(1, y1, (min(x1, x2), z_min), (max(x1, x2), z_max), material)
        raise SceneGeometryError(
            f"wall ({x1},{y1})-({x2},{y2}) is not axis-aligned"
        )

    @property
    def polarization(self):
        return TM if self.axis == 2 else TE

    def mirror(self, p):
        q = np.array(p, dtype=float)
        q[self.axis] = 2.0 * self.value - q[self.axis]
        return q

    def contains(self, p, tol=GEOM_TOL):
        return abs(p[self.axis] - self.value) <= tol and self.in_bounds(p, tol)

    def in_bounds(self, p, tol=GEOM_TOL):
        a, b = _IN_PLANE[self.axis]
        return (self.lo[0] - tol <= p[a] <= self.hi[0] + tol
                and self.lo[1] - tol <= p[b] <= self.hi[1] + tol)


@dataclass
class Scene:
    """Static propagation scene: facets plus a fixed transmitter."""

    facets: list
    tx_position: np.ndarray
    carrier_freq: float
    max_depth: int = 3
    materials: dict = field(default_factory=lambda: dict(BUILTIN_MATERIALS))

    def __post_init__(self):
        self.tx_position = np.asarray(self.tx_position, dtype=float)
        if self.carrier_freq <= 0.0:
            raise InvalidInputError("carrier frequency must be positive")
        if not 0 <= self.max_depth <= MAX_REFLECTION_DEPTH:
            raise InvalidInputError(
                f"max_depth must be in 0..{MAX_REFLECTION_DEPTH}, got {self.max_depth}"
            )
        if sum(f.axis == 2 for f in self.facets) > 1:
            raise SceneGeometryError("at most one ground plane per scene")
        for f in self.facets:
            get_material(f.material, self.materials)  # name must resolve
            if f.contains(self.tx_position, GEOM_TOL):
                raise SceneGeometryError(
                    f"tx position {tuple(self.tx_position)} lies on a facet"
                )

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_freq

    def facet_properties(self):
        """Per-facet EM properties at the carrier frequency."""
        return [
            evaluate_material(get_material(f.material, self.materials),
                              self.carrier_freq)
            for f in self.facets
        ]


@dataclass
class MobilityTrace:
    """Receiver positions sampled at a uniform interval."""

    interval: float
    positions: np.ndarray  # (N, 3)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if self.interval <= 0.0:
            raise InvalidInputError("trace interval must be positive")
        if len(self.positions) == 0:
            raise InvalidInputError("trace must contain at least one position")
        if np.any(self.positions[:, 2] <= 0.0):
            raise InvalidInputError("all trace heights must be positive")


@dataclass
class DelayProfile:
    """One snapshot's multipath set: complex voltage gains and delays."""

    amps: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        self.delays = np.asarray(self.delays, dtype=np.float64)
        if self.amps.shape != self.delays.shape:
            raise InvalidInputError("amps and delays must have equal length")
        if self.delays.size and (np.any(self.delays < 0.0)
                                 or not np.all(np.isfinite(self.delays))):
            raise InvalidInputError("delays must be finite and >= 0")

    @property
    def n_paths(self):
        return len(self.amps)


def _plane_param(p0, d, axis, value):
    """Segment parameter t where p0 + t*d crosses the coordinate plane."""
    denom = d[axis]
    if abs(denom) < 1e-15:
        return None
    return (value - p0[axis]) / denom


def _segment_blocked(facets, p0, p1):
    """True if any facet crosses the open interior of segment p0 -> p1.

    Crossings within GEOM_TOL of an endpoint do not block, which exempts the
    reflection points sitting on their own facets.
    """
    d = p1 - p0
    length = float(np.linalg.norm(d))
    if length < GEOM_TOL:
        return False
    eps = GEOM_TOL / length
    for facet in facets:
        t = _plane_param(p0, d, facet.axis, facet.value)
        if t is None or t <= eps or t >= 1.0 - eps:
            continue
        if facet.in_bounds(p0 + t * d):
            return True
    return False


def _reflection_sequences(n_facets, max_depth):
    """Facet index sequences with no facet twice in a row, by depth; depth 0
    is the empty sequence, the line-of-sight path."""
    for depth in range(max_depth + 1):
        for seq in itertools.product(range(n_facets), repeat=depth):
            if all(seq[i] != seq[i + 1] for i in range(depth - 1)):
                yield seq


def _walk_reflection_points(scene, seq, rx):
    """Reflection points for a facet sequence, or None if geometrically invalid."""
    images = []
    img = scene.tx_position
    for fi in seq:
        img = scene.facets[fi].mirror(img)
        images.append(img)
    points = []
    q = rx
    for fi, img in zip(reversed(seq), reversed(images)):
        facet = scene.facets[fi]
        d = img - q
        t = _plane_param(q, d, facet.axis, facet.value)
        if t is None or not GEOM_TOL < t < 1.0 - GEOM_TOL:
            return None
        p = q + t * d
        if not facet.in_bounds(p):
            return None
        points.append(p)
        q = p
    points.reverse()  # now ordered tx-side first
    return points


def trace_snapshot(scene, rx_position):
    """Compute the multipath delay profile for one receiver position.

    Returns one path per unobstructed specular route with at most
    ``scene.max_depth`` reflections, the LoS path (no reflection) included
    when clear.  The profile may be empty under total blockage.
    """
    rx = np.asarray(rx_position, dtype=float)
    if rx[2] <= 0.0:
        raise InvalidInputError(f"rx height must be positive, got {rx[2]}")
    tx = scene.tx_position
    if np.linalg.norm(rx - tx) < GEOM_TOL:
        raise InvalidInputError("rx position coincides with tx")
    for facet in scene.facets:
        if facet.contains(rx, GEOM_TOL):
            raise SceneGeometryError(f"rx position {tuple(rx)} lies on a facet")

    props = scene.facet_properties()
    lam = scene.wavelength
    found = []  # (delay, amplitude)
    for seq in _reflection_sequences(len(scene.facets), scene.max_depth):
        points = _walk_reflection_points(scene, seq, rx)
        if points is None:
            continue
        chain = [tx] + points + [rx]
        segments = list(zip(chain[:-1], chain[1:]))
        if any(np.linalg.norm(b - a) < GEOM_TOL for a, b in segments):
            continue  # degenerate corner hit
        if any(_segment_blocked(scene.facets, a, b) for a, b in segments):
            continue
        length = float(sum(np.linalg.norm(b - a) for a, b in segments))
        gamma = complex(1.0)
        for (a, b), fi in zip(segments, seq):
            facet = scene.facets[fi]
            d = (b - a) / np.linalg.norm(b - a)
            cos_t = min(abs(float(d[facet.axis])), 1.0)
            angle = math.acos(cos_t)
            gamma *= reflection_coefficient(props[fi], angle, facet.polarization)
        tau = length / SPEED_OF_LIGHT
        amp = (lam / (4.0 * math.pi * length) * gamma
               * cmath.exp(-2j * math.pi * scene.carrier_freq * tau))
        found.append((tau, amp))

    found.sort(key=lambda pa: (pa[0], -abs(pa[1])))
    amps = np.array([a for _, a in found], dtype=np.complex128)
    delays = np.array([t for t, _ in found], dtype=np.float64)
    return DelayProfile(amps=amps, delays=delays)


def trace_timeline(scene, trace):
    """One delay profile per trace position, in trace order."""
    profiles = []
    for i, pos in enumerate(trace.positions):
        try:
            profiles.append(trace_snapshot(scene, pos))
        except (InvalidInputError, SceneGeometryError) as exc:
            raise type(exc)(f"snapshot {i}: {exc}") from exc
    return profiles
