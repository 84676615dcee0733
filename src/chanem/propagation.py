"""Deterministic multipath snapshots: image-method specular paths off
planar facets, line of sight included as the path with no reflection.

Scenes are desk-scale: axis-aligned rectangular facets (:class:`Facet`), an
optional infinite ground plane and vertical walls.  Every path is
constructed exactly by mirroring the transmitter across the planes of its
facet sequence, walking the chain back from the receiver, and validating
bounds and occlusion per segment.  The images depend only on the sequence,
so each scene computes them once, as an image tree of arrays; each receiver
then walks back every sequence at once in numpy and tests the survivors'
segments against every facet in one step.  Each path carries the
Friis free-space amplitude over its total unfolded length times the product
of Fresnel reflection coefficients, computed path by path.
"""

import cmath
import math
import numbers
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

# Cap on a scene's image-tree nodes, checked before the tree is sized: at
# 40 B per node (facet, parent, image) it allows 42 MB.  Block13's 13 facets
# take 294,074 nodes at depth 5; 16 facets fit at depth 5, 101 at depth 3.
MAX_IMAGE_NODES = 1 << 20


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


def check_depth(depth):
    """Raise :class:`InvalidInputError` unless ``depth`` is an integer
    reflection depth in 0..MAX_REFLECTION_DEPTH."""
    if (isinstance(depth, bool) or not isinstance(depth, numbers.Integral)
            or not 0 <= depth <= MAX_REFLECTION_DEPTH):
        raise InvalidInputError(
            f"max_depth must be in 0..{MAX_REFLECTION_DEPTH}, got {depth!r}")


def image_tree_sizes(n_facets, depth):
    """Node counts of the image tree of ``n_facets`` facets at depths
    0..``depth``: the root, then n * (n - 1)**(d - 1) sequences of depth d.
    Raises :class:`InvalidInputError` when they sum above MAX_IMAGE_NODES."""
    sizes = [1] + [n_facets * (n_facets - 1) ** (d - 1) for d in range(1, depth + 1)]
    if sum(sizes) > MAX_IMAGE_NODES:
        raise InvalidInputError(
            f"{n_facets} facets at max_depth {depth} give {sum(sizes)} image-tree "
            f"nodes, above the {MAX_IMAGE_NODES}-node limit")
    return sizes


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
        if not math.isfinite(self.value):
            raise SceneGeometryError(f"facet plane must be finite, got {self.value}")
        # also false for a NaN bound, and for inf - inf
        if not all(high - low > GEOM_TOL for low, high in zip(self.lo, self.hi)):
            raise SceneGeometryError(
                f"facet must have positive extent and no NaN bound, got {self.lo}-{self.hi}")

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

    def contains(self, p):
        return abs(p[self.axis] - self.value) <= GEOM_TOL and self.in_bounds(p)

    def in_bounds(self, p):
        a, b = _IN_PLANE[self.axis]
        return (self.lo[0] - GEOM_TOL <= p[a] <= self.hi[0] + GEOM_TOL
                and self.lo[1] - GEOM_TOL <= p[b] <= self.hi[1] + GEOM_TOL)


@dataclass
class Scene:
    """Static propagation scene: facets plus a fixed transmitter.

    The first trace builds the scene's image tree and evaluates its
    materials; both are kept until a field they depend on changes.  An
    edited scene is checked again, as at construction, before its tree is
    rebuilt.
    """

    facets: list
    tx_position: np.ndarray
    carrier_freq: float
    max_depth: int = 3
    materials: dict = field(default_factory=lambda: dict(BUILTIN_MATERIALS))
    _tree: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.check()

    def check(self):
        """Raise unless the scene is one that ``Scene(...)`` accepts."""
        self.tx_position = np.asarray(self.tx_position, dtype=float)
        if not (math.isfinite(self.carrier_freq) and self.carrier_freq > 0.0):
            raise InvalidInputError(
                f"carrier frequency must be finite and positive, got {self.carrier_freq}")
        if not np.all(np.isfinite(self.tx_position)):
            raise InvalidInputError(
                f"tx position must be finite, got {self.tx_position.tolist()}")
        check_depth(self.max_depth)
        image_tree_sizes(len(self.facets), self.max_depth)
        if sum(f.axis == 2 for f in self.facets) > 1:
            raise SceneGeometryError("at most one ground plane per scene")
        for f in self.facets:
            get_material(f.material, self.materials)  # name must resolve
            if f.contains(self.tx_position):
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
        if not (math.isfinite(self.interval) and self.interval > 0.0):
            raise InvalidInputError(
                f"trace interval must be finite and positive, got {self.interval}")
        if len(self.positions) == 0:
            raise InvalidInputError("trace must contain at least one position")
        bad = np.flatnonzero(~np.isfinite(self.positions).all(axis=1))
        if len(bad):
            raise InvalidInputError(
                f"trace position {bad[0]} must be finite, got {self.positions[bad[0]].tolist()}")
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


# Sequences walked back at once: bounds the walk's temporaries to a few MB
# at any depth (depth 5 over 13 facets has 294,073 sequences).
_WALK_CHUNK = 1 << 14


@dataclass(frozen=True)
class _ImageTree:
    """One scene's image-method data, built once (Allen & Berkley, 1979).

    The facet table is the facets' (axis, value, bounds) rows as arrays, the
    bounds already widened by GEOM_TOL.  Each node is one facet sequence
    with no facet twice in a row: ``facet[i]`` is its last facet,
    ``parent[i]`` the node it extends and ``image[i]`` the transmitter
    mirrored across its facets' planes, in order.  Node 0 is the root, the
    empty sequence of line of sight.  Nodes are ordered by depth, then
    lexicographically; those of depth d are ``start[d]:start[d + 1]``.
    """

    key: tuple
    axis: np.ndarray     # (n_f,) facet table
    value: np.ndarray
    plane: np.ndarray    # (n_f, 2) in-plane axes
    lo: np.ndarray       # (n_f, 2) lower bounds - GEOM_TOL
    hi: np.ndarray       # (n_f, 2) upper bounds + GEOM_TOL
    props: list          # EmProperties per facet at the carrier
    start: np.ndarray    # (max_depth + 2,) first node of each depth, then the count
    facet: np.ndarray    # (n_nodes,) last facet, -1 at the root
    parent: np.ndarray   # (n_nodes,) -1 at the root
    image: np.ndarray    # (n_nodes, 3)


def _image_tree(scene):
    """The scene's image tree, built on first use and rebuilt only when a
    field it depends on has changed."""
    key = (tuple(scene.facets), np.asarray(scene.tx_position, dtype=float).tobytes(),
           scene.max_depth, scene.carrier_freq, tuple(scene.materials.items()))
    if scene._tree is None or scene._tree.key != key:
        scene.check()
        scene._tree = _build_image_tree(scene, key)
    return scene._tree


def _build_image_tree(scene, key):
    facets = scene.facets
    n = len(facets)
    sizes = image_tree_sizes(n, scene.max_depth)
    axis = np.array([f.axis for f in facets], dtype=np.intp)
    value = np.array([f.value for f in facets], dtype=float)
    start = np.cumsum([0] + sizes)
    facet = np.full(start[-1], -1, dtype=np.intp)
    parent = np.full(start[-1], -1, dtype=np.intp)
    image = np.empty((start[-1], 3))
    image[0] = scene.tx_position
    for d in range(1, scene.max_depth + 1):
        up = np.repeat(np.arange(start[d - 1], start[d]), n)
        fi = np.tile(np.arange(n), sizes[d - 1])
        keep = fi != facet[up]
        up, fi = up[keep], fi[keep]
        nodes = slice(start[d], start[d + 1])
        facet[nodes], parent[nodes] = fi, up
        np.take(image, up, axis=0, out=image[nodes])
        flat = image.reshape(-1)
        at = np.arange(start[d], start[d + 1]) * 3 + axis[fi]
        flat[at] = 2.0 * value[fi] - flat[at]
    return _ImageTree(
        key=key, axis=axis, value=value,
        plane=np.array([_IN_PLANE[a] for a in axis], dtype=np.intp).reshape(n, 2),
        lo=np.array([f.lo for f in facets], dtype=float).reshape(n, 2) - GEOM_TOL,
        hi=np.array([f.hi for f in facets], dtype=float).reshape(n, 2) + GEOM_TOL,
        props=scene.facet_properties(), start=start, facet=facet, parent=parent,
        image=image)


def _crossings(tree, f, p0, d):
    """Where each line ``p0 + s * d`` crosses the plane of facet ``f``, row
    by row: the parameter ``s``, the crossing point, and whether that point
    lies within the facet's bounds.  A line within 1e-15 of parallel to the
    plane crosses nowhere."""
    rows = np.arange(len(f))
    ax = tree.axis[f]
    denom = d[rows, ax]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (tree.value[f] - p0[rows, ax]) / denom
        p = p0 + s[:, None] * d
    inside = _inside(tree.lo[f], tree.hi[f], denom,
                     p[rows, tree.plane[f, 0]], p[rows, tree.plane[f, 1]])
    return s, p, inside


def _inside(lo, hi, denom, u, v):
    """Whether in-plane coordinates (u, v) lie within facet bounds (lo, hi),
    for a line not parallel to the plane (``|denom| >= 1e-15``)."""
    return ((np.abs(denom) >= 1e-15) & (lo[..., 0] <= u) & (u <= hi[..., 0])
            & (lo[..., 1] <= v) & (v <= hi[..., 1]))


def _walk_back(tree, rx):
    """Reflection chains from ``rx`` for every sequence in the tree.

    Walks from the receiver towards each sequence's image, then parent by
    parent to the root, over up to _WALK_CHUNK sequences at once.  A
    sequence drops out at the first facet whose plane the ray toward the
    image does not cross inside the (GEOM_TOL, 1 - GEOM_TOL) window of its
    parameter, or crosses out of the facet's bounds.  Returns the
    survivors' depths (n,), facets (n, max_depth) and reflection points
    (n, max_depth, 3), in node order; row i holds its first depth[i] facets
    and points, tx side first, and zeros after them.
    """
    max_depth = len(tree.start) - 2
    out = []
    for first in range(0, tree.start[-1], _WALK_CHUNK):
        at = np.arange(first, min(first + _WALK_CHUNK, tree.start[-1]))
        depth = np.searchsorted(tree.start, at, side="right") - 1
        q = np.tile(rx, (len(at), 1))
        fac = np.zeros((len(at), max_depth), dtype=np.intp)
        pts = np.zeros((len(at), max_depth, 3))
        for k in range(1, max_depth + 1):
            # rows stay in depth order, so those from a on have a k-th
            # reflection counted back from rx; ``at`` is each row's node
            a = np.searchsorted(depth, k)
            f = tree.facet[at[a:]]
            t, p, inside = _crossings(tree, f, q[a:], tree.image[at[a:]] - q[a:])
            rows = np.arange(a, len(at))
            fac[rows, depth[a:] - k], pts[rows, depth[a:] - k] = f, p
            ok = np.ones(len(at), dtype=bool)
            ok[a:] = inside & (t > GEOM_TOL) & (t < 1.0 - GEOM_TOL)
            q[a:], at[a:] = p, tree.parent[at[a:]]
            at, depth, q, fac, pts = (x[ok] for x in (at, depth, q, fac, pts))
        out.append((depth, fac, pts))
    return [np.concatenate(x) for x in zip(*out)]


def _blocked(tree, starts, steps, lengths):
    """Whether any facet crosses each segment ``start + s * step`` in its
    open interior, ``GEOM_TOL / length < s < 1 - GEOM_TOL / length``, within
    its bounds; the exemption near the ends spares the reflection points
    sitting on their own facets.  Takes (m, 3) starts and steps and (m,)
    lengths; returns (m,)."""
    eps = GEOM_TOL / lengths[:, None]
    denom = steps[:, tree.axis]                # every segment against every facet
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (tree.value - starts[:, tree.axis]) / denom
        u = starts[:, tree.plane[:, 0]] + s * steps[:, tree.plane[:, 0]]
        v = starts[:, tree.plane[:, 1]] + s * steps[:, tree.plane[:, 1]]
    hit = _inside(tree.lo, tree.hi, denom, u, v) & (s > eps) & (s < 1.0 - eps)
    return hit.any(axis=1)


def trace_snapshot(scene, rx_position):
    """Compute the multipath delay profile for one receiver position.

    Returns one path per unobstructed specular route with at most
    ``scene.max_depth`` reflections, the LoS path (no reflection) included
    when clear.  The profile may be empty under total blockage.
    """
    rx = np.asarray(rx_position, dtype=float)
    if not np.all(np.isfinite(rx)):
        raise InvalidInputError(f"rx position must be finite, got {rx.tolist()}")
    if rx[2] <= 0.0:
        raise InvalidInputError(f"rx height must be positive, got {rx[2]}")
    tx = scene.tx_position
    if np.linalg.norm(rx - tx) < GEOM_TOL:
        raise InvalidInputError("rx position coincides with tx")
    for facet in scene.facets:
        if facet.contains(rx):
            raise SceneGeometryError(f"rx position {tuple(rx)} lies on a facet")

    tree = _image_tree(scene)
    depth, seqs, points = _walk_back(tree, rx)
    n, max_depth = points.shape[:2]
    # row i's chain is tx, its depth[i] points, rx; its segment k is real
    # for k <= depth[i]
    chain = np.empty((n, max_depth + 2, 3))
    chain[:, 0], chain[:, 1:-1], chain[:, -1] = tx, points, rx
    chain[np.arange(n), depth + 1] = rx
    steps = chain[:, 1:] - chain[:, :-1]
    real = np.arange(max_depth + 1) <= depth[:, None]
    # one norm per 3-vector, as a path's length is summed below
    lengths = np.zeros(real.shape)
    lengths[real] = [np.linalg.norm(s) for s in steps[real]]
    clear = ~np.any(real & (lengths < GEOM_TOL), axis=1)  # else a degenerate corner hit
    seg = real & clear[:, None]
    blocked = np.zeros(real.shape, dtype=bool)
    blocked[seg] = _blocked(tree, chain[:, :-1][seg], steps[seg], lengths[seg])
    clear &= ~blocked.any(axis=1)

    lam = scene.wavelength
    found = []  # (delay, amplitude)
    for i in np.flatnonzero(clear):
        length = float(sum(lengths[i, :depth[i] + 1]))
        gamma = complex(1.0)
        for k, fi in enumerate(seqs[i, :depth[i]]):
            facet = scene.facets[fi]
            cos_t = min(abs(float(steps[i, k, facet.axis] / lengths[i, k])), 1.0)
            gamma *= reflection_coefficient(tree.props[fi], math.acos(cos_t),
                                            facet.polarization)
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
