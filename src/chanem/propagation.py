"""Deterministic multipath snapshots: image-method specular paths off
planar facets, line of sight included as the path with no reflection.

Scenes are desk-scale: axis-aligned rectangular facets (:class:`Facet`), an
optional infinite ground plane and vertical walls.  Every path is
constructed exactly by mirroring the transmitter across the planes of its
facet sequence, walking the chain back from the receiver, and validating
bounds and occlusion per segment.  The images depend only on the sequence,
so each scene computes them once, as an image tree of arrays; each receiver
then walks back every sequence at once in numpy and tests the survivors'
segments against every facet in one step.  A :class:`Scene` is a frozen
value, checked at construction, so its tree never goes stale: an edited
scene is a new one, built by ``dataclasses.replace``, checked again and
given its own tree.  Each path carries the
Friis free-space amplitude over its total unfolded length times the product
of Fresnel reflection coefficients, computed for all of a receiver's paths
at once.  Lengths, and so delays, are summed segment by segment from
norms taken as ``np.linalg.norm`` takes them, so they equal a path-by-path
loop's bit for bit; amplitudes agree with that loop to about 1e-15
relative (at most 8.4e-16 on block13's 360 stored receivers).
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import InvalidInputError
from .materials import (BUILTIN_MATERIALS, complex_permittivity,
                        evaluate_material, get_material)

GEOM_TOL = 1e-6  # m

TE = "TE"
TM = "TM"

MAX_REFLECTION_DEPTH = 5

# Cap on a scene's image-tree nodes, checked before the tree is sized: at
# 32 B per node (int32 facet and parent, float64 image) it allows 34 MB.
# Block13's 13 facets take 294,074 nodes (9.4 MB) at depth 5; 16 facets fit
# at depth 5, 101 at depth 3.
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
    if polarization not in (TE, TM):
        raise InvalidInputError(f"polarization must be 'TE' or 'TM', got {polarization!r}")
    return complex(_fresnel(complex_permittivity(props), incidence_angle, polarization == TM))


def _fresnel(eta, incidence_angle, tm):
    """Fresnel reflection coefficients off half-spaces of complex
    permittivity ``eta``: TM where ``tm``, TE elsewhere; elementwise."""
    cos_t = np.cos(incidence_angle)
    root = np.sqrt(eta - np.square(np.sin(incidence_angle)))
    # TE: (cos - root) / (cos + root); TM: (root - eta cos) / (root + eta cos)
    a, b = np.where(tm, root, cos_t), np.where(tm, eta * cos_t, root)
    return (a - b) / (a + b)


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
            raise InvalidInputError(f"facet axis must be 0, 1 or 2, got {self.axis}")
        if not math.isfinite(self.value):
            raise InvalidInputError(f"facet plane must be finite, got {self.value}")
        # also false for a NaN bound, and for inf - inf
        if not all(high - low > GEOM_TOL for low, high in zip(self.lo, self.hi)):
            raise InvalidInputError(
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
        raise InvalidInputError(
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


@dataclass(frozen=True)
class _ImageTree:
    """One scene's image-method data, built once (Allen & Berkley, 1979).

    The facet table holds, per facet, its ``frame`` (rows: plane axis, then
    its two in-plane axes), its ``box`` (rows: plane value, lower bounds on
    the in-plane axes, upper bounds on them; the bounds widened by
    GEOM_TOL), its complex permittivity ``eta`` at the carrier and whether
    it reflects ``tm``.  Each node is one facet sequence with no facet
    twice in a row: ``facet[i]`` is its last facet, ``parent[i]`` the node
    it extends and ``image[:, i]`` the transmitter mirrored across its
    facets' planes, in order.  Node 0 is the root, the empty sequence of
    line of sight.  Nodes are ordered by depth, then lexicographically;
    those of depth d are ``start[d]:start[d + 1]``.
    """

    frame: np.ndarray    # (3, n_f) facet table
    box: np.ndarray      # (5, n_f)
    eta: np.ndarray      # (n_f,) complex
    tm: np.ndarray       # (n_f,) bool
    start: np.ndarray    # (max_depth + 2,) first node of each depth, then the count
    facet: np.ndarray    # (n_nodes,) last facet, -1 at the root
    parent: np.ndarray   # (n_nodes,) -1 at the root
    image: np.ndarray    # (3, n_nodes)


def _permittivity(facet, props):
    """``complex_permittivity(props)``, naming ``facet``'s material in its error."""
    try:
        return complex_permittivity(props)
    except InvalidInputError as exc:
        raise InvalidInputError(f"material {facet.material!r}: {exc}") from None


def _build_image_tree(scene):
    facets = scene.facets
    n = len(facets)
    sizes = image_tree_sizes(n, scene.max_depth)
    frame = np.array([(f.axis, *_IN_PLANE[f.axis]) for f in facets],
                     dtype=np.intp).reshape(n, 3).T
    box = np.array([(f.value, *f.lo, *f.hi) for f in facets], dtype=float).reshape(n, 5).T
    box[1:3] -= GEOM_TOL
    box[3:5] += GEOM_TOL
    start = np.cumsum([0] + sizes)
    facet = np.full(start[-1], -1, dtype=np.int32)
    parent = np.full(start[-1], -1, dtype=np.int32)
    image = np.empty((3, start[-1]))
    image[:, 0] = scene.tx_position
    for d in range(1, scene.max_depth + 1):
        up = np.repeat(np.arange(start[d - 1], start[d]), n)
        fi = np.tile(np.arange(n), sizes[d - 1])
        keep = fi != facet[up]
        up, fi = up[keep], fi[keep]
        nodes = slice(start[d], start[d + 1])
        facet[nodes], parent[nodes] = fi, up
        np.take(image, up, axis=1, out=image[:, nodes])
        flat = image.reshape(-1)
        at = frame[0, fi] * start[-1] + np.arange(start[d], start[d + 1])
        with np.errstate(over="ignore"):  # a far plane's image is named below
            flat[at] = 2.0 * box[0, fi] - flat[at]
    far = np.flatnonzero(~np.isfinite(image).all(axis=0))
    if far.size:
        f = facets[facet[far[0]]]
        raise InvalidInputError(
            f"the image of tx across facet {facet[far[0]]} (plane {'xyz'[f.axis]} = "
            f"{f.value:.6g}) is not finite")
    return _ImageTree(
        frame=np.ascontiguousarray(frame), box=np.ascontiguousarray(box),
        eta=np.array([_permittivity(f, p) for f, p in zip(facets, scene.facet_properties())],
                     dtype=complex),
        tm=np.array([f.polarization == TM for f in facets], dtype=bool),
        start=start, facet=facet, parent=parent, image=image)


@dataclass(frozen=True)
class Scene:
    """Static propagation scene: facets plus a fixed transmitter.

    A scene is a value, checked once at construction: its facets become a
    tuple, its transmitter a tuple of floats and its materials a read-only
    copy, so it cannot be edited in place, and scenes built from equal
    arguments compare and hash equal.  ``dataclasses.replace`` builds
    an edited scene, checked as ``Scene(...)`` checks one, with its own
    image tree.  The first trace builds the tree and evaluates the
    materials, and the scene keeps both.
    """

    facets: tuple
    tx_position: tuple
    carrier_freq: float
    max_depth: int = 3
    # a mapping proxy cannot be hashed; == still compares it
    materials: MappingProxyType = field(default_factory=lambda: BUILTIN_MATERIALS,
                                        hash=False)

    def __post_init__(self):
        tx = tuple(map(float, self.tx_position))
        object.__setattr__(self, "tx_position", tx)
        object.__setattr__(self, "facets", tuple(self.facets))
        object.__setattr__(self, "materials", MappingProxyType(dict(self.materials)))
        f = self.carrier_freq
        if not (math.isfinite(f) and f > 0.0 and math.isfinite(SPEED_OF_LIGHT / f)
                and math.isfinite(2.0 * math.pi * f)):
            raise InvalidInputError(
                f"carrier frequency must be finite and positive, with a finite "
                f"wavelength and angular frequency, got {f}")
        if len(tx) != 3:
            raise InvalidInputError(f"tx position must have 3 coordinates, got {len(tx)}")
        if not all(map(math.isfinite, tx)):
            raise InvalidInputError(f"tx position must be finite, got {list(tx)}")
        check_depth(self.max_depth)
        image_tree_sizes(len(self.facets), self.max_depth)
        if sum(f.axis == 2 for f in self.facets) > 1:
            raise InvalidInputError("at most one ground plane per scene")
        for f in self.facets:
            get_material(f.material, self.materials)  # name must resolve
            if f.contains(tx):
                raise InvalidInputError(f"tx position {tx} lies on a facet")

    # the scene's image tree, built on the first trace
    _tree = cached_property(_build_image_tree)

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
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise InvalidInputError(
                f"trace positions must have shape (N, 3), got {self.positions.shape}")
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
        if self.amps.ndim != 1 or self.amps.shape != self.delays.shape:
            raise InvalidInputError(f"amps and delays must be 1-D of equal length, got "
                                    f"shapes {self.amps.shape} and {self.delays.shape}")
        if self.delays.size and (np.any(self.delays < 0.0)
                                 or not np.all(np.isfinite(self.delays))):
            raise InvalidInputError("delays must be finite and >= 0")


# Sequences walked back at once: bounds the walk's temporaries to a few MB
# at any depth (depth 5 over 13 facets has 294,073 sequences).
_WALK_CHUNK = 1 << 14


def _inside(box, denom, uv):
    """Whether in-plane coordinates ``uv`` (rows u, v) lie within facet
    bounds ``box`` (rows as in the facet table), on a line not parallel to
    the plane (``|denom| >= 1e-15``)."""
    inside = (box[1:3] <= uv) & (uv <= box[3:5])
    return inside[0] & inside[1] & (np.abs(denom) >= 1e-15)


def _cross(tree, f, q, image):
    """Where each line from ``q`` toward ``image`` (columns of (3, m)
    arrays) crosses the plane of its facet ``f``: the crossing points, and
    whether each lies in the facet's bounds at a parameter s in
    (GEOM_TOL, 1 - GEOM_TOL).  A line within 1e-15 of parallel to the plane
    crosses nowhere."""
    frame = tree.frame.take(f, axis=1) * len(f) + np.arange(len(f))
    box = tree.box.take(f, axis=1)
    d = image - q
    denom = d.take(frame[0])
    s = (box[0] - q.take(frame[0])) / denom
    p = q + s * d
    return p, _inside(box, denom, p.take(frame[1:])) & (s > GEOM_TOL) & (s < 1.0 - GEOM_TOL)


def _walk_back(tree, rx):
    """Reflection chains from ``rx`` for every sequence in the tree.

    Walks from the receiver towards each sequence's image, then parent by
    parent to the root, over up to _WALK_CHUNK sequences at once.  A
    sequence drops out at the first facet whose plane the ray toward the
    image does not cross inside the (GEOM_TOL, 1 - GEOM_TOL) window of its
    parameter, or crosses out of the facet's bounds.  Returns the
    survivors' depths (n,), facets (max_depth, n) and reflection points
    (max_depth, 3, n) in node order, rx side first: path i's first
    depth[i] entries are set.
    """
    max_depth = len(tree.start) - 2
    n_nodes = tree.start[-1]
    done = []
    for first in range(0, n_nodes, _WALK_CHUNK):
        last = min(first + _WALK_CHUNK, n_nodes)
        node = np.arange(first, last)  # each row's node: what is left to walk back
        fac = np.empty((max_depth, last - first), dtype=tree.facet.dtype)
        pts = np.empty((max_depth, 3, last - first))
        q = np.empty((3, last - first))
        q[:] = rx[:, None]
        for k in range(max_depth + 1):
            # rows stay in node order, so those walked back to the root
            # lead: they are done, after k reflections (copied, as a view
            # would keep the chunk's arrays alive)
            a = node.searchsorted(1)
            if a:
                done.append((k, fac[:, :a].copy(), pts[:, :, :a].copy()))
            node, fac, pts, q = node[a:], fac[:, a:], pts[:, :, a:], q[:, a:]
            if k == max_depth or not len(node):
                break
            if k:
                f, image = tree.facet.take(node), tree.image.take(node, axis=1)
            else:  # the chunk's own nodes
                f, image = tree.facet[first + a:last], tree.image[:, first + a:last]
            p, ok = _cross(tree, f, q, image)
            fac[k], pts[k] = f, p
            keep = ok.nonzero()[0]
            node = tree.parent.take(node.take(keep))
            fac, pts = fac.take(keep, axis=1), pts.take(keep, axis=2)
            q = pts[k]
    return (np.repeat([k for k, _, _ in done], [x.shape[1] for _, x, _ in done]),
            np.concatenate([x for _, x, _ in done], axis=1),
            np.concatenate([x for _, _, x in done], axis=2))


def _blocked(tree, starts, steps, lengths):
    """Whether any facet crosses each segment ``start + s * step`` in its
    open interior, ``GEOM_TOL / length < s < 1 - GEOM_TOL / length``, within
    its bounds; the exemption near the ends spares the reflection points
    sitting on their own facets.  Takes (3, m) starts and steps and (m,)
    lengths; returns (m,)."""
    # (3, n_f, m): every facet against every segment, in the facet's frame
    starts, steps = starts.take(tree.frame, axis=0), steps.take(tree.frame, axis=0)
    box = tree.box[..., None]
    s = (box[0] - starts[0]) / steps[0]
    eps = GEOM_TOL / lengths
    hit = _inside(box, steps[0], starts[1:] + s * steps[1:]) & (s > eps) & (s < 1.0 - eps)
    return hit.any(axis=0)


def trace_snapshot(scene, rx_position):
    """Compute the multipath delay profile for one receiver position.

    Returns one path per unobstructed specular route with at most
    ``scene.max_depth`` reflections, the LoS path (no reflection) included
    when clear.  The profile may be empty under total blockage.
    """
    rx = np.asarray(rx_position, dtype=float)
    if rx.shape != (3,):
        raise InvalidInputError(f"rx position must have 3 coordinates, got {rx.tolist()}")
    if not np.isfinite(rx).all():
        raise InvalidInputError(f"rx position must be finite, got {rx.tolist()}")
    if rx[2] <= 0.0:
        raise InvalidInputError(f"rx height must be positive, got {rx[2]}")
    tx = np.array(scene.tx_position)
    with np.errstate(over="ignore"):  # a far position's squared distance overflows
        distance = np.linalg.norm(rx - tx)
    if not math.isfinite(distance):
        raise InvalidInputError(f"rx position {rx.tolist()} is not a finite distance "
                                f"from tx {tx.tolist()}")
    if distance < GEOM_TOL:
        raise InvalidInputError("rx position coincides with tx")
    point = rx.tolist()
    for facet in scene.facets:
        if facet.contains(point):
            raise InvalidInputError(f"rx position {tuple(point)} lies on a facet")

    tree = scene._tree
    # a line parallel to a plane crosses it at inf or nan: no warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        depth, fac, pts = _walk_back(tree, rx)
        n, max_depth = len(depth), len(fac)
        # path i's chain, (max_depth + 2, n, 3): tx, its points tx side
        # first, then rx to the end; chain row c <= depth[i] is row
        # depth[i] - c of its points, counted back from rx
        ends = np.empty((max_depth + 2, 3, n))
        ends[:max_depth], ends[max_depth], ends[-1] = pts, tx[:, None], rx[:, None]
        row = depth - np.arange(max_depth + 2)[:, None]
        row[row < 0], row[0] = max_depth + 1, max_depth
        chain = ends[row, :, np.arange(n)]
        steps = chain[1:] - chain[:-1]   # zero past rx
        # a norm per 3-vector, sqrt of its dot product as np.linalg.norm takes it
        lengths = np.sqrt(np.matmul(steps[..., None, :], steps[..., None])[..., 0, 0])
        real = np.arange(max_depth + 1)[:, None] <= depth
        clear = ~(real & (lengths < GEOM_TOL)).any(axis=0)  # else a degenerate corner hit
        seg = real & clear
        blocked = np.zeros(seg.shape, dtype=bool)
        blocked[seg] = _blocked(tree, chain[:-1][seg].T, steps[seg].T, lengths[seg])
    keep = (clear & ~blocked.any(axis=0)).nonzero()[0]
    with np.errstate(over="ignore"):  # a far path's length or phase overflows
        length = np.cumsum(lengths[:, keep], axis=0)[-1]   # segment by segment, from tx
        tau = length / SPEED_OF_LIGHT
        phase = -2.0 * math.pi * scene.carrier_freq * tau
    far = np.flatnonzero(~np.isfinite(phase))
    if far.size:
        raise InvalidInputError(
            f"a path of {length[far[0]]:.6g} m to rx {rx.tolist()} has no finite "
            f"phase at carrier {scene.carrier_freq:.6g} Hz")

    # reflection r of path i ends its segment r, off facet fac[depth - 1 - r]
    r, i = (np.arange(max_depth)[:, None] < depth[keep]).nonzero()
    path = keep[i]
    f = fac[depth[path] - 1 - r, path]
    cos_t = np.minimum(np.abs(steps[r, path, tree.frame[0, f]] / lengths[r, path]), 1.0)
    # libm's acos, as reflection_coefficient is given it: numpy's may differ
    # in the last bit, which a vacuum facet's coefficient, a difference of
    # near-equal terms, would carry into its amplitude
    angle = np.fromiter(map(math.acos, cos_t.tolist()), float, len(cos_t))
    gammas = np.ones((max_depth, len(keep)), dtype=complex)
    gammas[r, i] = _fresnel(tree.eta[f], angle, tree.tm[f])
    gamma = np.cumprod(gammas, axis=0)[-1] if max_depth else 1.0
    amps = scene.wavelength / (4.0 * math.pi * length) * gamma * np.exp(1j * phase)
    order = np.lexsort((-np.abs(amps), tau))
    return DelayProfile(amps=amps[order], delays=tau[order])


def trace_timeline(scene, trace):
    """One delay profile per trace position, in trace order."""
    profiles = []
    for i, pos in enumerate(trace.positions):
        try:
            profiles.append(trace_snapshot(scene, pos))
        except InvalidInputError as exc:
            raise InvalidInputError(f"snapshot {i}: {exc}") from exc
    return profiles
