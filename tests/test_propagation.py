import cmath
import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chanem.cir import CirConfig
from chanem.constants import SPEED_OF_LIGHT
from chanem.errors import InvalidInputError
from chanem.materials import (complex_permittivity, evaluate_material,
                              get_material)
from chanem import propagation
from chanem.propagation import (GEOM_TOL, MAX_IMAGE_NODES, TE, TM, DelayProfile,
                                Facet, MobilityTrace, Scene, image_tree_sizes,
                                reflection_coefficient, trace_snapshot,
                                trace_timeline)
from chanem.scenefile import parse_scene
from chanem.timeline import timeline_from_profiles

F_REF = 4.01916e9

# 13-facet scene, 360 receiver positions and their complex64 taps, as traced
# by ``chanem trace`` at 46.08 Msps with a 3 us delay spread
BLOCK13 = Path(__file__).resolve().parents[1] / "e2ebench" / "reference" / "block13.npz"


def _oracle_blocked(facets, p0, p1):
    """True if any facet crosses the open interior of segment p0 -> p1."""
    d = p1 - p0
    length = float(np.linalg.norm(d))
    if length < GEOM_TOL:
        return False
    eps = GEOM_TOL / length
    for facet in facets:
        if abs(d[facet.axis]) < 1e-15:
            continue
        t = (facet.value - p0[facet.axis]) / d[facet.axis]
        if t <= eps or t >= 1.0 - eps:
            continue
        if facet.in_bounds(p0 + t * d):
            return True
    return False


def _oracle_points(scene, seq, rx):
    """Reflection points of one facet sequence, tx side first, or None."""
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
        if abs(d[facet.axis]) < 1e-15:
            return None
        t = (facet.value - q[facet.axis]) / d[facet.axis]
        if not GEOM_TOL < t < 1.0 - GEOM_TOL:
            return None
        p = q + t * d
        if not facet.in_bounds(p):
            return None
        points.append(p)
        q = p
    points.reverse()
    return points


def oracle_trace(scene, rx_position):
    """The scalar image-method tracer: every facet sequence with no facet
    twice in a row, one at a time, walked back, checked and blocked
    segment by segment."""
    rx = np.asarray(rx_position, dtype=float)
    tx = np.array(scene.tx_position)
    props = [evaluate_material(get_material(f.material, scene.materials),
                               scene.carrier_freq) for f in scene.facets]
    found = []
    for depth in range(scene.max_depth + 1):
        for seq in itertools.product(range(len(scene.facets)), repeat=depth):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            points = _oracle_points(scene, seq, rx)
            if points is None:
                continue
            chain = [tx] + points + [rx]
            segments = list(zip(chain[:-1], chain[1:]))
            if any(np.linalg.norm(b - a) < GEOM_TOL for a, b in segments):
                continue
            if any(_oracle_blocked(scene.facets, a, b) for a, b in segments):
                continue
            length = float(sum(np.linalg.norm(b - a) for a, b in segments))
            gamma = complex(1.0)
            for (a, b), fi in zip(segments, seq):
                facet = scene.facets[fi]
                d = (b - a) / np.linalg.norm(b - a)
                cos_t = min(abs(float(d[facet.axis])), 1.0)
                gamma *= reflection_coefficient(props[fi], math.acos(cos_t),
                                                facet.polarization)
            tau = length / SPEED_OF_LIGHT
            amp = (scene.wavelength / (4.0 * math.pi * length) * gamma
                   * cmath.exp(-2j * math.pi * scene.carrier_freq * tau))
            found.append((tau, amp))
    found.sort(key=lambda pa: (pa[0], -abs(pa[1])))
    return DelayProfile(amps=[a for _, a in found], delays=[t for t, _ in found])


def assert_same_profile(got, want):
    assert got.n_paths == want.n_paths
    np.testing.assert_allclose(got.delays, want.delays, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.amps, want.amps, rtol=1e-12, atol=0)


def empty_scene(tx=(0.0, 0.0, 10.0), depth=3):
    return Scene(facets=[], tx_position=tx, carrier_freq=F_REF, max_depth=depth)


def parallel_walls(count):
    """``count`` glass walls along x, at y = 6, 7, ..."""
    return [Facet.wall(-50, 6 + i, 50, 6 + i, 0, 12, "glass") for i in range(count)]


def canyon_scene(depth=2):
    facets = [
        Facet.ground(0.0, "concrete"),
        Facet.wall(-100, -8, 100, -8, 0, 15, "concrete"),
        Facet.wall(-100, 8, 100, 8, 0, 15, "glass"),
    ]
    return Scene(facets=facets, tx_position=(0.0, 0.0, 10.0),
                 carrier_freq=F_REF, max_depth=depth)


class TestReflectionCoefficient:
    def test_vacuum_reflects_nothing(self):
        props = evaluate_material(get_material("vacuum"), F_REF)
        for angle in (0.0, 0.3, 1.2):
            assert reflection_coefficient(props, angle, "TE") == pytest.approx(0.0)
            assert reflection_coefficient(props, angle, "TM") == pytest.approx(0.0)

    def test_metal_is_a_mirror_at_normal_incidence(self):
        props = evaluate_material(get_material("metal"), F_REF)
        gamma = reflection_coefficient(props, 0.0, "TE")
        assert abs(gamma) >= 0.999
        assert abs(cmath.phase(gamma) - math.pi) < 0.01

    def test_polarizations_agree_at_normal_incidence(self):
        props = evaluate_material(get_material("concrete"), F_REF)
        eta = complex_permittivity(props)
        expected = (1 - cmath.sqrt(eta)) / (1 + cmath.sqrt(eta))
        te = reflection_coefficient(props, 0.0, "TE")
        tm = reflection_coefficient(props, 0.0, "TM")
        assert te == pytest.approx(expected)
        assert tm == pytest.approx(expected)

    def test_lossy_half_space_never_amplifies(self):
        for name in ("concrete", "glass", "metal"):
            props = evaluate_material(get_material(name), F_REF)
            for angle in np.linspace(0.0, math.pi / 2 - 1e-3, 25):
                for pol in ("TE", "TM"):
                    assert abs(reflection_coefficient(props, angle, pol)) <= 1.0 + 1e-12

    def test_angle_domain_enforced(self):
        props = evaluate_material(get_material("concrete"), F_REF)
        with pytest.raises(InvalidInputError):
            reflection_coefficient(props, math.pi / 2, "TE")
        with pytest.raises(InvalidInputError):
            reflection_coefficient(props, -0.1, "TM")


class TestFacet:
    def test_ground_is_unbounded(self):
        ground = Facet.ground(2.0, "concrete")
        assert ground.axis == 2 and ground.value == 2.0
        assert ground.contains((1e9, -1e9, 2.0))
        assert not ground.contains((0.0, 0.0, 2.1))
        np.testing.assert_array_equal(ground.mirror((3.0, 4.0, 5.0)), [3.0, 4.0, -1.0])

    def test_wall_endpoint_order_does_not_matter(self):
        for ends in [(-5, 6, 7, 6), (7, 6, -5, 6)]:
            wall = Facet.wall(*ends, 1, 12, "glass")
            assert wall == Facet(1, 6, (-5, 1), (7, 12), "glass")
        assert Facet.wall(3, 9, 3, -2, 0, 4, "metal") == Facet(0, 3, (-2, 0), (9, 4), "metal")

    def test_wall_bounds_and_mirror(self):
        wall = Facet.wall(3, -2, 3, 9, 0, 4, "metal")  # plane x = 3
        assert wall.contains((3.0, 9.0, 4.0))
        assert not wall.contains((3.0, 9.1, 2.0))
        assert not wall.contains((3.0, 5.0, 4.1))
        assert wall.in_bounds((-40.0, 5.0, 2.0))  # bounds ignore the plane axis
        np.testing.assert_array_equal(wall.mirror((1.0, 5.0, 2.0)), [5.0, 5.0, 2.0])

    @pytest.mark.parametrize("ends", [
        (4, 4, 4, 4, 0, 5),     # a point
        (0, 0, 10, 0, 5, 5),    # no height
        (0, 0, 10, 0, 5, 1),    # upside down
    ])
    def test_empty_wall_rejected(self, ends):
        with pytest.raises(InvalidInputError,
                           match="is not axis-aligned$|^facet must have positive extent"):
            Facet.wall(*ends, "concrete")

    def test_axis_must_be_a_coordinate(self):
        with pytest.raises(InvalidInputError, match="^facet axis must be 0, 1 or 2, got 3$"):
            Facet(3, 0.0, (0, 0), (1, 1))

    def test_polarization_follows_axis(self):
        assert Facet.ground(0.0).polarization == TM
        assert Facet.wall(0, 0, 10, 0, 0, 5, "glass").polarization == TE
        assert Facet.wall(0, 0, 0, 10, 0, 5, "glass").polarization == TE

    def test_depth_zero_yields_exactly_the_free_space_path(self):
        scene = canyon_scene(depth=0)
        rx = np.array([20.0, -3.0, 1.5])
        profile = trace_snapshot(scene, rx)
        length = float(np.linalg.norm(rx - scene.tx_position))
        tau = length / SPEED_OF_LIGHT
        amp = (scene.wavelength / (4.0 * math.pi * length)
               * cmath.exp(-2j * math.pi * F_REF * tau))
        assert profile.delays.tolist() == [tau]
        assert profile.amps.tolist() == [amp]


class TestReference:
    def test_block13_taps_match_the_stored_reference(self):
        with np.load(BLOCK13) as ref:
            scene_text, positions, taps = ref["scene"], ref["positions"], ref["taps"]
        picks = np.arange(0, len(positions), 30)  # 12 positions
        scene = parse_scene(str(scene_text))
        trace = MobilityTrace(interval=0.1, positions=positions[picks])
        timeline = timeline_from_profiles(trace_timeline(scene, trace),
                                          CirConfig(f_samp=46.08e6), trace.interval)
        assert len(picks) == 12 and scene.max_depth == 3 and len(scene.facets) == 13
        np.testing.assert_array_equal(timeline.taps.astype(np.complex64), taps[picks])


class TestFreeSpace:
    def test_friis_gain_and_delay_at_100m(self):
        profile = trace_snapshot(empty_scene(), (100.0, 0.0, 10.0))
        assert profile.n_paths == 1
        gain_db = 20 * math.log10(abs(profile.amps[0]))
        assert gain_db == pytest.approx(-84.53, abs=0.05)
        assert profile.delays[0] == pytest.approx(333.6e-9, abs=0.2e-9)

    def test_blocking_wall_empties_profile(self):
        wall = Facet.wall(50, -5, 50, 5, 0, 20, "concrete")
        scene = Scene(facets=[wall], tx_position=(0, 0, 10),
                      carrier_freq=F_REF, max_depth=0)
        profile = trace_snapshot(scene, (100.0, 0.0, 10.0))
        assert profile.n_paths == 0


class TestGroundBounce:
    H = 5.0
    D = 30.0

    def scene(self):
        return Scene(facets=[Facet.ground(0.0, "concrete")],
                     tx_position=(0, 0, self.H), carrier_freq=F_REF, max_depth=1)

    def test_closed_form_two_ray_geometry(self):
        profile = trace_snapshot(self.scene(), (self.D, 0.0, self.H))
        assert profile.n_paths == 2
        d_expected = [self.D, math.hypot(self.D, 2 * self.H)]
        np.testing.assert_allclose(profile.delays * SPEED_OF_LIGHT, d_expected,
                                   rtol=1e-12)

    def test_against_grid_search_oracle(self):
        # exhaustive 1 cm search over candidate ground reflection points
        rx = np.array([self.D, 0.0, self.H])
        tx = np.array([0.0, 0.0, self.H])
        xs = np.arange(0.0, self.D + 0.01, 0.01)
        lengths = (np.hypot(xs, self.H) + np.hypot(self.D - xs, self.H))
        best = np.argmin(lengths)
        assert abs(xs[best] - self.D / 2) <= 0.01  # image method says midpoint

        profile = trace_snapshot(self.scene(), rx)
        bounce_delay = profile.delays[1]
        assert bounce_delay == pytest.approx(lengths[best] / SPEED_OF_LIGHT,
                                             rel=1e-6)
        # gain of the bounce path within 0.1 dB of the oracle's length-based gain
        lam = SPEED_OF_LIGHT / F_REF
        props = evaluate_material(get_material("concrete"), F_REF)
        theta = math.atan2(self.D / 2, self.H)  # from the vertical normal
        gamma = reflection_coefficient(props, theta, "TM")
        oracle_gain = 20 * math.log10(lam / (4 * math.pi * lengths[best]) * abs(gamma))
        got_gain = 20 * math.log10(abs(profile.amps[1]))
        assert got_gain == pytest.approx(oracle_gain, abs=0.1)


class TestPathProperties:
    def test_reciprocity_swapping_endpoints(self):
        scene = canyon_scene()
        a = np.array([5.0, 2.0, 1.5])
        b = np.array(scene.tx_position)
        forward = trace_snapshot(scene, a)
        swapped_scene = Scene(facets=scene.facets, tx_position=a,
                              carrier_freq=F_REF, max_depth=scene.max_depth)
        backward = trace_snapshot(swapped_scene, b)
        key_f = sorted(zip(np.round(forward.delays, 15),
                           np.round(np.abs(forward.amps), 12)))
        key_b = sorted(zip(np.round(backward.delays, 15),
                           np.round(np.abs(backward.amps), 12)))
        assert len(key_f) == len(key_b)
        for (d1, a1), (d2, a2) in zip(key_f, key_b):
            assert d1 == pytest.approx(d2, rel=1e-9)
            assert a1 == pytest.approx(a2, rel=1e-6)

    def test_los_is_shortest_and_friis_bounds_everything(self):
        scene = canyon_scene()
        rx = np.array([20.0, -3.0, 1.5])
        profile = trace_snapshot(scene, rx)
        assert profile.n_paths >= 4  # LoS, ground, two walls at least
        d_los = np.linalg.norm(rx - scene.tx_position)
        tau_los = d_los / SPEED_OF_LIGHT
        assert profile.delays[0] == pytest.approx(tau_los, rel=1e-12)
        assert np.all(profile.delays[1:] > tau_los)
        bound = scene.wavelength / (4 * math.pi * d_los)
        assert np.all(np.abs(profile.amps) <= bound * (1 + 1e-9))

    def test_degenerate_receiver_positions_rejected(self):
        scene = canyon_scene()
        with pytest.raises(InvalidInputError, match="lies on a facet$"):
            trace_snapshot(scene, (5.0, -8.0, 1.5))  # on a wall
        with pytest.raises(InvalidInputError):
            trace_snapshot(scene, (5.0, 0.0, -1.0))  # below ground
        with pytest.raises(InvalidInputError):
            trace_snapshot(empty_scene(), (0.0, 0.0, 10.0))  # rx == tx
        for rx in ((math.nan, 0.0, 1.5), (5.0, math.inf, 1.5), (5.0, 0.0, math.nan)):
            with pytest.raises(InvalidInputError, match="rx position must be finite"):
                trace_snapshot(scene, rx)


class TestSceneValidation:
    def test_two_ground_planes_rejected(self):
        with pytest.raises(InvalidInputError, match="^at most one ground plane per scene$"):
            Scene(facets=[Facet.ground(0.0), Facet.ground(1.0)],
                  tx_position=(0, 0, 10), carrier_freq=F_REF)
        with pytest.raises(InvalidInputError, match="^at most one ground plane per scene$"):
            Scene(facets=[Facet.ground(0.0), Facet(2, 20.0, (0, 0), (5, 5))],
                  tx_position=(0, 0, 10), carrier_freq=F_REF)

    def test_tx_on_facet_rejected(self):
        with pytest.raises(InvalidInputError, match="lies on a facet$"):
            Scene(facets=[Facet.ground(10.0)], tx_position=(0, 0, 10.0),
                  carrier_freq=F_REF)

    def test_position_on_a_facet_is_named_in_plain_numbers(self):
        with pytest.raises(InvalidInputError,
                           match=r"^tx position \(0\.0, 0\.0, 10\.0\) lies on a facet$"):
            Scene(facets=[Facet.ground(10.0)], tx_position=np.array([0, 0, 10]),
                  carrier_freq=F_REF)
        with pytest.raises(InvalidInputError,
                           match=r"^rx position \(5\.0, -8\.0, 1\.5\) lies on a facet$"):
            trace_snapshot(canyon_scene(), np.array([5.0, -8.0, 1.5]))

    def test_depth_range_enforced(self):
        with pytest.raises(InvalidInputError):
            empty_scene(depth=6)
        with pytest.raises(InvalidInputError):
            empty_scene(depth=-1)

    def test_skewed_wall_rejected(self):
        with pytest.raises(InvalidInputError,
                           match=r"^wall \(0,0\)-\(10,10\) is not axis-aligned$"):
            Facet.wall(0, 0, 10, 10, 0, 5, "concrete")

    @pytest.mark.parametrize("value, lo, hi, message", [
        (math.nan, (0, 0), (5, 5), "plane must be finite"),
        (-math.inf, (0, 0), (5, 5), "plane must be finite"),
        (1.0, (math.nan, 0), (5, 5), "no NaN bound"),
        (1.0, (0, 0), (5, math.nan), "no NaN bound"),
        (1.0, (math.inf, 0), (math.inf, 5), "positive extent"),
    ])
    def test_non_finite_facet_rejected(self, value, lo, hi, message):
        # infinite bounds stay legal: the ground has them
        with pytest.raises(InvalidInputError, match=message):
            Facet(0, value, lo, hi)

    @pytest.mark.parametrize("tx, freq, message", [
        ((0, 0, 10), math.inf, "carrier frequency"),
        ((0, 0, 10), math.nan, "carrier frequency"),
        # finite, but c / f or 2 pi f is not
        ((0, 0, 10), 1e-300, "carrier frequency"),
        ((0, 0, 10), 1e-320, "carrier frequency"),
        ((0, 0, 10), 5e-324, "carrier frequency"),
        ((0, 0, 10), 3e307, "carrier frequency"),
        ((0, 0, 10), 1e308, "carrier frequency"),
        ((0, math.nan, 10), F_REF, "tx position"),
        ((0, 0, math.inf), F_REF, "tx position"),
    ])
    def test_non_finite_scene_rejected(self, tx, freq, message):
        with pytest.raises(InvalidInputError, match=f"{message} must be finite"):
            Scene(facets=[Facet.ground(0.0)], tx_position=tx, carrier_freq=freq)

    def test_image_tree_is_capped_at_its_node_count(self):
        # counted only: nothing is traced or sized
        assert image_tree_sizes(13, 5) == [1, 13, 156, 1872, 22464, 269568]  # block13
        assert sum(image_tree_sizes(1023, 2)) == 1_046_530
        with pytest.raises(InvalidInputError, match=(
                f"1024 facets at max_depth 2 give {MAX_IMAGE_NODES + 1} "
                f"image-tree nodes, above the {MAX_IMAGE_NODES}-node limit")):
            image_tree_sizes(1024, 2)
        with pytest.raises(InvalidInputError, match="60 facets at max_depth 5 give 739576861"):
            image_tree_sizes(60, 5)

    def test_scene_over_the_node_cap_rejected(self):
        walls = parallel_walls(17)
        assert Scene(facets=walls[:16], tx_position=(0, 0, 10), carrier_freq=F_REF,
                     max_depth=5).max_depth == 5  # 867,857 nodes
        with pytest.raises(InvalidInputError, match="17 facets at max_depth 5"):
            Scene(facets=walls, tx_position=(0, 0, 10), carrier_freq=F_REF, max_depth=5)

    def test_scene_edited_over_the_node_cap_rejected_before_tracing(self):
        scene = Scene(facets=parallel_walls(16), tx_position=(0, 0, 10),
                      carrier_freq=F_REF, max_depth=5)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="17 facets at max_depth 5"):
                dataclasses.replace(scene, facets=parallel_walls(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestTimeline:
    def test_snapshot_count_and_times(self):
        scene = empty_scene()
        xs = np.linspace(100, 50, 570)
        positions = np.stack([xs, np.zeros(570), np.full(570, 1.5)], axis=1)
        trace = MobilityTrace(interval=0.1, positions=positions)
        profiles = trace_timeline(scene, trace)
        assert len(profiles) == 570
        assert len(profiles) * trace.interval == pytest.approx(57.0)

    def test_single_position(self):
        trace = MobilityTrace(interval=0.1, positions=[[50.0, 0.0, 1.5]])
        profiles = trace_timeline(empty_scene(), trace)
        assert len(profiles) == 1

    def test_monotone_approach_shrinks_delay(self):
        xs = np.linspace(200, 20, 40)
        trace = MobilityTrace(
            interval=0.1,
            positions=np.stack([xs, np.zeros(40), np.full(40, 1.5)], axis=1))
        profiles = trace_timeline(empty_scene(), trace)
        delays = [p.delays[0] for p in profiles]
        assert all(d1 > d2 for d1, d2 in zip(delays, delays[1:]))

    def test_error_names_snapshot(self):
        scene = canyon_scene()
        trace = MobilityTrace(interval=0.1,
                              positions=[[5.0, 0.0, 1.5], [5.0, -8.0, 1.5]])
        with pytest.raises(InvalidInputError,
                           match=r"^snapshot 1: rx position \(5\.0, -8\.0, 1\.5\) lies on a facet$"):
            trace_timeline(scene, trace)

    def test_traces_each_position_with_one_trace_snapshot_call(self, monkeypatch):
        # the benchmark's traced run times the tracer by wrapping this module
        # attribute, so each receiver must be one call, in trace order
        seen, returned = [], []
        real = propagation.trace_snapshot

        def counted(scene, rx_position):
            seen.append(np.array(rx_position))
            returned.append(real(scene, rx_position))
            return returned[-1]

        monkeypatch.setattr(propagation, "trace_snapshot", counted)
        positions = [[x, -3.0, 1.5] for x in (12.0, 30.0, 5.0, 20.0, 12.0)]
        profiles = trace_timeline(canyon_scene(), MobilityTrace(interval=0.1, positions=positions))
        np.testing.assert_array_equal(seen, positions)
        assert len(profiles) == len(returned) == 5
        assert all(got is want for got, want in zip(profiles, returned))

    def test_trace_validation(self):
        with pytest.raises(InvalidInputError):
            MobilityTrace(interval=0.0, positions=[[0, 0, 1.5]])
        with pytest.raises(InvalidInputError):
            MobilityTrace(interval=0.1, positions=np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            MobilityTrace(interval=0.1, positions=[[0, 0, 0.0]])
        for interval in (math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="interval must be finite"):
                MobilityTrace(interval=interval, positions=[[0, 0, 1.5]])
        for bad in ([math.nan, 0, 1.5], [0, math.inf, 1.5], [0, 0, math.nan]):
            with pytest.raises(InvalidInputError, match="position 1 must be finite"):
                MobilityTrace(interval=0.1, positions=[[0, 0, 1.5], bad])


MATERIALS = ("concrete", "glass", "metal", "vacuum")
# integer coordinates make coplanar walls, shared edges and rays through
# corners likely; the floats cover everything between
COORD = st.one_of(st.integers(-12, 12).map(float),
                  st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False))


@st.composite
def random_scenes(draw):
    facets = []
    if draw(st.booleans()):
        facets.append(Facet.ground(draw(st.sampled_from([0.0, -1.0, 0.5])),
                                   draw(st.sampled_from(MATERIALS))))
    for _ in range(draw(st.integers(1, 6))):
        fixed, start = draw(COORD), draw(COORD)
        end = start + draw(st.one_of(st.integers(1, 20).map(float),
                                     st.floats(0.01, 20.0)))
        z_min = draw(st.sampled_from([0.0, -1.0, 2.0]))
        z_max = z_min + draw(st.floats(0.5, 15.0))
        ends = (start, fixed, end, fixed) if draw(st.booleans()) else (fixed, start, fixed, end)
        facets.append(Facet.wall(*ends, z_min, z_max, draw(st.sampled_from(MATERIALS))))
    tx = (draw(COORD), draw(COORD), draw(st.floats(0.5, 12.0)))
    try:
        scene = Scene(facets=facets, tx_position=tx, carrier_freq=F_REF,
                      max_depth=draw(st.integers(0, 3)))
    except InvalidInputError as exc:
        if "lies on a facet" not in str(exc):
            raise
        assume(False)  # tx on a facet
    rx = np.array([draw(COORD), draw(COORD), draw(st.floats(0.1, 12.0))])
    assume(np.linalg.norm(rx - scene.tx_position) >= GEOM_TOL)
    assume(not any(f.contains(rx) for f in facets))
    return scene, rx


def canyon_with_cross_wall(depth, ground=True):
    facets = [
        Facet.ground(0.0, "concrete"),
        Facet.wall(-100, -8, 100, -8, 0, 15, "concrete"),
        Facet.wall(-100, 8, 30, 8, 0, 15, "glass"),
        Facet.wall(31, 8, 100, 8, 0, 25, "metal"),
        Facet.wall(40, -8, 40, 8, 0, 4, "concrete"),
    ]
    return Scene(facets=facets if ground else facets[1:], tx_position=(0.0, 0.0, 10.0),
                 carrier_freq=3.5e9, max_depth=depth)


class TestImageTree:
    @settings(max_examples=150, deadline=None)
    @given(random_scenes())
    def test_matches_the_scalar_oracle_on_random_scenes(self, case):
        scene, rx = case
        assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))

    @pytest.mark.parametrize("ground", [True, False])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_matches_the_scalar_oracle_in_a_canyon(self, depth, ground):
        scene = canyon_with_cross_wall(depth, ground)
        rng = np.random.default_rng(depth)
        for _ in range(8):
            rx = (rng.uniform(-90, 90), rng.uniform(-7.5, 7.5), rng.uniform(0.5, 14))
            assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))

    @pytest.mark.parametrize("overshoot, paths", [(0.0, 2), (5e-7, 2), (2e-6, 1)])
    @pytest.mark.parametrize("edge, outward", [(10.0, 1.0), (0.0, -1.0)])
    def test_facet_bounds_hold_to_geom_tol(self, edge, outward, overshoot, paths):
        # the wall spans x = 0..10 and the specular point sits at the
        # midpoint of tx and rx along x, overshoot past one of its ends
        wall = Facet.wall(0, 5, 10, 5, 0, 10, "metal")
        scene = Scene(facets=[wall], tx_position=(4.0, 0.0, 2.0),
                      carrier_freq=F_REF, max_depth=1)
        rx = (2 * (edge + outward * overshoot) - 4.0, 0.0, 2.0)
        assert trace_snapshot(scene, rx).n_paths == paths
        assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))

    @pytest.mark.parametrize("gap, paths", [(2e-6, 1), (1.0, 2)])
    @pytest.mark.parametrize("near", ["rx", "tx"])
    def test_reflection_next_to_an_end_must_clear_the_window(self, near, gap, paths):
        # 2 um off the wall, the specular point lies about 4e-7 of the way
        # from that end: inside the GEOM_TOL margin of the walk's window at
        # either end of the ray, so it is dropped
        wall = Facet.wall(0, 5, 10, 5, 0, 10, "metal")
        close, far = (6.0, 5.0 - gap, 2.0), (4.0, 0.0, 2.0)
        tx, rx = (far, close) if near == "rx" else (close, far)
        scene = Scene(facets=[wall], tx_position=tx, carrier_freq=F_REF, max_depth=1)
        assert trace_snapshot(scene, rx).n_paths == paths
        assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))

    def test_nodes_list_every_sequence_by_depth_in_order_with_its_image(self):
        scene = canyon_scene(depth=3)
        tree = scene._tree
        seqs = []
        for node in range(len(tree.facet)):
            seq = []
            while node > 0:  # the root is node 0; -1 marks no parent
                seq.append(int(tree.facet[node]))
                node = tree.parent[node]
            seqs.append(tuple(reversed(seq)))
        assert seqs == [s for depth in range(4)
                        for s in itertools.product(range(3), repeat=depth)
                        if all(a != b for a, b in zip(s, s[1:]))]
        assert tree.start.tolist() == [0, 1, 4, 10, 22]
        for seq, image in zip(seqs, tree.image.T):
            want = scene.tx_position
            for fi in seq:
                want = scene.facets[fi].mirror(want)
            np.testing.assert_array_equal(image, want)

    def test_materials_are_evaluated_once_per_facet_per_scene(self, monkeypatch):
        calls = []
        real = propagation.evaluate_material

        def counted(spec, freq):
            calls.append(spec.name)
            return real(spec, freq)

        monkeypatch.setattr(propagation, "evaluate_material", counted)
        trace = MobilityTrace(interval=0.1,
                              positions=[[x, 0.0, 1.5] for x in range(10, 30)])
        assert len(trace_timeline(canyon_scene(depth=2), trace)) == 20
        assert calls == ["concrete", "concrete", "glass"]

    def test_editing_a_scene_rebuilds_its_tree(self):
        scene = canyon_scene(depth=1)
        rx = (20.0, -3.0, 1.5)
        trace_snapshot(scene, rx)
        scene = dataclasses.replace(scene, max_depth=3)
        assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))
        scene = dataclasses.replace(scene, tx_position=np.array([5.0, 2.0, 8.0]))
        assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))
        scene = dataclasses.replace(scene, facets=scene.facets[1:])
        assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))
        scene = dataclasses.replace(
            scene, materials={**scene.materials, "glass": get_material("metal")})
        assert_same_profile(trace_snapshot(scene, rx), oracle_trace(scene, rx))

    @pytest.mark.parametrize("edit, message", [
        (dict(max_depth=7), "^max_depth must be in 0..5, got 7$"),
        (dict(tx_position=(0.0, -8.0, 5.0)),
         r"^tx position \(0\.0, -8\.0, 5\.0\) lies on a facet$"),
        (dict(facets=(*canyon_scene().facets, Facet.ground(-1.0))),
         "^at most one ground plane per scene$"),
    ], ids=["depth", "tx-on-wall", "second-ground"])
    @pytest.mark.parametrize("traced_before", [False, True])
    def test_an_edited_scene_is_checked_again(self, edit, message, traced_before):
        scene = canyon_scene(depth=1)
        if traced_before:
            trace_snapshot(scene, (20.0, -3.0, 1.5))
        with pytest.raises(InvalidInputError, match=message):
            dataclasses.replace(scene, **edit)

    def test_scenes_from_equal_arguments_are_equal_values(self):
        def build(**edit):
            args = dict(facets=[Facet.ground(0.0, "concrete")],
                        tx_position=np.array([0.0, 0.0, 10.0]), carrier_freq=F_REF,
                        materials={"concrete": get_material("concrete")})
            return Scene(**{**args, **edit})

        a, b = build(), build(tx_position=(0, 0, 10))
        trace_snapshot(a, (20.0, -3.0, 1.5))  # a built tree is not part of the value
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != build(tx_position=(0.0, 0.0, 11.0))
        assert a != build(materials={"concrete": get_material("metal")})
        assert (a == object()) is False

    def test_a_scene_cannot_be_edited_in_place(self):
        tx, facets = np.array([0.0, 0.0, 10.0]), [Facet.ground(0.0, "concrete")]
        materials = {"concrete": get_material("concrete")}
        scene = Scene(facets=facets, tx_position=tx, carrier_freq=F_REF,
                      materials=materials)
        rx = (20.0, -3.0, 1.5)
        want = trace_snapshot(scene, rx)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scene.max_depth = 1
        with pytest.raises(AttributeError):
            scene.facets.append(Facet.wall(-100, 8, 100, 8, 0, 15, "concrete"))
        with pytest.raises(TypeError):
            scene.materials["concrete"] = get_material("metal")
        with pytest.raises(TypeError, match="does not support item assignment"):
            scene.tx_position[2] = 5.0
        # nor through what was passed in: the scene keeps its own copies
        tx[2] = 5.0
        facets.append(Facet.wall(-100, 8, 100, 8, 0, 15, "concrete"))
        materials["concrete"] = get_material("metal")
        assert scene.tx_position == (0.0, 0.0, 10.0)
        assert len(scene.facets) == 1 and scene.materials["concrete"].name == "concrete"
        got = trace_snapshot(scene, rx)
        np.testing.assert_array_equal(got.delays, want.delays)
        np.testing.assert_array_equal(got.amps, want.amps)

    def test_depth_five_snapshot_allocates_a_bounded_peak(self):
        with np.load(BLOCK13) as ref:
            scene = parse_scene(str(ref["scene"]), max_depth=5)
            rx = ref["positions"][0]
        tracemalloc.start()
        try:
            profile = trace_snapshot(scene, rx)  # builds the tree, then walks it
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tree = scene._tree
        n_seq = len(tree.facet) - 1  # all but the root
        assert n_seq == sum(13 * 12 ** (d - 1) for d in range(1, 6)) == 294_073
        # 32 B a node: its facet and parent as int32, its image as 3 floats
        assert tree.facet.nbytes + tree.parent.nbytes + tree.image.nbytes == 32 * (n_seq + 1)
        assert profile.n_paths > 0
        assert peak < 32e6

    @settings(max_examples=60, deadline=None)
    @given(random_scenes())
    def test_walk_chunks_do_not_change_profiles_on_random_scenes(self, case):
        # up to 302 nodes walked 7 at a time cross many chunk boundaries
        scene, rx = case
        want = trace_snapshot(scene, rx)
        with mock.patch.object(propagation, "_WALK_CHUNK", 7):
            got = trace_snapshot(scene, rx)
        np.testing.assert_array_equal(got.delays, want.delays)
        np.testing.assert_array_equal(got.amps, want.amps)

    def test_walk_chunks_do_not_change_profiles_on_block13(self, monkeypatch):
        with np.load(BLOCK13) as ref:
            scene = parse_scene(str(ref["scene"]))
            positions = ref["positions"][::30]
        want = [trace_snapshot(scene, rx) for rx in positions]
        monkeypatch.setattr(propagation, "_WALK_CHUNK", 7)  # 2,042 nodes: 292 chunks
        for rx, expected in zip(positions, want):
            got = trace_snapshot(scene, rx)
            np.testing.assert_array_equal(got.delays, expected.delays)
            np.testing.assert_array_equal(got.amps, expected.amps)
