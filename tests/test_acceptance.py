"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the bench criterion measures wall-clock latency, so keep the machine
otherwise idle for representative numbers.
"""

import io

import numpy as np
import pytest

from chanem.bench import bench
from chanem.cir import CirConfig, discretize, sort_truncate
from chanem.emulator import EmulatorState, convolve_slot
from chanem.kpi import (REFERENCE_CARRIER, effective_throughput, max_bitrate,
                        mcs_lookup, ofdm_feasibility, tdd_occupancy)
from chanem.materials import evaluate_material, get_material
from chanem.propagation import Facet, MobilityTrace, Scene, trace_timeline
from chanem.timeline import (CirTimeline, report, timeline_from_profiles,
                             write_pdp_csv, write_report_rows_csv)

F_REF = 4.01916e9
F_SAMP = 46.08e6


def check(n, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {n} FAIL: {desc}")
        raise
    print(f"criterion {n} PASS: {desc}")


def test_criterion_1_kpi_exactness():
    def body():
        cfg = REFERENCE_CARRIER
        eta27 = mcs_lookup(27).spectral_eff
        eta10 = mcs_lookup(10).spectral_eff
        assert max_bitrate(cfg, mcs_lookup(27), "dl") / eta27 == pytest.approx(
            30.62976, abs=1e-6)
        assert max_bitrate(cfg, mcs_lookup(10), "ul") / eta10 == pytest.approx(
            32.76672, abs=1e-6)
        dl, ul = tdd_occupancy(cfg.tdd)
        assert dl == pytest.approx(48 / 70, abs=1e-6)
        assert ul == pytest.approx(18 / 70, abs=1e-6)
        assert effective_throughput(cfg, mcs_lookup(27), 0.001656, "dl") == \
            pytest.approx(155.2989, abs=0.001)
        assert effective_throughput(cfg, mcs_lookup(10), 0.163917, "ul") == \
            pytest.approx(18.106756, abs=0.001)

    check(1, "bitrate coefficients, TDD occupancy, worked throughput examples",
          body)


def test_criterion_2_tap_bound():
    def body():
        cfg = CirConfig(f_samp=46.08e6, max_delay_spread=3e-6)
        assert cfg.l_max == 146
        assert cfg.k_max == 145
        from chanem.propagation import DelayProfile
        taps = discretize(DelayProfile(amps=[1.0], delays=[0.0]), cfg)
        assert len(taps) == 146

    check(2, "46.08 Msps and 3 us delay spread give 146 taps (k = 0..145)",
          body)


def test_criterion_3_ofdm_anchors():
    def body():
        cfg = REFERENCE_CARRIER
        v = ofdm_feasibility(cfg, sigma_tau=0.0, speed=11.78)
        assert v.fading_period == pytest.approx(6.332e-3, abs=0.001e-3)
        assert v.doppler_freq == pytest.approx(158.0, abs=1.0)
        assert cfg.cp_long_samples == 132
        assert cfg.cp_short_samples == 106
        assert cfg.cp_long_samples / cfg.f_samp == pytest.approx(2.86e-6,
                                                                 abs=5e-9)
        assert v.guard_interval == pytest.approx(2.30e-6, abs=5e-9)

    check(3, "fading period 6.332 ms, Doppler 158 Hz, CP 2.86/2.30 us from "
             "132/106 samples", body)


def test_criterion_4_materials():
    def body():
        expected = {"concrete": 0.1372, "glass": 0.0232, "metal": 1e7,
                    "vacuum": 0.0}
        for name, sigma in expected.items():
            props = evaluate_material(get_material(name), F_REF)
            assert props.sigma_c == pytest.approx(sigma,
                                                  abs=max(1e-4, 1e-4 * sigma))

    check(4, "all material conductivities at 4.01916 GHz to 4 decimals", body)


def test_criterion_5_convolution_oracles():
    def body():
        f_samp = 8 * 15 / 0.5e-3  # fft_size 8: N_s = 120
        n_s = 120
        rng = np.random.default_rng(2024)
        for _ in range(100):
            l_max = int(rng.integers(2, 65))
            n_taps = int(rng.integers(1, l_max + 1))
            idx = rng.choice(l_max, size=n_taps, replace=False)
            taps = np.zeros(l_max, complex)
            taps[idx] = (rng.standard_normal(n_taps)
                         + 1j * rng.standard_normal(n_taps))
            state = EmulatorState(CirTimeline([taps], f_samp, t_int=0.1),
                                  l_max, 8)
            slots = [rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
                     for _ in range(4)]
            got = np.concatenate(
                [convolve_slot(state, i, s).copy()
                 for i, s in enumerate(slots)])
            stream = np.concatenate(slots)
            want = np.convolve(stream, taps)[:len(stream)]
            assert (np.linalg.norm(got - want)
                    / np.linalg.norm(want)) < 1e-6
        # truncation optimality by exhaustive subset search
        import itertools
        for _ in range(40):
            l_max = int(rng.integers(2, 13))
            taps = rng.standard_normal(l_max) + 1j * rng.standard_normal(l_max)
            l_sel = int(rng.integers(1, l_max + 1))
            sel = sort_truncate(taps, l_sel)
            powers = np.abs(taps) ** 2
            best = max(sum(powers[list(c)])
                       for c in itertools.combinations(range(l_max), l_sel))
            assert sel.retained_power == pytest.approx(best)

    check(5, "100 random streaming cases match naive convolution at 1e-6; "
             "truncation is subset-optimal", body)


def test_criterion_6_real_time_budget():
    def body():
        fmt = (1536, 46.08e6)  # (fft_size, f_samp): N_s = 23040
        stats = bench(10000, 28, *fmt, seed=1)
        print(f"  bench 28 taps: median {stats.median_s * 1e3:.3f} ms, "
              f"p99 {stats.p99_s * 1e3:.3f} ms, budget {stats.budget_s * 1e3:.3f} ms")
        assert stats.median_s < 0.5e-3
        full = bench(600, 146, *fmt, seed=1)
        verdict = "exceeds" if full.median_s >= full.budget_s else "fits"
        print(f"  bench 146 taps: median {full.median_s * 1e3:.3f} ms "
              f"({verdict} the 0.5 ms budget; machine-dependent, reported "
              f"not asserted)")

    check(6, "median per-slot latency under 0.5 ms at 28 taps and 23040 "
             "samples", body)


def _canyon_scenario():
    facets = [
        Facet.wall(-120, -8, 120, -8, 0, 15, "concrete"),
        Facet.wall(-120, 8, 30, 8, 0, 15, "concrete"),
        Facet.wall(60, 8, 120, 8, 0, 15, "concrete"),
    ]
    scene = Scene(facets=facets, tx_position=(0.0, 0.0, 10.0),
                  carrier_freq=F_REF, max_depth=2)
    positions = []
    positions += [(x, 0.0, 1.5) for x in range(-60, -12, 4)]   # approach
    positions += [(-12.0, 0.0, 1.5)] * 5                       # stop
    positions += [(x, 0.0, 1.5) for x in range(-8, 44, 4)]     # pass, recede
    positions += [(44.0, 4.0, 1.5), (45.0, 16.0, 1.5), (45.0, 24.0, 1.5),
                  (45.0, 32.0, 1.5), (45.0, 40.0, 1.5)]        # corner turn
    trace = MobilityTrace(interval=0.1, positions=np.array(positions))
    return scene, trace


def test_criterion_7_scenario_structure():
    def body():
        scene, trace = _canyon_scenario()
        profiles = trace_timeline(scene, trace)
        timeline = timeline_from_profiles(profiles, CirConfig(f_samp=F_SAMP),
                                          trace.interval)
        rows = report(timeline, 28)

        # round-trip through the CSV artifacts the criterion inspects
        rows_csv = io.StringIO()
        write_report_rows_csv(rows, rows_csv)
        pdp_csv = io.StringIO()
        write_pdp_csv(timeline, pdp_csv)
        csv_lines = rows_csv.getvalue().strip().splitlines()[1:]
        gains = [float(line.split(",")[1]) for line in csv_lines]
        pdp_lines = pdp_csv.getvalue().strip().splitlines()[1:]
        pdp = np.array([[float(v) for v in line.split(",")]
                        for line in pdp_lines])

        n_approach, n_stop, n_pass = 12, 5, 13
        stop_rows = gains[n_approach:n_approach + n_stop]
        assert len(set(stop_rows)) == 1  # (a) exact plateau while stationary

        los_end = n_approach + n_stop + n_pass + 1
        onsets = []
        for prow in pdp[:los_end]:
            m = prow.max()
            onsets.append(int(np.argmax(prow >= m - 10.0)))
        pivot = int(np.argmin(onsets))
        down, up = onsets[:pivot + 1], onsets[pivot:]
        assert all(a >= b for a, b in zip(down, down[1:]))  # (b) V-shape
        assert all(a <= b for a, b in zip(up, up[1:]))
        assert onsets[0] > min(onsets) and onsets[los_end - 1] > min(onsets)

        los_max = max(gains[:los_end])
        shadow_max = max(gains[-3:])  # deep behind the corner
        assert los_max - shadow_max >= 20.0  # (c) occlusion drop

    check(7, "street canyon: stationary plateau, V-shaped LoS tap delay, "
             ">= 20 dB occlusion drop", body)


def test_criterion_8_noise_calibration():
    def body():
        unit = [1.0, 0.0]
        state = EmulatorState(CirTimeline([unit], 46.08e6, t_int=0.1), 1, 1536,
                              signal_gain_db=float("-inf"),
                              noise_power_db=-100.0, rng_seed=31)
        n_s = state.samples_per_slot
        zero = np.zeros(n_s)
        total = 0.0
        count = 0
        for i in range(50):  # 1.152e6 samples
            y = convolve_slot(state, i, zero)
            total += float(np.sum(np.abs(y) ** 2))
            count += n_s
        assert count >= 1_000_000
        assert total / count == pytest.approx(1e-10, rel=0.01)

    check(8, "signal off, -100 dB noise: mean output power 1e-10 within 1% "
             "over 1e6 samples", body)


def test_criterion_9_snapshot_scheduling():
    def body():
        first = [1.0, 0, 0, 0, 0, 0]
        second = [0, 0, 0, 0, 0, 1.0]
        state = EmulatorState(CirTimeline([first, second], 46.08e6, t_int=0.1),
                              1, 1536)  # 0.5 ms slots
        n_s = state.samples_per_slot
        assert state.slots_per_snapshot == 200
        impulse = np.zeros(n_s, complex)
        impulse[0] = 1.0
        boundary = None
        for i in range(state.capacity_slots):
            y = convolve_slot(state, i, impulse)
            tap = int(np.argmax(np.abs(y)))
            if tap != 0:
                boundary = i
                break
        assert boundary == 200

    check(9, "100 ms snapshots over 0.5 ms slots switch the CIR exactly at "
             "slot 200", body)
