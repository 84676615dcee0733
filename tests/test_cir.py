import itertools
import math

import numpy as np
import pytest

from chanem.cir import (CirConfig, DEFAULT_TAP_BUDGET, MAX_TAP_VECTOR_LEN,
                        SINC_GUARD_TAPS, discretize, path_gain_total,
                        sort_truncate)
from chanem.timeline import timeline_from_profiles
from chanem.errors import InvalidInputError
from chanem.propagation import DelayProfile

F_SAMP = 46.08e6


def make_profile(amps, delays):
    return DelayProfile(amps=np.asarray(amps, complex),
                        delays=np.asarray(delays, float))


def test_tap_grid_size_at_system_rate():
    cfg = CirConfig(f_samp=F_SAMP, max_delay_spread=3e-6)
    assert cfg.l_max == 146
    assert cfg.k_max == 145
    taps = discretize(make_profile([1.0], [0.0]), cfg)
    assert len(taps) == 146


def test_tap_vector_length_is_bounded():
    # l_max = ceil(spread * rate) + guard + 1 reaches the limit exactly ...
    span = MAX_TAP_VECTOR_LEN - SINC_GUARD_TAPS - 1
    assert CirConfig(f_samp=1.0, max_delay_spread=span).l_max == MAX_TAP_VECTOR_LEN
    # ... and one tap more, a finite but huge product, or an overflowing one
    # is rejected before anything is sized by it
    for f_samp, spread in [(1.0, span + 0.5), (F_SAMP, 1.0), (1e300, 1e300)]:
        with pytest.raises(InvalidInputError, match="tap vector limit"):
            CirConfig(f_samp=f_samp, max_delay_spread=spread)
    assert MAX_TAP_VECTOR_LEN > 100 * CirConfig(f_samp=F_SAMP).l_max


def test_on_grid_impulse_lands_on_single_tap():
    cfg = CirConfig(f_samp=F_SAMP)
    taps = discretize(make_profile([1.0], [0.0]), cfg)
    assert taps[0] == pytest.approx(1.0)
    assert np.max(np.abs(taps[1:])) < 1e-12


def test_half_sample_delay_spreads_symmetrically():
    cfg = CirConfig(f_samp=F_SAMP)
    taps = discretize(make_profile([1.0], [0.5 / F_SAMP]), cfg)
    assert taps[0].real == pytest.approx(2 / math.pi, abs=1e-5)   # sinc(-0.5)
    assert taps[1].real == pytest.approx(0.63662, abs=1e-5)
    assert taps[2].real == pytest.approx(-0.21221, abs=1e-5)      # sinc(1.5)


def test_empty_profile_gives_zero_taps():
    cfg = CirConfig(f_samp=F_SAMP)
    taps = discretize(make_profile([], []), cfg)
    assert np.all(taps == 0)


def test_delay_beyond_spread_names_path():
    cfg = CirConfig(f_samp=F_SAMP, max_delay_spread=3e-6)
    with pytest.raises(InvalidInputError,
                       match=r"^path 1 delay 4e-06 s exceeds max delay spread 3e-06 s$"):
        discretize(make_profile([1.0, 1.0], [1e-6, 4e-6]), cfg)


def test_overflowing_tap_sum_is_named():
    # two finite amplitudes on one tap whose sum is not
    cfg = CirConfig(f_samp=F_SAMP)
    bad = make_profile([1.7e308j, -1 + 1.7e308j], [0.0, 0.0])
    with pytest.raises(InvalidInputError,
                       match=r"^tap 0 = \(-1\+infj\) is not finite: the path amplitudes"):
        discretize(bad, cfg)
    with pytest.raises(InvalidInputError, match=r"^snapshot 1: tap 0 = "):
        timeline_from_profiles([make_profile([1.0], [0.0]), bad], cfg, 0.1)


def test_amplitude_near_the_largest_float_discretizes_without_warning():
    # at an odd tap count (17 here) numpy's complex product flags an overflow
    # for this amplitude, though every tap is finite
    cfg = CirConfig(f_samp=F_SAMP, max_delay_spread=2e-7)
    assert cfg.l_max == 17
    taps = discretize(make_profile([-1.7e308 - 1.7e308j], [0.0]), cfg)
    assert taps[0] == -1.7e308 - 1.7e308j
    assert np.all(np.isfinite(taps))


def test_discretize_is_linear():
    rng = np.random.default_rng(5)
    cfg = CirConfig(f_samp=F_SAMP)
    a = make_profile(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                     rng.uniform(0, 2.5e-6, 4))
    b = make_profile(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                     rng.uniform(0, 2.5e-6, 3))
    merged = make_profile(np.concatenate([a.amps, b.amps]),
                          np.concatenate([a.delays, b.delays]))
    lhs = discretize(merged, cfg)
    rhs = discretize(a, cfg) + discretize(b, cfg)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_on_grid_profile_reconstructs_exactly():
    rng = np.random.default_rng(11)
    cfg = CirConfig(f_samp=F_SAMP)
    ks = rng.choice(130, size=6, replace=False)
    amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    taps = discretize(make_profile(amps, ks / F_SAMP), cfg)
    expect = np.zeros(cfg.l_max, complex)
    expect[ks] = amps
    np.testing.assert_allclose(taps, expect, atol=1e-11)


def test_sort_truncate_picks_strongest():
    sel = sort_truncate([0.0, 3.0, 1.0 + 1.0j, 0.5], 2)
    np.testing.assert_array_equal(sel.indices, [1, 2])
    np.testing.assert_array_equal(sel.amps, [3.0, 1.0 + 1.0j])
    assert sel.retained_power == pytest.approx(9.0 + 2.0)
    assert sel.total_power == pytest.approx(9.0 + 2.0 + 0.25)


def test_sort_truncate_keeps_all_when_budget_large():
    rng = np.random.default_rng(3)
    taps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    taps[[2, 7]] = 0.0
    sel = sort_truncate(taps, 100)
    assert sel.l_sel == 10  # zero taps never selected
    assert sel.retained_power == pytest.approx(sel.total_power)
    assert sorted(sel.indices) == [k for k in range(12) if k not in (2, 7)]


def test_sort_truncate_tie_breaks_to_smaller_index():
    sel = sort_truncate([0.5, -0.5, 0.5j], 2)
    np.testing.assert_array_equal(sel.indices, [0, 1])


def test_sort_truncate_power_descending_invariant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        taps = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        sel = sort_truncate(taps, 7)
        powers = np.abs(sel.amps) ** 2
        assert np.all(np.diff(powers) <= 1e-15)
        assert len(set(sel.indices.tolist())) == sel.l_sel


def test_truncation_is_energy_optimal_for_small_vectors():
    rng = np.random.default_rng(17)
    for _ in range(25):
        l_max = rng.integers(3, 13)
        taps = rng.standard_normal(l_max) + 1j * rng.standard_normal(l_max)
        l_sel = int(rng.integers(1, l_max + 1))
        sel = sort_truncate(taps, l_sel)
        powers = np.abs(taps) ** 2
        best = max(sum(powers[list(combo)])
                   for combo in itertools.combinations(range(l_max),
                                                       min(l_sel, l_max)))
        assert sel.retained_power == pytest.approx(best)
        # L2 truncation error equals the dropped power
        dense = np.zeros(l_max, complex)
        dense[sel.indices] = sel.amps
        err = np.sum(np.abs(taps - dense) ** 2)
        assert err == pytest.approx(sel.total_power - sel.retained_power)


def test_invalid_budget_rejected():
    with pytest.raises(InvalidInputError):
        sort_truncate([1.0], 0)


def test_default_tap_budget_value():
    assert DEFAULT_TAP_BUDGET == 28


def test_path_gain_total():
    assert path_gain_total([1.0]) == pytest.approx(0.0)
    assert path_gain_total([0.5, 0.5]) == pytest.approx(0.0)
    assert path_gain_total([0.5, -0.5]) == float("-inf")
