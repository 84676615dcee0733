import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from chanem.errors import InvalidInputError
from chanem.kpi import (MCS_TABLE_256QAM, REFERENCE_CARRIER, McsEntry, TddPattern,
                        cir_isi_check, effective_throughput, max_bitrate,
                        mcs_lookup, ofdm_feasibility, rms_delay_spread,
                        tdd_occupancy, tdd_occupancy_exact)
from chanem.propagation import DelayProfile


def table_cfg():
    return REFERENCE_CARRIER


def unity_mcs():
    # synthetic entry with spectral efficiency exactly 1 (2 * 512 / 1024)
    return McsEntry(index=0, q_m=2, code_rate_x1024=512, spectral_eff=1.0)


class TestTddOccupancy:
    def test_reference_pattern(self):
        dl, ul = tdd_occupancy(TddPattern.parse("DDDSU", "6,4,4"))
        assert dl == pytest.approx(48 / 70, abs=1e-9)
        assert ul == pytest.approx(18 / 70, abs=1e-9)

    def test_all_downlink(self):
        dl, ul = tdd_occupancy(TddPattern.parse("DDD", "6,4,4"))
        assert (dl, ul) == (1.0, 0.0)

    def test_symmetric_pattern(self):
        dl, ul = tdd_occupancy(TddPattern.parse("DSU", "7,0,7"))
        assert dl == pytest.approx(0.5)
        assert ul == pytest.approx(0.5)

    def test_fractions_sum_to_one_exactly(self):
        for pattern, special in [("DDDSU", "6,4,4"), ("DSU", "7,0,7"),
                                 ("DDSUU", "2,10,2"), ("U", "6,4,4")]:
            dl, ul, guard = tdd_occupancy_exact(TddPattern.parse(pattern, special))
            assert dl + ul + guard == Fraction(1)

    def test_special_symbols_must_sum_to_fourteen(self):
        with pytest.raises(InvalidInputError):
            TddPattern.parse("DDDSU", "6,4,5")

    @pytest.mark.parametrize("special", ["a,b,c", "6,4.5,4", ""])
    def test_special_counts_must_be_integers(self, special):
        with pytest.raises(InvalidInputError, match=f"got {special!r}"):
            TddPattern.parse("DDDSU", special)


class TestBitrate:
    def test_dl_coefficient(self):
        assert max_bitrate(table_cfg(), unity_mcs(), "dl") == pytest.approx(
            30.62976, abs=1e-6)

    def test_ul_coefficient(self):
        assert max_bitrate(table_cfg(), unity_mcs(), "ul") == pytest.approx(
            32.76672, abs=1e-6)

    def test_zero_efficiency_gives_zero(self):
        zero = McsEntry(index=0, q_m=2, code_rate_x1024=0, spectral_eff=0.0)
        assert max_bitrate(table_cfg(), zero, "dl") == 0.0

    def test_average_symbol_duration(self):
        # 1 ms subframe / (14 * 2^mu) symbols; 35.71 us at mu=1
        assert table_cfg().avg_symbol_duration == pytest.approx(35.714e-6, rel=1e-4)

    @pytest.mark.parametrize("field, value", [
        ("numerology_mu", -1), ("numerology_mu", 7), ("numerology_mu", 1100),
        ("fft_size", 0), ("fft_size", -1536), ("n_prb", 0),
        ("fft_size", 10**400), ("n_prb", 10**400),
    ])
    def test_meaningless_numerology_rejected(self, field, value):
        # mu 1100 overflowed 2**mu; fft_size 0 gave a zero symbol duration;
        # 10**400 overflowed the first float product
        assert dataclasses.replace(table_cfg(), numerology_mu=6).numerology_mu == 6
        with pytest.raises(InvalidInputError, match=field):
            dataclasses.replace(table_cfg(), **{field: value})


class TestEffectiveThroughput:
    def test_dl_worked_example(self):
        t = effective_throughput(table_cfg(), mcs_lookup(27), 0.001656, "dl")
        assert t == pytest.approx(155.2989, abs=1e-3)

    def test_ul_worked_example(self):
        t = effective_throughput(table_cfg(), mcs_lookup(10), 0.163917, "ul")
        assert t == pytest.approx(18.106756, abs=1e-3)

    def test_occupancy_scaled_constants(self):
        dl = effective_throughput(table_cfg(), unity_mcs(), 0.0, "dl")
        ul = effective_throughput(table_cfg(), unity_mcs(), 0.0, "ul")
        assert dl == pytest.approx(21.003264, abs=1e-6)
        assert ul == pytest.approx(8.425728, abs=1e-6)

    def test_total_bler_kills_throughput(self):
        assert effective_throughput(table_cfg(), mcs_lookup(27), 1.0, "dl") == 0.0

    def test_monotone_in_bler_and_efficiency(self):
        cfg = table_cfg()
        ts = [effective_throughput(cfg, mcs_lookup(20), b, "dl")
              for b in (0.0, 0.1, 0.5, 0.9)]
        assert all(t1 > t2 for t1, t2 in zip(ts, ts[1:]))
        ts = [effective_throughput(cfg, mcs_lookup(i), 0.1, "ul")
              for i in range(28)]
        assert all(t1 < t2 for t1, t2 in zip(ts, ts[1:]))

    def test_baseline_prediction_upper_bounds_measurement(self):
        # reported long-run DL average: MCS 27, BLER 2.62e-5, 150.14 Mbps
        t = effective_throughput(table_cfg(), mcs_lookup(27), 2.62e-5, "dl")
        assert t == pytest.approx(155.55, abs=0.01)
        assert t >= 150.14


class TestMcsTable:
    def test_anchor_rows(self):
        assert mcs_lookup(27).q_m == 8
        assert mcs_lookup(27).code_rate_x1024 == 948
        assert mcs_lookup(27).spectral_eff == 7.4063
        assert mcs_lookup(10).q_m == 4
        assert mcs_lookup(10).spectral_eff == 2.5703

    def test_lowest_entry(self):
        entry = mcs_lookup(0)
        assert entry.q_m == 2
        assert entry.spectral_eff == min(e.spectral_eff for e in MCS_TABLE_256QAM)

    def test_strictly_increasing_efficiency(self):
        effs = [e.spectral_eff for e in MCS_TABLE_256QAM]
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            mcs_lookup(28)
        with pytest.raises(InvalidInputError):
            mcs_lookup(-1)

    def test_listed_efficiency_consistent_with_rate(self):
        # entries carry the standard's half-up 4-decimal values
        for e in MCS_TABLE_256QAM:
            McsEntry(e.index, e.q_m, e.code_rate_x1024, e.spectral_eff)


class TestRmsDelaySpread:
    def test_single_path_is_zero(self):
        p = DelayProfile(amps=[1.0 + 0j], delays=[4e-7])
        assert rms_delay_spread(p) == 0.0

    def test_two_equal_paths(self):
        p = DelayProfile(amps=[1.0, 1.0], delays=[0.0, 1e-6])
        assert rms_delay_spread(p) == pytest.approx(0.5e-6)

    def test_three_to_one_power_split(self):
        p = DelayProfile(amps=[math.sqrt(3.0), 1.0], delays=[0.0, 1e-6])
        assert rms_delay_spread(p) == pytest.approx(0.4330e-6, abs=1e-10)

    def test_zero_power_profile_rejected(self):
        with pytest.raises(InvalidInputError):
            rms_delay_spread(DelayProfile(amps=[], delays=[]))
        with pytest.raises(InvalidInputError):
            rms_delay_spread(DelayProfile(amps=[0.0], delays=[1e-6]))


class TestOfdmFeasibility:
    def test_reference_speed_anchors(self):
        v = ofdm_feasibility(table_cfg(), sigma_tau=0.2e-6, speed=11.78)
        assert v.fading_period == pytest.approx(6.332e-3, abs=1e-6)
        assert v.doppler_freq == pytest.approx(158.0, abs=1.0)
        assert v.all_ok

    def test_cp_durations(self):
        cfg = table_cfg()
        assert cfg.cp_long_samples == 132
        assert cfg.cp_short_samples == 106
        assert cfg.cp_long_samples / cfg.f_samp == pytest.approx(2.86e-6, abs=5e-9)
        v = ofdm_feasibility(cfg, 0.0, 1.0)
        assert v.guard_interval == pytest.approx(2.30e-6, abs=5e-9)
        assert v.symbol_duration == pytest.approx(33.3e-6, abs=5e-8)

    def test_zero_speed_gives_static_channel(self):
        v = ofdm_feasibility(table_cfg(), sigma_tau=1e-7, speed=0.0)
        assert v.doppler_freq == 0.0
        assert math.isinf(v.fading_period)
        assert v.coherence_ok

    def test_margin_is_configurable(self):
        cfg = table_cfg()
        # T_GI * 10 <= T_OFDM holds, * 20 does not (2.3 us vs 33.3 us)
        assert ofdm_feasibility(cfg, 0.0, 1.0, margin=10.0).guard_ok
        assert not ofdm_feasibility(cfg, 0.0, 1.0, margin=20.0).guard_ok

    @pytest.mark.parametrize("sigma_tau, speed, margin, name", [
        (0.0, math.nan, 10.0, "speed"), (0.0, math.inf, 10.0, "speed"),
        (-1.0, 1.0, 10.0, "sigma_tau"), (math.nan, 1.0, 10.0, "sigma_tau"),
        (math.inf, 1.0, 10.0, "sigma_tau"), (0.0, 1.0, math.nan, "margin"),
        (0.0, 1.0, math.inf, "margin"), (0.0, 1.0, -1.0, "margin"),
    ])
    def test_non_finite_or_out_of_range_inputs_rejected(self, sigma_tau, speed,
                                                        margin, name):
        # a nan speed read as a static channel, an infinite one as t_f = 0
        with pytest.raises(InvalidInputError, match=name):
            ofdm_feasibility(table_cfg(), sigma_tau, speed, margin=margin)


class TestCirIsiCheck:
    def cfg(self):
        return table_cfg()

    def test_energy_within_cp_passes(self):
        taps = np.zeros(146, complex)
        taps[:100] = 0.1
        result = cir_isi_check(taps, self.cfg())
        assert result.ok and bool(result)

    def test_strong_late_tap_reported(self):
        taps = np.zeros(146, complex)
        taps[0] = 1.0
        taps[140] = 0.5
        result = cir_isi_check(taps, self.cfg())
        assert not result.ok
        assert result.offending_indices == (140,)

    def test_late_tap_below_floor_ignored(self):
        taps = np.zeros(146, complex)
        taps[0] = 1.0
        taps[140] = 1e-3  # -60 dB relative
        result = cir_isi_check(taps, self.cfg())
        assert result.ok
