import numpy as np
import pytest

from chanem.bench import bench
from chanem.emulator import SlotFormat
from chanem.errors import InvalidInputError

FULL_FMT = SlotFormat(fft_size=1536, f_samp=46.08e6)


def test_stats_fields_and_ordering():
    fmt = SlotFormat(fft_size=8, f_samp=8 * 15 / 0.5e-3)
    stats = bench(50, 4, fmt, seed=3)
    assert stats.slot_count == 50
    assert stats.l_sel == 4
    assert stats.samples_per_slot == 120
    assert 0.0 < stats.min_s <= stats.median_s <= stats.p99_s <= stats.max_s
    assert stats.budget_s == pytest.approx(0.5e-3)


def test_single_tap_is_faster_than_full_budget():
    lone = bench(300, 1, FULL_FMT, seed=0)
    budget = bench(300, 28, FULL_FMT, seed=0)
    assert lone.median_s < budget.median_s


def test_tap_budget_clamped_to_vector_length():
    fmt = SlotFormat(fft_size=8, f_samp=8 * 15 / 0.5e-3)
    stats = bench(10, 500, fmt, seed=1, l_max=12)
    assert stats.l_sel == 12


def test_slot_count_validated():
    with pytest.raises(InvalidInputError):
        bench(0, 4, FULL_FMT)


def test_deterministic_tap_selection_per_seed():
    fmt = SlotFormat(fft_size=8, f_samp=8 * 15 / 0.5e-3)
    a = bench(5, 6, fmt, seed=9)
    b = bench(5, 6, fmt, seed=9)
    assert a.l_sel == b.l_sel == 6


@pytest.mark.parametrize("l_sel", [0, -1])
def test_tap_budget_validated(l_sel):
    with pytest.raises(InvalidInputError, match="l_sel"):
        bench(2, l_sel, FULL_FMT)
