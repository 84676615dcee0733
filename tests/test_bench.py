import numpy as np
import pytest

from chanem.bench import MAX_SLOT_COUNT, bench
from chanem.cir import CirConfig
from chanem.errors import InvalidInputError

FULL_FMT = (1536, 46.08e6)      # (fft_size, f_samp): N_s = 23040
SMALL_FMT = (8, 8 * 15 / 0.5e-3)  # N_s = 120


def test_stats_fields_and_ordering():
    stats = bench(50, 4, *SMALL_FMT, seed=3)
    assert stats.slot_count == 50
    assert stats.l_sel == 4
    assert stats.samples_per_slot == 120
    assert 0.0 < stats.min_s <= stats.median_s <= stats.p99_s <= stats.max_s
    assert stats.budget_s == pytest.approx(0.5e-3)


def test_single_tap_is_faster_than_full_budget():
    lone = bench(300, 1, *FULL_FMT, seed=0)
    budget = bench(300, 28, *FULL_FMT, seed=0)
    assert lone.median_s < budget.median_s


def test_tap_budget_clamped_to_vector_length():
    stats = bench(10, 500, *SMALL_FMT, seed=1)
    assert stats.l_sel == CirConfig(f_samp=SMALL_FMT[1]).l_max == 8


def test_slot_count_validated():
    for slot_count in (0, MAX_SLOT_COUNT + 1):
        with pytest.raises(InvalidInputError, match="slot_count"):
            bench(slot_count, 4, *FULL_FMT)


def test_deterministic_tap_selection_per_seed():
    a = bench(5, 6, *SMALL_FMT, seed=9)
    b = bench(5, 6, *SMALL_FMT, seed=9)
    assert a.l_sel == b.l_sel == 6


@pytest.mark.parametrize("l_sel", [0, -1])
def test_tap_budget_validated(l_sel):
    with pytest.raises(InvalidInputError, match="l_sel"):
        bench(2, l_sel, *FULL_FMT)


@pytest.mark.parametrize("fft_size", [0, -1])
def test_fft_size_validated(fft_size):
    # the emulator's slot rule rejects it, before a timeline is sized from it
    with pytest.raises(InvalidInputError, match="fft_size must be an integer >= 1"):
        bench(10, 4, fft_size, FULL_FMT[1])
