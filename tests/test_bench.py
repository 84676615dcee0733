import dataclasses
import importlib
import itertools
from types import SimpleNamespace

import pytest

from chanem import emulator
from chanem.bench import MAX_SLOT_COUNT, BenchStats, bench
from chanem.cir import CirConfig
from chanem.errors import InvalidInputError
from chanem.iqstream import FMT_F32

# the package exports the function bench under the module's name
bench_module = importlib.import_module("chanem.bench")

FULL_FMT = (1536, 46.08e6)      # (fft_size, f_samp): N_s = 23040
SMALL_FMT = (8, 8 * 15 / 0.5e-3)  # N_s = 120


def test_stats_fields_and_ordering():
    stats = bench(50, 4, *SMALL_FMT, seed=3)
    assert stats.slot_count == 50
    assert stats.l_sel == 4
    assert stats.samples_per_slot == 120
    assert 0.0 < stats.min_s <= stats.median_s <= stats.p99_s <= stats.max_s
    assert stats.budget_s == pytest.approx(0.5e-3)
    # a driver step holds its convolve stage, so it is no shorter
    assert stats.median_s <= stats.slot_median_s <= stats.slot_p99_s
    assert stats.p99_s <= stats.slot_p99_s


def test_every_slot_goes_through_the_one_frame_driver(monkeypatch):
    # 20 slots wrap the 8-frame ring twice, so a frame served with a stale
    # slot_index would end the run in an "arrived, expected" error
    decoded, encoded, driven = [], [], []
    read_frame, write_frame = emulator.read_frame, emulator.write_frame
    run_scenario = bench_module.run_scenario

    def counting_read(fh, samples, bufs=None):
        frame = read_frame(fh, samples, bufs)
        if frame is not None:
            decoded.append(frame)
        return frame

    def counting_write(fh, slot_index, samples, fmt, bufs=None):
        encoded.append((slot_index, fmt))
        return write_frame(fh, slot_index, samples, fmt, bufs)

    def counting_run(state, rf, wf):
        for step in run_scenario(state, rf, wf):
            driven.append(step[0])
            yield step

    monkeypatch.setattr(emulator, "read_frame", counting_read)
    monkeypatch.setattr(emulator, "write_frame", counting_write)
    monkeypatch.setattr(bench_module, "run_scenario", counting_run)
    stats = bench(20, 4, *SMALL_FMT, seed=3)
    assert stats.slot_count == 20
    assert decoded == encoded == [(i, FMT_F32) for i in range(20)]
    assert driven == list(range(20))


def test_every_second_is_read_from_the_driver_clock(monkeypatch):
    # a clock that advances 1 per read: each stage of run_scenario spans one
    # tick, so a figure from any other clock would read otherwise
    ticks = itertools.count()
    monkeypatch.setattr(emulator, "time",
                        SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    stats = bench(5, 4, *SMALL_FMT)
    assert stats.min_s == stats.median_s == stats.p99_s == stats.max_s == 1
    assert stats.slot_median_s == stats.slot_p99_s == 3


def test_passed_judges_the_whole_driver_step():
    # the convolve stage fits the budget, the step from frame in to frame out not
    stats = BenchStats(10, 28, 23040, 0.3e-3, 0.4e-3, 0.45e-3, 0.6e-3, 0.5e-3,
                       0.55e-3, 0.7e-3)
    assert not stats.passed
    assert dataclasses.replace(stats, slot_median_s=0.49e-3).passed


def test_single_tap_is_faster_than_full_budget():
    # the fastest slot of each run: a load burst lifts it only by covering
    # all 300 slots, where it can lift a median by covering half
    lone = bench(300, 1, *FULL_FMT, seed=0)
    budget = bench(300, 28, *FULL_FMT, seed=0)
    assert lone.min_s < budget.min_s


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
