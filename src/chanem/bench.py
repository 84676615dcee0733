"""Per-slot convolution latency measurement against the slot-period budget."""

import math
import time
from dataclasses import dataclass

import numpy as np

from .cir import CirConfig
from .emulator import NOISE_OFF_DB, EmulatorState, convolve_slot, samples_per_slot
from .errors import InvalidInputError
from .timeline import CirTimeline


@dataclass(frozen=True)
class BenchStats:
    """Latency summary of a bench run."""

    slot_count: int
    l_sel: int
    samples_per_slot: int
    min_s: float
    median_s: float
    p99_s: float
    max_s: float
    budget_s: float

    @property
    def passed(self):
        return self.median_s < self.budget_s


def bench(slot_count, l_sel, fft_size, f_samp, seed=0, noise_power_db=NOISE_OFF_DB):
    """Time ``convolve_slot`` over synthetic random slots of
    ``samples_per_slot(fft_size)`` samples at ``f_samp``, with up to ``l_sel``
    taps of ``CirConfig(f_samp=f_samp)``.

    Only the convolution call is timed (the stage that
    :func:`~chanem.emulator.run_scenario` times); input generation happens
    outside the timer.  Noise defaults to off so the measurement isolates the tap
    accumulation (enable it via ``noise_power_db`` to measure the full path).
    """
    if slot_count < 1:
        raise InvalidInputError(f"slot_count must be >= 1, got {slot_count}")
    if l_sel < 1:
        raise InvalidInputError(f"l_sel must be >= 1, got {l_sel}")
    n_s = samples_per_slot(fft_size)
    l_max = CirConfig(f_samp=f_samp).l_max
    rng = np.random.default_rng(seed % (1 << 64))  # as EmulatorState keys its noise
    l_sel = min(l_sel, l_max)
    indices = rng.choice(l_max, size=l_sel, replace=False)
    taps = np.zeros((1, l_max), dtype=np.complex128)
    taps[0, indices] = rng.standard_normal(l_sel) + 1j * rng.standard_normal(l_sel)
    timeline = CirTimeline(taps, f_samp, t_int=slot_count * (n_s / f_samp))

    state = EmulatorState(timeline, l_sel, fft_size, noise_power_db=noise_power_db,
                          rng_seed=seed)
    pool = [
        rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
        for _ in range(min(8, slot_count))
    ]
    latencies = []
    for i in range(slot_count):
        t0 = time.perf_counter()
        convolve_slot(state, i, pool[i % len(pool)])
        latencies.append(time.perf_counter() - t0)
    latencies.sort()
    return BenchStats(
        slot_count=slot_count,
        l_sel=l_sel,
        samples_per_slot=n_s,
        min_s=latencies[0],
        median_s=latencies[slot_count // 2],
        p99_s=latencies[min(slot_count - 1, math.ceil(0.99 * slot_count) - 1)],
        max_s=latencies[-1],
        budget_s=state.slot_duration,
    )
