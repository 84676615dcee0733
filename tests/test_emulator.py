import io
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chanem.emulator import (CARRY, HEADROOM_DB, MAX_SLOT_SAMPLES, ZERO,
                             EmulatorState, calibrate_signal_gain, convolve_slot,
                             noise_block, run_scenario)
from chanem.errors import (EndOfScenario, InvalidInputError, NoReferenceError,
                           SequencingError)
from chanem.iqstream import FMT_F32, read_frame, write_frame
from chanem.timeline import CirTimeline

# small format for unit tests: N_s = 120 samples, 0.5 ms slots
FFT = 8
F_SAMP = FFT * 15 / 0.5e-3
N_S = 120


def dense_cir(indices, amps, l_max=16):
    taps = np.zeros(l_max, complex)
    taps[np.asarray(indices)] = amps
    return taps


def make_state(snapshots, l_sel=16, t_int=0.1, **kw):
    return EmulatorState(CirTimeline(snapshots, F_SAMP, t_int), l_sel, FFT, **kw)


def random_slots(rng, count):
    return [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
            for _ in range(count)]


def noise_stream(seed, fft_size=1536):
    """A unit-power, noise-only stream of 15 * fft_size samples per slot."""
    return EmulatorState(CirTimeline([[1.0]], fft_size * 15 / 0.5e-3, 0.5e-3), 1,
                         fft_size, noise_power_db=0.0, rng_seed=seed)


def slot_noise(seed, slots, fft_size=1536):
    """Copies of the noise of the given slots of one stream."""
    state = noise_stream(seed, fft_size)
    return [noise_block(state, k).copy() for k in slots]


def noise_samples(seed, first, count):
    """``count`` noise samples from consecutive 23040-sample slots of one
    stream, starting at slot ``first``."""
    state = noise_stream(seed)
    slots = range(first, first + -(-count // state.samples_per_slot))
    return np.concatenate([noise_block(state, k).copy() for k in slots])[:count]


def correlation(a, b):
    """(1/N) * sum_n a[n + d] conj(b[n]) at every lag d, by FFT; lag d is
    entry d for d >= 0 and entry len - |d| for d < 0."""
    n = len(a)
    size = 1 << (2 * n - 1).bit_length()
    r = np.fft.ifft(np.fft.fft(a, size) * np.conj(np.fft.fft(b, size)))
    return np.concatenate([r[:n], r[size - n + 1:]]) / n


def owiq(slots):
    """The slots as a stream of f32 OWIQ frames, read from the start."""
    rf = io.BytesIO()
    for i, x in enumerate(slots):
        write_frame(rf, i, x, fmt=FMT_F32)
    rf.seek(0)
    return rf


class Sink:
    """A frame writer that keeps nothing."""

    def write(self, data):
        return len(data)


def decode(wf):
    """Every frame written to ``wf``, decoded."""
    wf.seek(0)
    buf = np.empty(N_S, complex)
    frames = []
    while read_frame(wf, buf) is not None:
        frames.append(buf.copy())
    return frames


def slot_state(fft_size, f_samp, **kw):
    """A one-snapshot stream of one-slot capacity at the given slot format."""
    return EmulatorState(CirTimeline([[1.0]], f_samp, fft_size * 15 / f_samp), 1,
                         fft_size, **kw)


class TestSlotFormat:
    """The slot format an :class:`EmulatorState` derives from ``fft_size``
    and the timeline's rate."""

    def test_samples_per_slot_is_fft_times_fifteen(self):
        state = slot_state(1536, 46.08e6)
        assert state.samples_per_slot == 23040
        assert state.slot_duration == pytest.approx(0.5e-3)
        assert state.samples_per_slot == round(46.08e6 * state.slot_duration)

    @pytest.mark.parametrize("f_samp", [float("nan"), float("inf"), 0.0])
    def test_rate_must_be_finite_and_positive(self, f_samp):
        # the slot rate is the timeline's, checked when the timeline is built
        with pytest.raises(InvalidInputError, match="f_samp"):
            CirTimeline([[1.0]], f_samp, 0.5e-3)

    @pytest.mark.parametrize("fft_size", [2.5, 8.0, "4", True, None, 0, -3])
    def test_fft_size_must_be_an_integer(self, fft_size):
        # rejected before N_s sizes anything (2.5 would give 37.5 samples)
        timeline = CirTimeline([[1.0]], F_SAMP, 0.5e-3)
        with pytest.raises(InvalidInputError, match="fft_size must be an integer"):
            EmulatorState(timeline, 1, fft_size)

    def test_numpy_integer_fft_size_is_accepted(self):
        state = slot_state(np.int64(8), F_SAMP)
        assert state.samples_per_slot == 120
        assert len(state.out) == 120

    def test_slot_length_is_bounded(self):
        # OAI's 6144-point FFT fits; one FFT point past the limit, or a
        # billion, is rejected before any slot-sized array exists
        assert slot_state(6144, 184.32e6).samples_per_slot == 92160
        largest = MAX_SLOT_SAMPLES // 15
        assert slot_state(largest, 1.0).samples_per_slot <= MAX_SLOT_SAMPLES
        for fft_size in (largest + 1, 10**9):
            with pytest.raises(InvalidInputError, match=f"{MAX_SLOT_SAMPLES}-sample limit"):
                slot_state(fft_size, 46.08e6)


class TestEmulatorState:
    @pytest.mark.parametrize("fft_size", [1, 8, 1536])
    def test_axpy_accumulators_are_cache_line_aligned(self, fft_size):
        # numpy promises 16 bytes; zaxpy ran about 20% slower on an `out`
        # 16 bytes past a 32-byte boundary
        for _ in range(4):
            state = slot_state(fft_size, fft_size * 15 / 0.5e-3, noise_power_db=0.0)
            assert state.out.ctypes.data % 64 == 0
            assert state.noise.ctypes.data % 64 == 0
            assert len(state.out) == len(state.noise) == state.samples_per_slot
            assert state.out.dtype == np.complex128 and state.noise.dtype == np.complex64

    @pytest.mark.parametrize("linalg_first", [True, False])
    def test_blas_routines_are_scipy_linalg_blas(self, linalg_first):
        # the state loads scipy's BLAS extension alone; whichever of the two
        # is imported first, scipy.linalg.blas exports the very same routines
        # (in a fresh interpreter, where scipy.linalg is not yet imported)
        script = textwrap.dedent(f"""
            import sys
            if {linalg_first}:
                import scipy.linalg.blas
            from chanem.emulator import EmulatorState
            from chanem.timeline import CirTimeline
            state = EmulatorState(CirTimeline([[1.0, 0.3]], 240000.0, 0.05), 2, 8)
            print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
            import scipy.linalg.blas
            assert state.zaxpy is scipy.linalg.blas.zaxpy
            assert state.caxpy is scipy.linalg.blas.caxpy
            """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"scipy.linalg loaded: {linalg_first}\n"

    def test_missing_blas_extension_names_where_it_looked(self, monkeypatch):
        import importlib.machinery
        import scipy
        monkeypatch.delitem(sys.modules, "scipy.linalg._fblas", raising=False)
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            lambda *args, **kwargs: None)
        with pytest.raises(ImportError) as exc:
            make_state([dense_cir([0], [1.0])])
        assert os.path.join(os.path.dirname(scipy.__file__), "linalg") in str(exc.value)


class TestConvolveSlot:
    def test_identity_channel(self):
        state = make_state([dense_cir([0], [1.0])])
        rng = np.random.default_rng(0)
        x = rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
        y = convolve_slot(state, 0, x)
        np.testing.assert_array_equal(y, x)

    def test_delayed_tap_reads_previous_slot_tail(self):
        a = 0.7 - 0.2j
        state = make_state([dense_cir([5], [a])])
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
        x1 = rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
        convolve_slot(state, 0, x0)
        y1 = convolve_slot(state, 1, x1)
        for n in range(5):
            assert y1[n] == pytest.approx(a * x0[N_S - 5 + n])
        np.testing.assert_allclose(y1[5:], a * x1[:-5], rtol=1e-12)

    def test_zero_history_mode_isolates_slots(self):
        a = 0.7 - 0.2j
        state = make_state([dense_cir([5], [a])], history_mode=ZERO)
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
        x1 = rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
        convolve_slot(state, 0, x0)
        y1 = convolve_slot(state, 1, x1)
        np.testing.assert_array_equal(y1[:5], np.zeros(5))

    def test_full_budget_matches_dense_convolution(self):
        rng = np.random.default_rng(3)
        l_max = 16
        taps = rng.standard_normal(l_max) + 1j * rng.standard_normal(l_max)
        state = make_state([taps], l_sel=l_max)
        slots = random_slots(rng, 3)
        got = np.concatenate(
            [convolve_slot(state, i, s).copy() for i, s in enumerate(slots)])
        stream = np.concatenate(slots)
        want = np.convolve(stream, taps)[:len(stream)]
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 1e-6

    def test_linearity_with_noise_off(self):
        rng = np.random.default_rng(4)
        cir = dense_cir([0, 3, 9], [1.0, 0.5j, -0.25])
        alpha, beta = 1.7 - 0.3j, -0.6 + 1.1j
        x1 = [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
              for _ in range(2)]
        x2 = [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
              for _ in range(2)]

        def run(xs):
            state = make_state([cir])
            return np.concatenate(
                [convolve_slot(state, i, x).copy()
                 for i, x in enumerate(xs)])

        lhs = run([alpha * a + beta * b for a, b in zip(x1, x2)])
        rhs = alpha * run(x1) + beta * run(x2)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-9

    def test_time_invariance_within_snapshot(self):
        rng = np.random.default_rng(5)
        cir = dense_cir([2, 7], [1.0, -0.4j])
        x = rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
        zero = np.zeros(N_S, complex)

        def run(xs):
            state = make_state([cir])
            return [convolve_slot(state, i, s).copy()
                    for i, s in enumerate(xs)]

        direct = run([x, zero, zero])
        shifted = run([zero, x, zero])
        np.testing.assert_allclose(shifted[1], direct[0], atol=1e-15)
        np.testing.assert_allclose(shifted[2], direct[1], atol=1e-15)

    def test_stream_buffers_are_reused(self):
        a = 0.7 - 0.2j
        rng = np.random.default_rng(12)
        x0, x1 = random_slots(rng, 2)
        cir = dense_cir([0, 5], [1.0, a])
        state = make_state([cir])
        want = [convolve_slot(state, i, x).copy() for i, x in enumerate((x0, x1))]
        state = make_state([cir])
        outs = []
        for i, x in enumerate((x0, x1)):
            state.slot[:] = x  # decoded in place, as run_scenario does
            outs.append(convolve_slot(state, i, state.slot))
            np.testing.assert_array_equal(outs[-1], want[i])
        assert outs[0] is outs[1] is state.out
        np.testing.assert_array_equal(state.ext[:state.hist], x1[-state.hist:])  # carried

    @pytest.mark.parametrize("mode", [CARRY, ZERO])
    def test_history_longer_than_a_slot(self, mode):
        rng = np.random.default_rng(13)
        taps = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        state = EmulatorState(CirTimeline([taps], 15 / 0.5e-3, 0.1), 40, 1,  # N_s = 15
                              history_mode=mode)
        slots = [rng.standard_normal(15) + 1j * rng.standard_normal(15)
                 for _ in range(6)]
        got = np.concatenate([convolve_slot(state, i, x).copy()
                              for i, x in enumerate(slots)])
        if mode == ZERO:
            want = np.concatenate([np.convolve(x, taps)[:15] for x in slots])
        else:
            want = np.convolve(np.concatenate(slots), taps)[:90]
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    def test_out_of_order_slot_rejected(self):
        state = make_state([dense_cir([0], [1.0])])
        convolve_slot(state, 0, np.zeros(N_S))
        with pytest.raises(SequencingError):
            convolve_slot(state, 2, np.zeros(N_S))

    def test_snapshot_schedule_switches_every_200_slots(self):
        first = dense_cir([0], [1.0])
        second = dense_cir([5], [1.0])
        state = make_state([first, second])
        assert state.slots_per_snapshot == 200
        impulse = np.zeros(N_S, complex)
        impulse[0] = 1.0
        boundary = None
        for i in range(state.capacity_slots):
            y = convolve_slot(state, i, impulse)
            tap = int(np.argmax(np.abs(y)))
            if tap != 0 and boundary is None:
                boundary = i
        assert boundary == 200

    def test_capacity_and_end_of_scenario(self):
        state = make_state([dense_cir([0], [1.0])] * 2)
        assert state.capacity_slots == 400
        state.next_slot_index = 400
        with pytest.raises(EndOfScenario):
            convolve_slot(state, 400, np.zeros(N_S))

    def test_t_int_must_be_slot_multiple(self):
        with pytest.raises(InvalidInputError):
            make_state([dense_cir([0], [1.0])], t_int=0.00075)

    def test_full_scale_scenario_capacity(self):
        # 570 snapshots at 100 ms over 0.5 ms slots accept 114000 slots
        timeline = CirTimeline([dense_cir([0], [1.0], l_max=146)] * 570, 46.08e6, 0.1)
        state = EmulatorState(timeline, 1, 1536)
        assert state.slots_per_snapshot == 200
        assert state.capacity_slots == 114000

    def test_nan_input_rejected_by_cir(self):
        with pytest.raises(InvalidInputError):
            CirTimeline([[1.0, float("nan")]], F_SAMP, 0.1)

    @pytest.mark.parametrize("field, value", [
        ("noise_power_db", float("nan")), ("noise_power_db", float("inf")),
        ("signal_gain_db", float("nan")),
    ])
    def test_non_finite_levels_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            make_state([dense_cir([0], [1.0])], **{field: value})


class TestNoise:
    def test_mean_power_calibrated_to_minus_100_db(self):
        state = make_state([dense_cir([0], [1.0])],
                           signal_gain_db=float("-inf"), noise_power_db=-100.0,
                           rng_seed=11)
        zero = np.zeros(N_S)
        total = 0.0
        count = 0
        for i in range(200):
            y = convolve_slot(state, i, zero)
            total += np.sum(np.abs(y) ** 2)
            count += len(y)
        mean_power = total / count
        assert mean_power == pytest.approx(1e-10, rel=0.01)

    def test_components_uncorrelated_and_balanced(self):
        w = noise_samples(99, 0, 400_000)
        n = len(w)
        corr = np.mean(w.real * w.imag)
        se = 0.5 / np.sqrt(n)  # std error of the cross moment
        assert abs(corr) < 3 * se
        assert np.mean(w.real ** 2) == pytest.approx(0.5, rel=0.02)
        assert np.mean(w.imag ** 2) == pytest.approx(0.5, rel=0.02)
        assert abs(np.mean(w)) < 4 / np.sqrt(n)

    def test_deterministic_per_seed_and_slot(self):
        a, c = slot_noise(1234, [17, 18], FFT)
        (b,) = slot_noise(1234, [17], FFT)
        (d,) = slot_noise(1235, [17], FFT)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)
        assert not np.allclose(a, d)

    @pytest.mark.parametrize("a, b", [
        ((2**32 + 5, 0), (5, 1)), ((-1, 0), (2**32 - 1, 2**32 - 1)),
    ])
    def test_distinct_seed_slot_pairs_give_distinct_noise(self, a, b):
        (wa,) = slot_noise(a[0], [a[1]], FFT)
        (wb,) = slot_noise(b[0], [b[1]], FFT)
        assert not np.allclose(wa, wb)

    def test_negative_seed_accepted(self):
        (w,) = slot_noise(-1, [0], FFT)
        assert np.all(np.isfinite(w))
        np.testing.assert_array_equal(w, slot_noise(-1, [0], FFT)[0])

    @pytest.mark.parametrize("seed, slot", [
        (0, 0), (1234, 17), (-1, 5), (7, 2**32 - 1), (7, 2**32), (-1, 2**40),
    ])
    def test_neighbouring_slots_uncorrelated(self, seed, slot):
        a, b = slot_noise(seed, [slot, slot + 1])
        n = len(a)
        # <a, b>/n of independent unit-variance noise has standard error 1/sqrt(n)
        assert abs(np.vdot(a, b)) / n < 4 / np.sqrt(n)

    def test_tails_are_gaussian(self):
        w = noise_samples(2024, 3, 1_000_000)
        x = w.real / np.sqrt(0.5)
        n = len(x)
        kurtosis = np.mean(x ** 4) / np.mean(x ** 2) ** 2
        assert kurtosis == pytest.approx(3.0, abs=5 * np.sqrt(24 / n))
        iq = np.concatenate([w.real, w.imag]) / np.sqrt(0.5)
        p3 = 0.0026997960632601866  # P(|x| > 3) for a standard normal
        beyond = np.count_nonzero(np.abs(iq) > 3.0) / len(iq)
        assert beyond == pytest.approx(p3, abs=5 * np.sqrt(p3 / len(iq)))

    @pytest.mark.parametrize("seed", [0, 1234, -1, 2**40])
    def test_slot_is_white_at_every_lag(self, seed):
        """A slot's two bank windows lie in different halves, so no lag but 0
        repeats a sample: every other autocorrelation lag stays at the i.i.d.
        level, whose standard error is at most 1/sqrt(N).  (Windows drawn
        from one half would share samples in about 38% of slots.)"""
        for w in slot_noise(seed, range(5)):
            n = len(w)
            r = correlation(w, w)
            assert r[0] == pytest.approx(1.0, rel=0.05)
            assert np.max(np.abs(r[1:])) < 5 / np.sqrt(n)

    def test_slots_uncorrelated_at_every_lag_but_shared_windows(self):
        """Cross-correlation of slots k and k + j at every lag, against the
        overlap model of the bank.

        Slot k is (lo_k e^{j phi1} + hi_k e^{j phi2}) / sqrt(2), where lo_k and
        hi_k are N-sample windows of the lower and upper bank halves.  If slot
        k + j's window in the same half starts d samples away, |d| < N, the two
        windows share N - |d| samples, and at lag d they add
        (1/N) * sum |b|^2 / 2 over the shared samples: magnitude
        1/2 * (N - |d|) / N, since each window carries half the slot's power.
        Windows in different halves share nothing.  So at most two lags (one
        per half) carry a shared window; every other lag is a sum of products
        of distinct unit-variance samples, with standard error
        sqrt(N - |d|) / N <= 1/sqrt(N).  The bound is therefore 5/sqrt(N) at
        every lag but at most two, and 1/2 * (N - |d|) / N + 5/sqrt(N) at
        those two.  (Both halves shifted by the same d, which would double the
        shared term, has probability about 1 / (half - N) per pair.)  At least
        one pair here shares a window, so the bound is exercised.
        """
        shared = 0
        for seed in (0, 1234, -1, 7, 2024):
            for j in (1, 2, 7, 100):
                k = 3
                a, b = slot_noise(seed, [k, k + j])
                n = len(a)
                stat = 5 / np.sqrt(n)
                r = np.abs(correlation(a, b))
                lags = np.arange(len(r))
                lags = np.minimum(lags, len(r) - lags)  # |d| of each entry
                over = np.flatnonzero(r >= stat)
                assert len(over) <= 2, (seed, j, over)
                assert np.all(r[over] <= 0.5 * (n - lags[over]) / n + stat), (seed, j)
                shared += len(over)
        assert shared > 0

    def test_slot_alone_equals_slot_in_run(self):
        def stream():
            return make_state([dense_cir([0, 3], [1.0, 0.5])],
                              signal_gain_db=float("-inf"), noise_power_db=-20.0,
                              rng_seed=5)

        state = stream()
        zero = np.zeros(N_S)
        in_run = [convolve_slot(state, i, zero).copy() for i in range(7)]
        alone = stream()
        np.testing.assert_array_equal(noise_block(alone, 6), in_run[6])
        assert alone.next_slot_index == 0

    @pytest.mark.parametrize("fft_size, bank", [(4369, 2**18), (4370, 2**19)])
    def test_slot_longer_than_quarter_bank_grows_it(self, fft_size, bank):
        # N_s = 65535 fits twice into each half of 2**18 entries; 65550 does not
        state = noise_stream(3, fft_size)
        assert len(state.bank) == bank
        w = noise_block(state, 2)
        assert np.max(np.abs(correlation(w, w)[1:])) < 5 / np.sqrt(len(w))

    def test_noise_off_draws_no_bank(self):
        state = make_state([dense_cir([0], [1.0])])
        assert state.bank is None and state.noise is None

    def test_identical_config_gives_bit_identical_output(self):
        rng = np.random.default_rng(6)
        slots = random_slots(rng, 3)

        def run():
            state = make_state([dense_cir([0, 4], [1.0, 0.3])],
                               noise_power_db=-30.0, rng_seed=77)
            wf = io.BytesIO()
            list(run_scenario(state, owiq(slots), wf))
            return wf.getvalue()

        assert run() == run()

    def test_same_taps_different_noise_across_directions(self):
        rng = np.random.default_rng(7)
        slots = random_slots(rng, 2)

        def run(seed, noise_db):
            state = make_state([dense_cir([0, 4], [1.0, 0.3])],
                               noise_power_db=noise_db, rng_seed=seed)
            wf = io.BytesIO()
            list(run_scenario(state, owiq(slots), wf))
            return np.concatenate(decode(wf))

        clean = run(1, float("-inf"))
        dl = run(1, -20.0)
        ul = run(2, -20.0)
        assert not np.allclose(dl, ul)  # different noise realizations
        # the signal component is the shared clean run in both directions
        for noisy in (dl, ul):
            noise = noisy - clean
            assert np.mean(np.abs(noise) ** 2) == pytest.approx(1e-2, rel=0.2)


class TestCalibration:
    def test_headroom_against_strongest_snapshot(self):
        weak = [10 ** (-84.5 / 20)]
        strong = [10 ** (-60.0 / 20)]
        assert calibrate_signal_gain([weak]) == pytest.approx(89.5, abs=1e-9)
        assert calibrate_signal_gain([weak, strong]) == pytest.approx(65.0,
                                                                      abs=1e-9)

    def test_unit_tap_gives_headroom(self):
        unit = [1.0]
        assert calibrate_signal_gain([unit]) == pytest.approx(5.0)

    def test_headroom_is_the_module_constant(self):
        cir = [10 ** (-30.0 / 20)]
        assert calibrate_signal_gain([cir]) == pytest.approx(30.0 + HEADROOM_DB)

    def test_no_reference_errors(self):
        with pytest.raises(NoReferenceError):
            calibrate_signal_gain([])
        cancelled = [0.5, -0.5]
        with pytest.raises(NoReferenceError):
            calibrate_signal_gain([cancelled])


class TestRunScenario:
    def test_accepts_exactly_capacity_then_ends(self):
        state = make_state([dense_cir([0], [1.0])] * 2)
        slots = random_slots(np.random.default_rng(8), state.capacity_slots + 5)
        wf = io.BytesIO()
        outs = []
        with pytest.raises(EndOfScenario):
            for slot_index, seconds, clipped in run_scenario(state, owiq(slots), wf):
                assert seconds >= 0.0
                outs.append(slot_index)
        assert len(outs) == state.capacity_slots == 400
        assert outs == list(range(400))
        decoded_in = decode(owiq(slots))
        np.testing.assert_array_equal(decode(wf), decoded_in[:400])

    def test_empty_input_is_fine(self):
        state = make_state([dense_cir([0], [1.0])])
        wf = io.BytesIO()
        assert list(run_scenario(state, io.BytesIO(), wf)) == []
        assert wf.getvalue() == b""

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            l_max = int(rng.integers(2, 65))
            n_taps = int(rng.integers(1, l_max + 1))
            idx = rng.choice(l_max, size=n_taps, replace=False)
            taps = np.zeros(l_max, complex)
            taps[idx] = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
            state = make_state([taps], l_sel=l_max)
            slots = random_slots(rng, 4)
            got = np.concatenate(
                [convolve_slot(state, i, s).copy() for i, s in enumerate(slots)])
            stream = np.concatenate(slots)
            want = np.convolve(stream, taps)[:len(stream)]
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    @pytest.mark.parametrize("fmt, noise_db", [
        ("i16", 40.0), (FMT_F32, 40.0), ("i16", float("-inf")),
    ])
    def test_slot_loop_allocates_no_slot_sized_array(self, fmt, noise_db):
        # a freed slot-sized block lets the C heap trim and re-fault its pages
        # every slot; the loop must reuse the stream's buffers instead
        taps = np.zeros((1, 40), complex)
        taps[0, [0, 5, 39]] = [1.0, 0.3, 0.1j]
        state = EmulatorState(CirTimeline(taps, 46.08e6, 0.05), 28, 1536,
                              noise_power_db=noise_db, rng_seed=3)
        n_s = state.samples_per_slot
        rng = np.random.default_rng(1)
        rf = io.BytesIO()
        for i in range(8):
            x = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
            write_frame(rf, i, 3000.0 * x, fmt=fmt)
        rf.seek(0)
        slots = run_scenario(state, rf, Sink())
        tracemalloc.start()
        try:
            next(slots)
            next(slots)
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert len(list(slots)) == 6
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the smallest slot-sized array is one bool per I/Q value
        assert peak - start < 2 * n_s

    def test_first_slot_allocates_none_of_the_stream_set_up(self):
        # the noise bank (2 MB) and the codec buffers belong to the state,
        # built and written before the loop: slot 0 costs what any slot
        # costs, neither allocating nor first touching a slot buffer's pages
        # (a 23040-sample stream's buffers span about 300 pages).  Measured
        # in a fresh interpreter: mid-suite, the buffers may reuse heap pages
        # that an earlier test already touched, which hides the faults.
        script = textwrap.dedent("""
            import io, resource, tracemalloc
            import numpy as np
            from chanem.emulator import EmulatorState, run_scenario
            from chanem.iqstream import write_frame
            from chanem.timeline import CirTimeline

            class Sink:
                def write(self, data):
                    return len(data)

            state = EmulatorState(CirTimeline([[1.0, 0.3]], 46.08e6, 0.05), 28, 1536,
                                  noise_power_db=40.0, rng_seed=3)
            rf = io.BytesIO()
            write_frame(rf, 0, np.zeros(state.samples_per_slot))
            rf.seek(0)
            slots = run_scenario(state, rf, Sink())
            tracemalloc.start()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert next(slots)[0] == 0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            _, peak = tracemalloc.get_traced_memory()
            print(peak, faults)
            """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        peak, faults = map(int, result.stdout.split())
        assert peak < 64 * 1024
        assert faults < 64
