import io
import os
import socket
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanem.cir import CirConfig
from chanem.cli import (EXIT_END_OF_SCENARIO, EXIT_OK, EXIT_PARSE,
                        EXIT_PRECONDITION, main)
from chanem import cli
from chanem.emulator import EmulatorState, convolve_slot, run_scenario
from chanem.errors import InvalidInputError, ScenarioParseError
from chanem.iqstream import (F32_FULL_SCALE, FMT_F32, FMT_I16, INT16_FULL_SCALE,
                             frame_streams, read_frame, write_frame)
from chanem.scenefile import build_scenario
from chanem.timeline import CirTimeline, read_timeline, write_timeline

F_SAMP = 240000.0  # fft 8 -> N_s 120 -> 0.5 ms slots
N_S = 120

SCENE = """\
ground z 0 material concrete
wall -50 6 50 6 0 12 material glass
tx 0 0 10
freq 4.01916e9
max_depth 2
"""


def make_timeline(taps_list, t_int=0.002):
    """A 10-tap timeline with one {tap index: value} dict per snapshot."""
    taps = np.zeros((len(taps_list), 10), complex)
    for i, spec in enumerate(taps_list):
        for k, a in spec.items():
            taps[i, k] = a
    return CirTimeline(taps, F_SAMP, t_int)


def read_frames(fh):
    """Every OWIQ frame left in ``fh``, decoded."""
    buf = np.empty(N_S, complex)
    frames = []
    while read_frame(fh, buf) is not None:
        frames.append(buf.copy())
    return frames


def write_test_timeline(path, taps_list, t_int=0.002):
    write_timeline(make_timeline(taps_list, t_int), path)


def emulate_reference(taps_list, slots, t_int=0.002, **state_kw):
    state = EmulatorState(make_timeline(taps_list, t_int), 10, 8, **state_kw)
    return [convolve_slot(state, i, s).copy()
            for i, s in enumerate(slots)]


class TestSimpleCommands:
    def test_materials_output(self, capsys):
        assert main(["materials", "--material", "concrete",
                     "--freq-hz", "4.01916e9"]) == EXIT_OK
        out = dict(line.split("=") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert float(out["eps_r"]) == pytest.approx(5.24)
        assert float(out["sigma_c"]) == pytest.approx(0.1372, abs=1e-4)

    def test_materials_unknown_is_precondition_error(self, capsys):
        assert main(["materials", "--material", "nope",
                     "--freq-hz", "1e9"]) == EXIT_PRECONDITION

    def test_kpi_worked_example(self, capsys):
        assert main(["kpi", "--mcs", "27", "--bler", "0.001656",
                     "--dir", "dl"]) == EXIT_OK
        out = dict(line.split("=") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert float(out["r_b_mbps"]) == pytest.approx(30.62976 * 7.4063,
                                                       abs=1e-3)
        assert float(out["alpha"]) == pytest.approx(48 / 70, abs=1e-6)
        assert float(out["t_eff_mbps"]) == pytest.approx(155.2989, abs=1e-3)

    def test_kpi_explicit_pattern_flags(self, capsys):
        assert main(["kpi", "--mcs", "0", "--bler", "0", "--dir", "ul",
                     "--pattern", "DSU", "--special", "7,0,7",
                     "--nprb", "106", "--mu", "1",
                     "--oh-dl", "0.14", "--oh-ul", "0.08"]) == EXIT_OK
        out = dict(line.split("=") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert float(out["alpha"]) == pytest.approx(0.5)
        assert float(out["t_eff_mbps"]) == pytest.approx(
            0.5 * 32.76672 * 0.2344, abs=1e-4)

    def test_check_ofdm_anchors(self, capsys):
        assert main(["check-ofdm", "--speed", "11.78"]) == EXIT_OK
        out = dict(line.split("=") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert float(out["t_f_s"]) == pytest.approx(6.332e-3, abs=1e-6)
        assert float(out["f_d_hz"]) == pytest.approx(158, abs=1)
        assert out["guard_ok"] == "True"
        assert out["coherence_ok"] == "True"

    def test_check_ofdm_sigma_tau_verdict(self, capsys):
        assert main(["check-ofdm", "--speed", "11.78",
                     "--sigma-tau", "1e-7"]) == EXIT_OK
        out = dict(line.split("=") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert out["isi_ok"] == "True"   # 1e-7 * 10 <= 2.3e-6
        capsys.readouterr()
        assert main(["check-ofdm", "--speed", "11.78",
                     "--sigma-tau", "1e-6"]) == EXIT_OK
        out = dict(line.split("=") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert out["isi_ok"] == "False"  # 1e-6 * 10 > 2.3e-6

    @pytest.mark.parametrize("flag, value", [
        ("--speed", "nan"), ("--speed", "inf"), ("--sigma-tau", "-1"),
        ("--margin", "nan"), ("--mu", "-1"), ("--mu", "7"), ("--mu", "1100"),
    ])
    def test_check_ofdm_bad_number_is_precondition_error(self, capsys, flag, value):
        assert main(["check-ofdm", "--speed", "11.78",
                     f"{flag}={value}"]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_kpi_non_integer_special_is_precondition_error(self, capsys):
        assert main(["kpi", "--mcs", "27", "--bler", "0.01", "--dir", "dl",
                     "--special", "a,b,c"]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: special counts must be integers, got 'a,b,c'\n"

    def test_version_reports_format_versions(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "timeline format v1" in out
        assert "iq frame format v1" in out

    def test_bench_smoke(self, capsys):
        assert main(["bench", "--slots", "20", "--taps", "4",
                     "--fft", "8", "--fsamp", str(F_SAMP)]) == EXIT_OK
        out = dict(line.split("=") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert int(out["slots"]) == 20
        assert float(out["median_s"]) > 0.0
        assert out["passed"] in ("True", "False")

    @pytest.mark.parametrize("value", ["nan", "inf", "+inf", "abc"])
    def test_bench_bad_noise_db_is_parse_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--slots", "2", "--taps", "1", "--fft", "8",
                  "--fsamp", str(F_SAMP), "--noise-db", value])
        assert exc.value.code == 2
        assert "--noise-db" in capsys.readouterr().err

    def test_bench_noise_db_accepts_minus_inf(self):
        assert main(["bench", "--slots", "2", "--taps", "1", "--fft", "8",
                     "--fsamp", str(F_SAMP), "--noise-db=-inf"]) == EXIT_OK


class TestScenarioPipeline:
    def test_trace_then_report(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE)
        rows = ["t,x,y,z"] + [f"{0.1 * i:.1f},{-20 + 4 * i},0.0,1.5"
                              for i in range(10)]
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(rows) + "\n")
        out = tmp_path / "timeline.cirt"
        assert main(["trace", "--scene", str(scene), "--trace", str(trace),
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()
        rows_csv = tmp_path / "rows.csv"
        pdp_csv = tmp_path / "pdp.csv"
        gain_csv = tmp_path / "gain.csv"
        assert main(["report", "--timeline", str(out), "--taps", "28",
                     "--rows", str(rows_csv), "--pdp", str(pdp_csv),
                     "--gain", str(gain_csv)]) == EXIT_OK
        assert len(rows_csv.read_text().splitlines()) == 11
        assert len(pdp_csv.read_text().splitlines()) == 11
        assert gain_csv.read_text().startswith("time_s,path_gain_db")

    def test_missing_scene_file_is_parse_error(self, tmp_path):
        assert main(["trace", "--scene", str(tmp_path / "nope.txt"),
                     "--trace", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x.cirt")]) == EXIT_PARSE

    def test_bad_scene_is_parse_error(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("tx 0 0 10\n")  # missing freq
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x,y,z\n0,10,0,1.5\n")
        assert main(["trace", "--scene", str(scene), "--trace", str(trace),
                     "--out", str(tmp_path / "x.cirt")]) == EXIT_PARSE

    @pytest.mark.parametrize("kind, line_no, text", [
        ("scene", 3, "tx nan 0 10"),
        ("scene", 1, "ground z nan material concrete"),
        ("scene", 2, "wall -inf 6 inf 6 0 12 material glass"),
        ("scene", 4, "freq nan"),
        ("scene", 4, "freq inf"),
        ("scene", 4, "freq 1e400"),
        ("trace", 2, "0,nan,0,1.5"),
        ("trace", 3, "nan,10,0,1.5"),
        ("profile", 2, "nan,0.0,0.0"),
        ("profile", 3, "0.5,inf,1e-6"),
    ])
    def test_non_finite_text_number_is_parse_error_at_its_line(
            self, tmp_path, capsys, kind, line_no, text):
        files = {"scene": SCENE.splitlines(),
                 "trace": ["t,x,y,z", "0,10,0,1.5", "0.1,12,0,1.5"],
                 "profile": ["re,im,delay_s", "1.0,0.0,0.0", "0.5,0.5,1e-6"]}
        files[kind][line_no - 1] = text
        for name, lines in files.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.cirt"
        if kind == "profile":
            args = ["cir", "--profile", str(tmp_path / "profile"), "--fsamp", "46.08e6"]
        else:
            args = ["trace", "--scene", str(tmp_path / "scene"),
                    "--trace", str(tmp_path / "trace")]
        assert main([*args, "--out", str(out)]) == EXIT_PARSE
        assert f"{tmp_path / kind}:{line_no}: " in capsys.readouterr().err
        assert not out.exists()

    def test_trace_span_past_largest_float_is_parse_error(self, tmp_path, capsys):
        # each time is finite, but their span overflows to inf
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE)
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x,y,z\n-1.7e308,10,0,1.5\n1.7e308,12,0,1.5\n")
        out = tmp_path / "x.cirt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["trace", "--scene", str(scene), "--trace", str(trace),
                         "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {trace}: trace times -1.7e+308 to 1.7e+308 span more than "
            f"the largest float\n")
        assert not caught  # no numpy overflow warning reaches stderr first
        assert not out.exists()

    @pytest.mark.parametrize("value", ["6", "-1", "two"])
    def test_max_depth_flag_out_of_range_is_usage_error(self, tmp_path, capsys, value):
        # the flag is blamed, not the scene file it overrides
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE)
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x,y,z\n0,10,0,1.5\n")
        out = tmp_path / "x.cirt"
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--scene", str(scene), "--trace", str(trace),
                  "--out", str(out), f"--max-depth={value}"])
        assert exc.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--max-depth: expected an integer in 0..5" in err
        assert str(scene) not in err
        assert not out.exists()

    def test_scene_max_depth_out_of_range_is_parse_error_at_its_line(
            self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE.replace("max_depth 2", "max_depth 6"))
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x,y,z\n0,10,0,1.5\n")
        out = tmp_path / "x.cirt"
        assert main(["trace", "--scene", str(scene), "--trace", str(trace),
                     "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {scene}:5: max_depth must be in 0..5, got 6\n")
        assert not out.exists()

    @pytest.mark.parametrize("file_depth, flag", [(5, []), (2, ["--max-depth", "5"])])
    def test_scene_over_the_image_tree_cap_is_parse_error(
            self, tmp_path, capsys, file_depth, flag):
        # 17 facets at depth 5 need 1,188,386 nodes; nothing is traced
        walls = "".join(f"wall -50 {6 + i} 50 {6 + i} 0 12 material glass\n"
                        for i in range(17))
        scene = tmp_path / "scene.txt"
        scene.write_text(f"{walls}tx 0 0 10\nfreq 4.01916e9\nmax_depth {file_depth}\n")
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x,y,z\n0,10,0,1.5\n")
        out = tmp_path / "x.cirt"
        assert main(["trace", "--scene", str(scene), "--trace", str(trace),
                     "--out", str(out), *flag]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {scene}: 17 facets at max_depth 5 give 1188386 image-tree "
            f"nodes, above the 1048576-node limit\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("depth", [7, -1, 2.5])
    def test_max_depth_argument_out_of_range_is_the_callers_error(self, tmp_path, depth):
        # the library call blames its argument, not the scene file it overrides
        scene = tmp_path / "canyon.txt"
        scene.write_text(SCENE)
        trace = tmp_path / "canyon.csv"
        trace.write_text("t,x,y,z\n0,10,0,1.5\n")
        with pytest.raises(InvalidInputError) as exc:
            build_scenario(str(scene), str(trace), CirConfig(46.08e6), max_depth=depth)
        assert not isinstance(exc.value, ScenarioParseError)
        assert str(exc.value) == f"max_depth must be in 0..5, got {depth!r}"
        assert build_scenario(str(scene), str(trace), CirConfig(46.08e6),
                              max_depth=np.int64(0)).taps.shape == (1, 146)

    def test_only_streaming_commands_load_scipy(self, tmp_path):
        # scipy's BLAS loads when the emulator is set up, so tracing,
        # reporting and the KPI commands never import it; and it loads
        # without scipy.linalg's package init
        (tmp_path / "scene.txt").write_text(SCENE)
        (tmp_path / "trace.csv").write_text("t,x,y,z\n0,10,0,1.5\n0.1,12,0,1.5\n")
        (tmp_path / "profile.csv").write_text("re,im,delay_s\n1.0,0.0,0.0\n")
        (tmp_path / "empty.owiq").write_bytes(b"")
        script = textwrap.dedent(f"""\
            import sys
            from chanem.cli import main
            d = {str(tmp_path)!r} + "/"
            for argv in (
                    ["trace", "--scene", d + "scene.txt", "--trace", d + "trace.csv",
                     "--out", d + "t.cirt"],
                    ["report", "--timeline", d + "t.cirt", "--rows", d + "rows.csv"],
                    ["cir", "--profile", d + "profile.csv", "--fsamp", "46.08e6",
                     "--out", d + "p.cirt"],
                    ["kpi", "--mcs", "27", "--bler", "0.01", "--dir", "dl"],
                    ["check-ofdm", "--speed", "11.78"]):
                assert main(argv) == 0, argv
            print("scipy loaded:", "scipy" in sys.modules)
            assert main(["emulate", "--timeline", d + "t.cirt",
                         "--in", d + "empty.owiq", "--out", d + "out.owiq"]) == 0
            print("scipy loaded:", "scipy" in sys.modules)
            print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
            """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert [l for l in result.stdout.splitlines() if l.startswith("scipy")] == [
            "scipy loaded: False", "scipy loaded: True", "scipy.linalg loaded: False"]

    @pytest.mark.parametrize("fsamp, max_delay", [("1e300", "1e300"), ("46.08e6", "1")])
    def test_oversized_tap_vector_is_precondition_error(
            self, tmp_path, capsys, fsamp, max_delay):
        profile = tmp_path / "profile.csv"
        profile.write_text("re,im,delay_s\n1.0,0.0,0.0\n")
        out = tmp_path / "one.cirt"
        assert main(["cir", "--profile", str(profile), "--fsamp", fsamp,
                     "--max-delay", max_delay, "--out", str(out)]) == EXIT_PRECONDITION
        assert "tap vector limit" in capsys.readouterr().err
        assert not out.exists()

    def test_tap_too_large_for_the_file_is_precondition_error(self, tmp_path, capsys):
        # 1e308 is finite, but the .cirt file stores complex64, where it is not
        profile = tmp_path / "profile.csv"
        profile.write_text("re,im,delay_s\n1e308,1e308,1e-7\n")
        out = tmp_path / "one.cirt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cir", "--profile", str(profile), "--fsamp", "46.08e6",
                         "--out", str(out)]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: snapshot 0 tap ")
        assert captured.err.endswith(" is not finite as complex64\n")
        assert not out.exists()

    def test_cir_command(self, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("re,im,delay_s\n1.0,0.0,0.0\n0.5,0.5,1e-6\n")
        out = tmp_path / "one.cirt"
        assert main(["cir", "--profile", str(profile), "--fsamp", "46.08e6",
                     "--out", str(out)]) == EXIT_OK
        from chanem.timeline import read_timeline
        timeline = read_timeline(out)
        assert len(timeline) == 1
        assert timeline.l_max == 146


class TestEmulateCommand:
    def make_streams(self, tmp_path, slots):
        inp = tmp_path / "in.owiq"
        with open(inp, "wb") as fh:
            for i, s in enumerate(slots):
                write_frame(fh, i, s, fmt=FMT_F32)
        return inp, tmp_path / "out.owiq"

    def read_all(self, path):
        with open(path, "rb") as fh:
            return read_frames(fh)

    def test_pipe_matches_library(self, tmp_path):
        timeline = tmp_path / "t.cirt"
        taps_list = [{0: 1.0}, {5: 0.5 + 0.5j}]
        write_test_timeline(timeline, taps_list)
        rng = np.random.default_rng(0)
        slots = [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
                 for _ in range(8)]
        inp, outp = self.make_streams(tmp_path, slots)
        stats = tmp_path / "stats.csv"
        assert main(["emulate", "--timeline", str(timeline), "--taps", "10",
                     "--signal-gain-db", "0", "--fft", "8",
                     "--in", str(inp), "--out", str(outp),
                     "--stats", str(stats)]) == EXIT_OK
        got = self.read_all(outp)
        want = emulate_reference(taps_list, slots)
        assert len(got) == 8
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-6, atol=1e-7)
        lines = stats.read_text().strip().splitlines()
        assert lines[0] == "slot_index,latency_s,clipped_samples"
        assert len(lines) == 9

    def test_auto_gain_and_seed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OWDT_SEED", "123")
        timeline = tmp_path / "t.cirt"
        taps_list = [{0: 10 ** (-40 / 20)}]  # -40 dB -> auto gain +45 dB
        write_test_timeline(timeline, taps_list)
        rng = np.random.default_rng(1)
        slots = [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
                 for _ in range(2)]
        inp, outp = self.make_streams(tmp_path, slots)
        assert main(["emulate", "--timeline", str(timeline), "--taps", "10",
                     "--noise-db", "-30", "--fft", "8",
                     "--in", str(inp), "--out", str(outp)]) == EXIT_OK
        got = self.read_all(outp)
        want = emulate_reference(taps_list, slots, signal_gain_db=45.0,
                                 noise_power_db=-30.0, rng_seed=123)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-5, atol=1e-6)

    def test_zero_history_mode(self, tmp_path):
        timeline = tmp_path / "t.cirt"
        taps_list = [{5: 1.0}]
        write_test_timeline(timeline, taps_list)
        rng = np.random.default_rng(9)
        slots = [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
                 for _ in range(3)]
        inp, outp = self.make_streams(tmp_path, slots)
        assert main(["emulate", "--timeline", str(timeline), "--taps", "10",
                     "--signal-gain-db", "0", "--fft", "8", "--history",
                     "zero", "--in", str(inp), "--out", str(outp)]) == EXIT_OK
        got = self.read_all(outp)
        want = emulate_reference(taps_list, slots, history_mode="zero")
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-6, atol=1e-7)
            assert np.all(g[:5] == 0.0)  # no carry-over into the slot head

    def test_end_of_scenario_exit_code(self, tmp_path, capsys):
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])  # capacity 4 slots
        rng = np.random.default_rng(2)
        slots = [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
                 for _ in range(6)]
        inp, outp = self.make_streams(tmp_path, slots)
        assert main(["emulate", "--timeline", str(timeline), "--taps", "10",
                     "--signal-gain-db", "0", "--fft", "8",
                     "--in", str(inp), "--out", str(outp)]
                    ) == EXIT_END_OF_SCENARIO
        assert len(self.read_all(outp)) == 4
        assert capsys.readouterr().err == (
            "error: slot 4 lies beyond the 1-snapshot timeline\n")

    @pytest.mark.parametrize("fmt", [FMT_I16, FMT_F32])
    @pytest.mark.parametrize("gain_db, taps", [
        ("800", {0: 6e3 + 8e3j}),
        ("6050", {0: 6e3 + 8e3j, 1: -6e3 - 8e3j}),
    ], ids=["800", "6050"])
    def test_output_past_full_scale_saturates_and_is_counted(
            self, tmp_path, fmt, gain_db, taps):
        # 800 dB overflows both formats; at 6050 dB each scaled tap is finite,
        # but their products with the input overflow float64 to +inf and
        # -inf, and the convolution makes inf and NaN
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [taps])
        inp, outp, stats = tmp_path / "in.owiq", tmp_path / "out.owiq", tmp_path / "s.csv"
        with open(inp, "wb") as fh:
            for i in range(2):
                write_frame(fh, i, np.full(N_S, 1e4 + 1e4j), fmt=fmt)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".* in cast")  # the encoder's
            assert main(["emulate", "--timeline", str(timeline), "--fft", "8",
                         "--signal-gain-db", gain_db, "--stats", str(stats),
                         "--in", str(inp), "--out", str(outp)]) == EXIT_OK
        frames = self.read_all(outp)  # read_frame rejects a non-finite f32 value
        assert len(frames) == 2
        full = INT16_FULL_SCALE if fmt == FMT_I16 else F32_FULL_SCALE
        for frame in frames:
            assert set(np.abs(frame.view(np.float64))) <= {0.0, full}
        rows = stats.read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [str(2 * N_S)] * 2

    def test_gain_that_overflows_a_tap_exits_before_any_output(self, tmp_path, capsys):
        # at 6100 dB the scaled tap, 10**305 * (6e3 + 8e3j), overflows float64
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1e-3}, {3: 6e3 + 8e3j}])
        inp, outp = self.make_streams(tmp_path, [np.zeros(N_S)])
        stats = tmp_path / "s.csv"
        assert main(["emulate", "--timeline", str(timeline), "--fft", "8",
                     "--signal-gain-db", "6100", "--stats", str(stats),
                     "--in", str(inp), "--out", str(outp)]) == EXIT_PRECONDITION
        assert capsys.readouterr().err.splitlines() == [
            "error: signal_gain_db of 6100.0 dB overflows snapshot 1 tap 3"]
        assert not outp.exists() and not stats.exists()

    def test_bad_seed_env_is_parse_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OWDT_SEED", "abc")
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])
        inp, outp = self.make_streams(tmp_path, [np.zeros(N_S)])
        with pytest.raises(SystemExit) as exc:
            main(["emulate", "--timeline", str(timeline), "--fft", "8",
                  "--in", str(inp), "--out", str(outp)])
        assert exc.value.code == 2
        assert "OWDT_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--listen", "127.0.0.1:abc"), ("--listen", "127.0.0.1:70000"),
        ("--signal-gain-db", "abc"), ("--signal-gain-db", "nan"),
        ("--noise-db", "nan"), ("--noise-db", "inf"),
    ])
    def test_bad_flag_value_is_parse_error(self, tmp_path, capsys, flag, value):
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])
        inp, outp = self.make_streams(tmp_path, [np.zeros(N_S)])
        with pytest.raises(SystemExit) as exc:
            main(["emulate", "--timeline", str(timeline), "--fft", "8",
                  "--in", str(inp), "--out", str(outp), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "emulate"])
    def test_oversized_slot_is_precondition_error(self, tmp_path, capsys, command):
        # 1.5e9 samples per slot: rejected before any buffer is sized
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])
        inp, outp = self.make_streams(tmp_path, [np.zeros(N_S)])
        args = {"bench": ["bench", "--slots", "1", "--taps", "1"],
                "emulate": ["emulate", "--timeline", str(timeline),
                            "--in", str(inp), "--out", str(outp)]}[command]
        assert main([*args, "--fft", "100000000"]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "error: fft_size 100000000 gives 1500000000 samples per slot, "
            "above the 131072-sample limit")
        assert "Traceback" not in err
        assert not outp.exists()

    def test_stream_is_set_up_before_frame_streams_opens(self, tmp_path, monkeypatch):
        # with --listen, the connection is accepted only once the state exists
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])
        inp, outp = self.make_streams(tmp_path, [np.zeros(N_S)])
        events = []

        def state(*args, **kwargs):
            events.append("state")
            return EmulatorState(*args, **kwargs)

        def streams(*args):
            events.append("frame_streams")
            return frame_streams(*args)

        monkeypatch.setattr(cli, "EmulatorState", state)
        monkeypatch.setattr(cli, "frame_streams", streams)
        assert main(["emulate", "--timeline", str(timeline), "--fft", "8",
                     "--noise-db", "-30", "--in", str(inp), "--out", str(outp)]) == EXIT_OK
        assert events == ["state", "frame_streams"]
        assert len(self.read_all(outp)) == 1

    @pytest.mark.parametrize("flag", ["--in", "--out", "--stats", "--listen", "report"])
    def test_unopenable_path_or_port_is_parse_error(self, tmp_path, capsys, flag):
        # a directory where a file belongs, or a port already listening
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])
        inp, outp = self.make_streams(tmp_path, [np.zeros(N_S)])
        args = {"--in": str(inp), "--out": str(outp), "--stats": str(tmp_path / "s.csv")}
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            if flag == "report":
                argv = ["report", "--timeline", str(tmp_path)]
            elif flag == "--listen":
                argv = ["emulate", "--timeline", str(timeline), "--fft", "8",
                        "--listen", "127.0.0.1:%d" % busy.getsockname()[1]]
            else:
                args[flag] = str(tmp_path)
                argv = ["emulate", "--timeline", str(timeline), "--fft", "8",
                        *(x for kv in args.items() for x in kv)]
            assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in captured.err

    def test_non_finite_sample_is_parse_error(self, tmp_path, capsys):
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])
        inp, outp = self.make_streams(tmp_path, [np.ones(N_S)] * 3)
        with open(inp, "r+b") as fh:  # write_frame never writes a NaN
            fh.seek((20 + 8 * N_S) + 20 + 4 * 15)  # slot 1, sample 7's Q
            fh.write(struct.pack("<f", np.nan))
        assert main(["emulate", "--timeline", str(timeline), "--fft", "8",
                     "--in", str(inp), "--out", str(outp)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "slot 1" in err
        assert f"byte offset {20 + 4 * 15}" in err
        assert len(self.read_all(outp)) == 1  # slot 0 only

    @pytest.mark.parametrize("gain", ["auto", "0"])
    def test_empty_timeline_is_precondition_error(self, tmp_path, capsys, gain):
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [])
        inp, outp = self.make_streams(tmp_path, [np.zeros(N_S)])
        assert main(["emulate", "--timeline", str(timeline), "--fft", "8",
                     "--signal-gain-db", gain,
                     "--in", str(inp), "--out", str(outp)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty" in err
        assert not outp.exists()

    def test_wrong_frame_length_is_parse_error(self, tmp_path):
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}])
        inp, outp = self.make_streams(tmp_path, [np.zeros(7)])
        assert main(["emulate", "--timeline", str(timeline), "--fft", "8",
                     "--in", str(inp), "--out", str(outp)]) == EXIT_PARSE

    @settings(max_examples=20, deadline=None)
    @given(history=st.sampled_from(["carry", "zero"]),
           n_snapshots=st.integers(2, 3),
           extra_slots=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_convolution_across_snapshots(
            self, history, n_snapshots, extra_slots, seed):
        """The CLI file path and ``run_scenario`` equal a naive convolution."""
        rng = np.random.default_rng(seed)
        # f32-exact taps and samples, so both file formats carry them losslessly
        taps = (rng.standard_normal((n_snapshots, 10))
                + 1j * rng.standard_normal((n_snapshots, 10))).astype(np.complex64)
        n_slots = 4 * (n_snapshots - 1) + extra_slots  # 4 slots per snapshot
        stream = (rng.standard_normal(n_slots * N_S)
                  + 1j * rng.standard_normal(n_slots * N_S)).astype(np.complex64)
        slots = np.split(stream.astype(np.complex128), n_slots)

        want = []
        for i, x in enumerate(slots):
            h = taps[i // 4].astype(np.complex128)
            if history == "carry":
                full = np.convolve(stream[:(i + 1) * N_S], h)
                want.append(full[i * N_S:(i + 1) * N_S])
            else:
                want.append(np.convolve(x, h)[:N_S])
        want = np.concatenate(want)

        with tempfile.TemporaryDirectory() as tmp:
            timeline = Path(tmp) / "t.cirt"
            write_test_timeline(timeline, [dict(enumerate(t)) for t in taps])
            inp, outp = self.make_streams(Path(tmp), slots)
            assert main(["emulate", "--timeline", str(timeline), "--taps", "10",
                         "--signal-gain-db", "0", "--fft", "8", "--history",
                         history, "--in", str(inp), "--out", str(outp)]) == EXIT_OK
            from_cli = np.concatenate(self.read_all(outp))
            cirt = read_timeline(timeline)

            state = EmulatorState(cirt, 10, 8, history_mode=history)
            wf = io.BytesIO()
            with open(inp, "rb") as rf:
                list(run_scenario(state, rf, wf))
            wf.seek(0)
            from_driver = np.concatenate(read_frames(wf))

        for got in (from_cli, from_driver):
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_tcp_listen(self, tmp_path):
        timeline = tmp_path / "t.cirt"
        taps_list = [{2: 1.0}]
        write_test_timeline(timeline, taps_list)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        results = {}

        def serve():
            results["code"] = main(
                ["emulate", "--timeline", str(timeline), "--taps", "10",
                 "--signal-gain-db", "0", "--fft", "8",
                 "--listen", f"127.0.0.1:{port}"])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        rng = np.random.default_rng(3)
        slots = [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
                 for _ in range(3)]
        deadline = time.time() + 5.0
        conn = None
        while conn is None:
            try:
                conn = socket.create_connection(("127.0.0.1", port), timeout=0.2)
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.05)
        with conn:
            wf = conn.makefile("wb")
            rf = conn.makefile("rb")
            for i, s in enumerate(slots):
                write_frame(wf, i, s, fmt=FMT_F32)
            wf.flush()
            conn.shutdown(socket.SHUT_WR)
            got = read_frames(rf)
        thread.join(timeout=5.0)
        assert results.get("code") == EXIT_OK
        want = emulate_reference(taps_list, slots)
        assert len(got) == 3
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-6, atol=1e-7)

    def test_listen_on_port_zero_reports_the_bound_port(self, tmp_path):
        # port 0 binds any free port; the client learns it from stderr, and
        # the stream's bytes are those of the same run between files
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0, 3: 0.25j}, {5: 0.5 + 0.5j}])
        rng = np.random.default_rng(11)
        inp, outp = self.make_streams(
            tmp_path, [rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)
                       for _ in range(6)])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        argv = [sys.executable, "-m", "chanem.cli", "emulate", "--timeline",
                str(timeline), "--fft", "8", "--noise-db=-20", "--seed", "5"]
        filed = subprocess.run(argv + ["--in", str(inp), "--out", str(outp)],
                               env=env, capture_output=True, timeout=120)
        assert filed.returncode == EXIT_OK, filed.stderr

        proc = subprocess.Popen(argv + ["--listen", "127.0.0.1:0"], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        line = ""
        try:
            for line in proc.stderr:  # "auto signal gain: ..." comes first
                if line.startswith("listening on "):
                    break
            host, _, port = line.removeprefix("listening on ").strip().rpartition(":")
            assert host == "127.0.0.1", line
            assert port.isdecimal() and int(port) > 0, line
            with socket.create_connection((host, int(port)), timeout=30) as conn:
                conn.sendall(inp.read_bytes())
                conn.shutdown(socket.SHUT_WR)
                got = conn.makefile("rb").read()
            assert proc.wait(timeout=30) == EXIT_OK, proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert got == outp.read_bytes()



class TestTimelineInput:
    @pytest.mark.parametrize("command", ["report", "emulate"])
    def test_non_finite_tap_is_parse_error(self, tmp_path, capsys, command):
        timeline = tmp_path / "t.cirt"
        write_test_timeline(timeline, [{0: 1.0}, {3: 0.5}])
        raw = bytearray(timeline.read_bytes())
        offset = 30 + (1 * 10 + 3) * 8 + 4  # imaginary part of snapshot 1, tap 3
        raw[offset:offset + 4] = struct.pack("<f", float("nan"))
        timeline.write_bytes(bytes(raw))
        args = {"report": ["report", "--timeline", str(timeline)],
                "emulate": ["emulate", "--timeline", str(timeline), "--fft", "8",
                            "--in", str(tmp_path / "in.owiq"),
                            "--out", str(tmp_path / "out.owiq")]}[command]
        assert main(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "snapshot 1 tap 3 " in captured.err
        assert f"byte offset {offset}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "abc"])
    @pytest.mark.parametrize("command, flag", [
        ("trace", "--fsamp"), ("trace", "--max-delay"),
        ("cir", "--fsamp"), ("cir", "--max-delay"), ("cir", "--t-int"),
        ("bench", "--fsamp"), ("check-ofdm", "--fsamp"),
        ("check-ofdm", "--freq-hz"), ("materials", "--freq-hz"),
        ("emulate", "--fft"), ("bench", "--fft"), ("check-ofdm", "--fft"),
    ])
    def test_bad_rate_or_interval_flag_is_parse_error(
            self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out.cirt"
        base = {"trace": ["--scene", "s.txt", "--trace", "t.csv", "--out", str(out)],
                "cir": ["--profile", "p.csv", "--fsamp", "46.08e6", "--out", str(out)],
                "emulate": ["--timeline", "t.cirt", "--out", str(out)],
                "bench": ["--slots", "2", "--taps", "1"],
                "check-ofdm": ["--speed", "1"],
                "materials": ["--material", "concrete"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *base, f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not out.exists()


BOUNDARY_VALUES = ["1e4", "-1e4", "1e308", "-1e308", "nan", "inf", "0", "x", "-1",
                   "1" + "0" * 400]
NUMERIC_FLAGS = {
    "emulate": ["--taps", "--signal-gain-db", "--noise-db", "--seed", "--fft"],
    "bench": ["--slots", "--taps", "--fft", "--fsamp", "--seed", "--noise-db"],
    "trace": ["--max-depth", "--fsamp", "--max-delay"],
    "cir": ["--fsamp", "--max-delay", "--t-int"],
    "kpi": ["--mcs", "--bler", "--nprb", "--mu", "--oh-dl", "--oh-ul"],
    "check-ofdm": ["--speed", "--freq-hz", "--mu", "--fft", "--fsamp",
                   "--sigma-tau", "--margin"],
}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A one-snapshot timeline, an empty OWIQ stream, a scene, a two-point
    trace and a delay profile: every run over them is a few slots at most."""
    d = tmp_path_factory.mktemp("tiny")
    write_test_timeline(d / "t.cirt", [{0: 1.0}])
    (d / "empty.owiq").write_bytes(b"")
    (d / "scene.txt").write_text(SCENE)
    (d / "trace.csv").write_text("t,x,y,z\n0.0,-20,0.0,1.5\n0.1,-16,0.0,1.5\n")
    (d / "profile.csv").write_text("re,im,delay_s\n1.0,0.0,0.0\n0.5,0.5,1e-7\n")
    return d


class TestFlagBoundaries:
    """Extreme and malformed numeric flag values end in a documented exit
    code (0, 2, 3 or 4) and never in a traceback."""

    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in NUMERIC_FLAGS.items() for flag in flags])
    def test_numeric_flag_ends_in_a_documented_exit_code(
            self, tiny_inputs, tmp_path, capsys, command, flag, value):
        d = tiny_inputs
        base = {
            "emulate": ["--timeline", d / "t.cirt", "--fft", "8",
                        "--in", d / "empty.owiq", "--out", tmp_path / "o.owiq"],
            "bench": ["--slots", "2", "--taps", "1", "--fft", "8",
                      "--fsamp", str(F_SAMP)],
            "trace": ["--scene", d / "scene.txt", "--trace", d / "trace.csv",
                      "--out", tmp_path / "o.cirt"],
            "cir": ["--profile", d / "profile.csv", "--fsamp", "46.08e6",
                    "--out", tmp_path / "o.cirt"],
            "kpi": ["--mcs", "27", "--bler", "0.01", "--dir", "dl"],
            "check-ofdm": ["--speed", "11.78"],
        }[command]
        # the swept flag comes last, so it overrides a base value
        argv = [command, *map(str, base), f"{flag}={value}"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_END_OF_SCENARIO)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("emulate", "--signal-gain-db", "1e4"),
        ("emulate", "--noise-db", "1e4"),
        ("bench", "--noise-db", "1e4"),
    ])
    def test_overflowing_db_scale_is_precondition_error(
            self, tiny_inputs, tmp_path, capsys, command, flag, value):
        d = tiny_inputs
        base = {"emulate": ["--timeline", str(d / "t.cirt"), "--in", str(d / "empty.owiq"),
                            "--out", str(tmp_path / "o.owiq")],
                "bench": ["--slots", "2", "--taps", "1"]}[command]
        assert main([command, *base, "--fft", "8", f"{flag}={value}"]) == EXIT_PRECONDITION
        name = "signal_gain_db" if flag == "--signal-gain-db" else "noise_power_db"
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {name} of 10000.0 dB overflows its linear scale")

    def test_overflowing_snapshot_to_slot_ratio_is_precondition_error(
            self, tiny_inputs, tmp_path, capsys):
        # f_samp and t_int are each finite, but t_int / slot duration is not
        timeline = tmp_path / "huge.cirt"
        timeline.write_bytes(struct.pack("<4sHddII", b"CIRT", 1, 1e300, 1e300, 1, 1)
                             + struct.pack("<ff", 1.0, 0.0))
        assert main(["emulate", "--timeline", str(timeline), "--fft", "8",
                     "--in", str(tiny_inputs / "empty.owiq"),
                     "--out", str(tmp_path / "o.owiq")]) == EXIT_PRECONDITION
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: t_int 1e+300 must be a positive integer multiple of the "
            "slot duration 1.2e-298")
        assert main(["report", "--timeline", str(timeline)]) == EXIT_OK


# A fixed 3-snapshot, 6-tap timeline: a multipath row, a row whose taps sum
# to zero, and an all-zero row.
FIXED_SNAPSHOTS = [
    [1.0, 0.5 + 0.25j, 0.0, -0.125j, 0.0625, 0.0],
    [0.0, 0.5, -0.5, 0.0, 0.0, 0.0],
    [0.0] * 6,
]

FIXED_ROWS = (
    "time_s,path_gain_db,strongest_tap_index,rms_delay_spread_s,retained_power_fraction\n"
    "0,3.904107,0,1.2040663e-08,0.985337243\n"
    "0.1,-inf,1,1.08506944e-08,1\n"
    "0.2,-inf,-1,nan,1\n"
)
FIXED_PDP = (
    "tap_0,tap_1,tap_2,tap_3,tap_4,tap_5\n"
    "0.0000,-5.0515,-200.0000,-18.0618,-24.0824,-200.0000\n"
    "-200.0000,-6.0206,-6.0206,-200.0000,-200.0000,-200.0000\n"
    "-200.0000,-200.0000,-200.0000,-200.0000,-200.0000,-200.0000\n"
)
FIXED_GAIN = "time_s,path_gain_db\n0,3.904107\n0.1,-inf\n0.2,-inf\n"

# `chanem cir` on three paths at 46.08 Msps, 0.1 us spread, 50 ms interval
CIR_PROFILE = "re,im,delay_s\n1.0,0.0,0.0\n0.5,-0.25,3.3e-8\n-0.125,0.5,8.1e-8\n"
CIR_BYTES = bytes.fromhex(
    "4349525401000000000000f985419a9999999999a93f010000000c000000a44b673f"
    "b195a73c8ba1963e2f82dfbdeb64b23effb56fbee35e17be91b65c3e03713fbdce82"
    "d23e265fb6bc79d290bdac5fb73cfa8c0d3de822a3bcd984b2bc1ae78f3c49617e3c"
    "d2b67fbc8cd042bcd464653cdb7d1c3ca6ae4fbc440802bc")


class TestReportBytes:
    """Outputs pinned byte for byte; the fixed timeline is written with struct."""

    def fixed_timeline(self, path):
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sHddII", b"CIRT", 1, 46.08e6, 0.1, 3, 6))
            for row in FIXED_SNAPSHOTS:
                for v in map(complex, row):
                    fh.write(struct.pack("<ff", v.real, v.imag))

    def test_report_csvs(self, tmp_path, capsys):
        cirt = tmp_path / "fixed.cirt"
        self.fixed_timeline(cirt)
        rows, pdp, gain = (tmp_path / n for n in ("rows.csv", "pdp.csv", "gain.csv"))
        assert main(["report", "--timeline", str(cirt), "--taps", "2", "--rows", str(rows),
                     "--pdp", str(pdp), "--gain", str(gain)]) == EXIT_OK
        assert rows.read_text() == FIXED_ROWS
        assert pdp.read_text() == FIXED_PDP
        assert gain.read_text() == FIXED_GAIN
        assert capsys.readouterr().out == ""
        assert main(["report", "--timeline", str(cirt), "--taps", "2"]) == EXIT_OK
        assert capsys.readouterr().out == FIXED_ROWS

    def test_cir_file(self, tmp_path):
        profile = tmp_path / "p.csv"
        profile.write_text(CIR_PROFILE)
        out = tmp_path / "one.cirt"
        assert main(["cir", "--profile", str(profile), "--fsamp", "46.08e6",
                     "--max-delay", "1e-7", "--t-int", "0.05", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == CIR_BYTES
