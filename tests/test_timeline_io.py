import math
import struct

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanem.cir import CirConfig, path_gain_total
from chanem.kpi import cir_rms_delay_spread
from chanem.errors import FormatError, InvalidInputError, ScenarioParseError
from chanem.scenefile import (build_scenario, load_scene, load_trace,
                              parse_profile, parse_scene, parse_trace)
from chanem.timeline import (DEFAULT_T_INT, CirTimeline, pdp_matrix_db,
                             read_timeline, report, write_path_gain_csv,
                             write_pdp_csv, write_report_rows_csv, write_timeline)

F_SAMP = 46.08e6

SCENE_FREE = """\
# free-space scene
tx 0 0 10
freq 4.01916e9
max_depth 0
"""


def random_timeline(rng, count=3, l_max=12, t_int=0.1):
    rows = []
    for _ in range(count):
        taps = (rng.standard_normal(l_max) + 1j * rng.standard_normal(l_max))
        taps = taps.astype(np.complex64).astype(np.complex128)  # f32-exact
        rows.append(taps)
    return CirTimeline(np.reshape(rows, (count, l_max)), F_SAMP, t_int)


class TestTimelineFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        timeline = random_timeline(rng, count=4)
        path = tmp_path / "t.cirt"
        write_timeline(timeline, path)
        back = read_timeline(path)
        assert back.t_int == timeline.t_int
        assert back.f_samp == timeline.f_samp
        assert back.l_max == timeline.l_max
        assert len(back) == len(timeline)
        for a, b in zip(timeline.taps, back.taps):
            np.testing.assert_array_equal(a, b)

    def test_empty_timeline_is_header_only(self, tmp_path):
        timeline = CirTimeline(np.zeros((0, 12), complex), F_SAMP, t_int=0.1)
        path = tmp_path / "empty.cirt"
        write_timeline(timeline, path)
        # magic(4) + version u16 + f_samp f64 + t_int f64 + count u32 + taps u32
        assert path.stat().st_size == 30
        back = read_timeline(path)
        assert len(back) == 0

    def test_header_fields(self, tmp_path):
        timeline = random_timeline(np.random.default_rng(1), count=2, l_max=9)
        path = tmp_path / "t.cirt"
        write_timeline(timeline, path)
        raw = path.read_bytes()
        magic, version, f_samp, t_int, count, taps = struct.unpack_from(
            "<4sHddII", raw)
        assert magic == b"CIRT"
        assert version == 1
        assert f_samp == F_SAMP
        assert t_int == 0.1
        assert (count, taps) == (2, 9)
        assert len(raw) == 30 + count * taps * 8

    def test_full_scale_payload_size(self, tmp_path):
        cfg = CirConfig(f_samp=F_SAMP, max_delay_spread=3e-6)
        timeline = CirTimeline(np.zeros((570, cfg.l_max), complex), F_SAMP, t_int=0.1)
        path = tmp_path / "big.cirt"
        write_timeline(timeline, path)
        assert path.stat().st_size == 30 + 570 * 146 * 8  # payload 665760 bytes

    def test_corrupted_magic_rejected(self, tmp_path):
        timeline = random_timeline(np.random.default_rng(2))
        path = tmp_path / "t.cirt"
        write_timeline(timeline, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_timeline(path)
        assert err.value.offset == 0

    def test_version_mismatch_rejected(self, tmp_path):
        timeline = random_timeline(np.random.default_rng(3))
        path = tmp_path / "t.cirt"
        write_timeline(timeline, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_timeline(path)

    @pytest.mark.parametrize("offset, value", [
        (6, float("nan")), (6, 0.0), (6, -46.08e6), (6, float("inf")),
        (6, 5e-324),  # finite and positive, but its tap grid spans inf seconds
        (14, float("nan")), (14, 0.0), (14, -0.1),
        (14, 1e308),  # finite and positive, but its 3 snapshots span inf seconds
    ])
    def test_bad_rate_or_interval_is_format_error(self, tmp_path, offset, value):
        path = tmp_path / "t.cirt"
        write_timeline(random_timeline(np.random.default_rng(6)), path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_timeline(path)
        assert err.value.offset == offset

    def test_header_only_file_at_a_rate_without_a_finite_grid_is_format_error(
            self, tmp_path):
        # no taps declared: the grid the timeline would hold has one tap
        path = tmp_path / "t.cirt"
        path.write_bytes(struct.pack("<4sHddII", b"CIRT", 1, 5e-324, 0.1, 0, 0))
        with pytest.raises(FormatError, match=r"^f_samp of 5e-324 Hz is too low: its 1-tap"):
            read_timeline(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        timeline = random_timeline(np.random.default_rng(4))
        path = tmp_path / "t.cirt"
        write_timeline(timeline, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(FormatError, match="byte offset"):
            read_timeline(path)

    def test_trailing_junk_rejected(self, tmp_path):
        timeline = random_timeline(np.random.default_rng(5))
        path = tmp_path / "t.cirt"
        write_timeline(timeline, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_timeline(path)

    def test_snapshots_without_taps_rejected(self, tmp_path):
        path = tmp_path / "t.cirt"
        path.write_bytes(struct.pack("<4sHddII", b"CIRT", 1, F_SAMP, 0.1, 2, 0))
        with pytest.raises(FormatError, match="zero taps") as err:
            read_timeline(path)
        assert err.value.offset == 26

    @pytest.mark.parametrize("snapshot, tap, value, part", [
        (0, 0, complex(float("nan"), 0.0), 0),
        (1, 7, complex(0.5, float("inf")), 4),
        (2, 11, complex(float("-inf"), float("nan")), 0),
    ])
    def test_non_finite_tap_names_snapshot_tap_and_offset(
            self, tmp_path, snapshot, tap, value, part):
        path = tmp_path / "t.cirt"
        write_timeline(random_timeline(np.random.default_rng(7)), path)  # 3 x 12
        raw = bytearray(path.read_bytes())
        offset = 30 + (snapshot * 12 + tap) * 8
        raw[offset:offset + 8] = struct.pack("<ff", value.real, value.imag)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"snapshot {snapshot} tap {tap} ") as err:
            read_timeline(path)
        assert err.value.offset == offset + part

    @pytest.mark.parametrize("value", [complex(1e308, 1e308), complex(0.0, -3.5e38)])
    def test_tap_too_large_for_complex64_is_rejected_before_writing(
            self, tmp_path, value):
        # finite as complex128, infinite as stored: the reader would refuse
        # the file, so the writer refuses the timeline and leaves the target
        # as it was
        timeline = random_timeline(np.random.default_rng(5))  # 3 x 12
        timeline.taps[2, 9] = value
        old = tmp_path / "old.cirt"
        write_timeline(random_timeline(np.random.default_rng(6)), old)
        before = old.read_bytes()
        for path in (old, tmp_path / "new.cirt"):
            with pytest.raises(InvalidInputError,
                               match="snapshot 2 tap 9 = .* is not finite as complex64"):
                write_timeline(timeline, path)
        assert old.read_bytes() == before
        assert not (tmp_path / "new.cirt").exists()

    def test_largest_complex64_tap_round_trips(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        timeline = random_timeline(np.random.default_rng(5))
        timeline.taps[1, 4] = complex(big, -big)
        path = tmp_path / "t.cirt"
        write_timeline(timeline, path)
        assert np.array_equal(read_timeline(path).taps, timeline.taps)


class TestTimelineValues:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    @pytest.mark.parametrize("build, field", [
        (lambda v: CirConfig(f_samp=v), "f_samp"),
        (lambda v: CirConfig(f_samp=F_SAMP, max_delay_spread=v), "max_delay_spread"),
        (lambda v: CirTimeline(np.zeros((1, 4)), v, 0.1), "f_samp"),
        (lambda v: CirTimeline(np.zeros((1, 4)), F_SAMP, v), "t_int"),
    ])
    def test_bad_rate_or_interval_rejected(self, build, field, value):
        with pytest.raises(InvalidInputError, match=field):
            build(value)

    @pytest.mark.parametrize("build", [
        lambda: CirConfig(f_samp=5e-324),
        lambda: CirTimeline(np.zeros((1, 4)), 5e-324, 0.1),
    ])
    def test_rate_whose_tap_grid_overflows_rejected(self, build):
        with pytest.raises(InvalidInputError, match=r"^f_samp of 5e-324 Hz is too low"):
            build()
        # a finite grid, however long, is a rate
        assert CirTimeline(np.zeros((1, 8)), 1e-300, 0.1).l_max == 8

    def test_snapshots_spanning_no_finite_duration_rejected(self):
        with pytest.raises(InvalidInputError,
                           match=r"^3 snapshots 1e\+308 s apart span no finite duration$"):
            CirTimeline(np.zeros((3, 1)), F_SAMP, 1e308)
        # one snapshot, or none, spans a finite time at any finite interval
        assert CirTimeline(np.zeros((1, 1)), F_SAMP, 1.7e308).duration == 1.7e308
        assert CirTimeline(np.zeros((0, 1)), F_SAMP, 1.7e308).duration == 0.0

    @pytest.mark.parametrize("taps", [np.zeros(4), np.zeros((2, 0)), np.zeros((1, 2, 2))])
    def test_taps_must_be_a_matrix_with_taps(self, taps):
        with pytest.raises(InvalidInputError, match="matrix"):
            CirTimeline(taps, F_SAMP, 0.1)

    def test_facts_derive_from_the_matrix(self):
        timeline = CirTimeline(np.ones((5, 3)), F_SAMP, 0.25)
        assert (len(timeline), timeline.l_max) == (5, 3)
        assert timeline.duration == 1.25
        assert timeline.taps.dtype == np.complex128
        assert timeline.taps.flags.c_contiguous


_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)


@st.composite
def _timelines(draw, max_snapshots=4, max_taps=5):
    """Any timeline whose taps survive the f32 file payload exactly."""
    count = draw(st.integers(0, max_snapshots))
    taps = draw(st.integers(1, max_taps))
    parts = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                          min_size=2 * count * taps, max_size=2 * count * taps))
    matrix = np.array(parts, dtype=np.float32).view(np.complex64).reshape(count, taps)
    # a rate whose tap grid spans more seconds than the largest float is
    # rejected by CirTimeline itself
    f_samp = draw(_positive.filter(lambda f: math.isfinite(taps / f)))
    # and so are snapshots spanning more seconds than the largest float
    t_int = draw(_positive.filter(lambda t: math.isfinite(count * t)))
    return CirTimeline(matrix, f_samp, t_int)


class TestTimelineFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(timeline=_timelines())
    def test_round_trip_is_bit_exact(self, timeline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.cirt"
            write_timeline(timeline, path)
            back = read_timeline(path)
        assert (back.f_samp, back.t_int) == (timeline.f_samp, timeline.t_int)
        assert back.taps.shape == timeline.taps.shape
        assert back.taps.tobytes() == timeline.taps.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(timeline=_timelines(max_snapshots=3, max_taps=3),
           suffix=st.binary(min_size=1, max_size=24))
    def test_every_prefix_and_any_suffix_is_format_error(self, timeline, suffix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.cirt"
            write_timeline(timeline, path)
            data = path.read_bytes()
            for cut in range(len(data)):
                path.write_bytes(data[:cut])
                with pytest.raises(FormatError):
                    read_timeline(path)
            path.write_bytes(data + suffix)
            with pytest.raises(FormatError):
                read_timeline(path)


class TestBuildScenario:
    def test_free_space_single_snapshot(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_FREE)
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x,y,z\n0.0,100.0,0.0,10.0\n")
        cfg = CirConfig(f_samp=F_SAMP, max_delay_spread=3e-6)
        timeline = build_scenario(scene, trace, cfg)
        assert len(timeline) == 1
        # the 333.6 ns delay is off the tap grid, so the free-space energy
        # spreads over neighboring sinc taps: the total captured tap energy
        # carries the -84.53 dB Friis value; the coherent sum loses ~0.1 dB
        # to the discarded negative-index tail
        taps = timeline.taps[0]
        energy_db = 10 * math.log10(float(np.sum(np.abs(taps) ** 2)))
        assert energy_db == pytest.approx(-84.53, abs=0.05)
        assert path_gain_total(timeline.taps[0]) == pytest.approx(-84.53, abs=0.15)

    def test_snapshot_count_and_duration(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_FREE)
        rows = ["t,x,y,z"]
        rows += [f"{0.1 * i:.1f},{100.0 + i},0.0,1.5" for i in range(230)]
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(rows) + "\n")
        timeline = build_scenario(scene, trace, CirConfig(f_samp=F_SAMP))
        assert len(timeline) == 230
        assert timeline.duration == pytest.approx(23.0)

    def test_excessive_delay_names_snapshot(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_FREE)
        trace = tmp_path / "trace.csv"
        # second position is ~1200 m away: delay 4 us > 3 us budget
        trace.write_text("t,x,y,z\n0.0,100.0,0.0,10.0\n0.1,1200.0,0.0,10.0\n")
        with pytest.raises(InvalidInputError,
                           match=r"^snapshot 1: path 0 delay \S+ s exceeds max delay spread "):
            build_scenario(scene, trace, CirConfig(f_samp=F_SAMP))


# Text for the parsers: well-formed records and CSV rows whose numbers may be
# negative, huge, non-finite, overflowing (1e400) or not numbers, mixed with
# the headers and with lines of random tokens joined by spaces or commas.
PARSER_NUMBER = st.sampled_from([
    "0", "1", "-1", "2.5", "12", "1e9", "4.01916e9", "1e-6", "1e300", "-1e300",
    "nan", "inf", "-inf", "1e400", "abc"]) | st.floats().map(repr)
PARSER_NAME = st.sampled_from(["concrete", "glass", "metal", "brick", "vacuum", "nope"])
PARSER_RECORD = st.one_of(
    st.builds("material {} {} {} {} {}".format, PARSER_NAME, *[PARSER_NUMBER] * 4),
    st.builds("ground z {} material {}".format, PARSER_NUMBER, PARSER_NAME),
    st.builds("wall {} {} {} {} {} {} material {}".format,
              *[PARSER_NUMBER] * 6, PARSER_NAME),
    st.builds("tx {} {} {}".format, *[PARSER_NUMBER] * 3),
    st.builds("freq {}".format, PARSER_NUMBER),
    st.builds("max_depth {}".format, PARSER_NUMBER))
PARSER_CSV_ROW = st.one_of(st.builds("{},{},{},{}".format, *[PARSER_NUMBER] * 4),
                           st.builds("{},{},{}".format, *[PARSER_NUMBER] * 3))
PARSER_TOKEN = st.sampled_from([
    "material", "ground", "wall", "tx", "freq", "max_depth", "z", "#", ""]) \
    | PARSER_NAME | PARSER_NUMBER | st.text(max_size=4)
PARSER_LINE = st.one_of(
    st.sampled_from(["t,x,y,z", "re,im,delay_s", "tx 0 0 10", "freq 1e9"]),
    PARSER_RECORD, PARSER_CSV_ROW,
    st.tuples(st.sampled_from([" ", ","]), st.lists(PARSER_TOKEN, max_size=9))
    .map(lambda sep_tokens: sep_tokens[0].join(sep_tokens[1])))
PARSER_TEXT = st.one_of(
    st.lists(PARSER_LINE, max_size=8),
    st.tuples(st.sampled_from(["t,x,y,z", "re,im,delay_s"]),
              st.lists(PARSER_CSV_ROW, max_size=6))
    .map(lambda header_rows: [header_rows[0], *header_rows[1]]),
).map("\n".join)


class TestParsers:
    def test_scene_records(self):
        text = """
        material brick 3.91 0 0.0238 0.16
        ground z 0.0 material concrete
        wall -10 5 10 5 0 12 material brick
        tx 0 0 10
        freq 4.01916e9
        max_depth 2
        """
        scene = parse_scene(text)
        assert len(scene.facets) == 2
        assert scene.max_depth == 2
        assert "brick" in scene.materials

    def test_scene_missing_tx(self):
        with pytest.raises(ScenarioParseError, match="tx"):
            parse_scene("freq 1e9\n")

    def test_scene_bad_record_names_line(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scene("tx 0 0 10\nfreq 1e9\nwibble 1 2 3\n")
        assert err.value.line == 3

    def test_scene_unknown_material_rejected(self):
        text = "tx 0 0 10\nfreq 1e9\nground z 0 material unobtainium\n"
        with pytest.raises(ScenarioParseError):
            parse_scene(text)

    def test_trace_requires_uniform_steps(self):
        with pytest.raises(ScenarioParseError):
            parse_trace("t,x,y,z\n0.0,0,0,1.5\n0.1,1,0,1.5\n0.3,2,0,1.5\n")

    def test_trace_header_enforced(self):
        with pytest.raises(ScenarioParseError):
            parse_trace("time,x,y,z\n0.0,0,0,1.5\n")

    def test_trace_round_values(self):
        trace = parse_trace("t,x,y,z\n0.0,1,2,1.5\n0.1,3,4,2.5\n")
        assert trace.interval == pytest.approx(0.1)
        np.testing.assert_allclose(trace.positions,
                                   [[1, 2, 1.5], [3, 4, 2.5]])

    def test_profile_rows_with_header(self):
        profile = parse_profile("re,im,delay_s\n1.0,0.5,0.0\n-0.25,0,1e-6\n")
        assert profile.n_paths == 2
        assert profile.amps[0] == 1.0 + 0.5j
        assert profile.delays[1] == 1e-6

    @pytest.mark.parametrize("parse, text, want", [
        (parse_profile, "1.0,0.0,1e-7x\n0.5,0,2e-7\n", 1),
        (parse_profile, "\nre,im,delay_s\n1,0,0\n", "1 path"),
        (parse_trace, "t,x,y,z\n\n\n0,1,2,3\n0.1,1,2,abc\n", 5),
        (parse_scene, "tx 0 0 10\nfreq 4e9\nmax_depth 2 junk\n", 3),
        (parse_scene, "tx 0 0 10\nfreq 4e9\ntx 5 5 5\n", 3),
        (parse_scene, "tx 0 0 10\nfreq 4e9\n\nfreq 3e9\n", 4),
        (parse_scene, "max_depth 1\ntx 0 0 10\nfreq 4e9\nmax_depth 1\n", 4),
        (parse_scene, "tx 0 0 10\nfreq 4e9\nground z 0 material concrete\n"
                      "ground z -1 material concrete\n", 4),
    ])
    def test_text_parses_or_names_its_line(self, parse, text, want):
        if want == "1 path":
            assert parse(text).n_paths == 1
            return
        with pytest.raises(ScenarioParseError) as err:
            parse(text)
        assert err.value.line == want

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_lines_end_at_lf_only(self, char):
        # str.splitlines also breaks at these; an editor counting LF does not
        for parse, text in [(parse_scene, f"tx 0 0 10\nfreq 4e9 {char}\nwibble"),
                            (parse_trace, f"t,x,y,z\n0,1,2,3{char}\n0.1,1,2,abc"),
                            (parse_profile, f"re,im,delay_s\n1,0,0{char}\n0.5,0,x")]:
            with pytest.raises(ScenarioParseError) as err:
                parse(text)
            assert err.value.line == 3

    def test_crlf_text_parses_and_counts_lf(self, tmp_path):
        scene, trace = tmp_path / "scene.txt", tmp_path / "trace.csv"
        scene.write_bytes(b"tx 0 0 10\r\nfreq 4e9\r\n\r\nwibble 1\r\n")
        trace.write_bytes(b"t,x,y,z\r\n0.0,1,2,1.5\r\n0.1,3,4,2.5\r\n")
        for parse in (lambda: load_scene(scene),
                      lambda: parse_scene(scene.read_bytes().decode())):
            with pytest.raises(ScenarioParseError) as err:
                parse()
            assert err.value.line == 4
        for parsed in (load_trace(trace), parse_trace(trace.read_bytes().decode())):
            np.testing.assert_array_equal(parsed.positions, [[1, 2, 1.5], [3, 4, 2.5]])

    @settings(max_examples=300, deadline=None)
    @given(text=PARSER_TEXT)
    def test_parsers_raise_only_parse_errors(self, text):
        for parse in (parse_scene, parse_trace, parse_profile):
            try:
                parse(text)
            except ScenarioParseError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(text=PARSER_TEXT, k=st.integers(1, 3))
    def test_blank_lines_before_text_move_its_error_line(self, text, k):
        def outcome(parse, text):
            try:
                parse(text)
            except ScenarioParseError as exc:
                return exc.line
            return "parsed"

        for parse in (parse_scene, parse_trace, parse_profile):
            line = outcome(parse, text)
            shifted = outcome(parse, "\n" * k + text)
            assert shifted == (line + k if isinstance(line, int) else line)

    def test_randomized_trace_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 40))
            interval = float(rng.uniform(0.01, 1.0))
            pos = np.column_stack([rng.uniform(-500, 500, n),
                                   rng.uniform(-500, 500, n),
                                   rng.uniform(0.5, 30, n)])
            lines = ["t,x,y,z"] + [
                f"{i * interval:.9g},{x:.9g},{y:.9g},{z:.9g}"
                for i, (x, y, z) in enumerate(pos)]
            trace = parse_trace("\n".join(lines) + "\n")
            # one row has no step of its own
            want = interval if n > 1 else DEFAULT_T_INT
            assert trace.interval == pytest.approx(want, rel=1e-6)
            np.testing.assert_allclose(trace.positions, pos, rtol=1e-7)

    def test_randomized_scene_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n_walls = int(rng.integers(0, 6))
            lines = ["tx 0 0 10", "freq 4.01916e9", "ground z 0 material concrete"]
            for _ in range(n_walls):
                x1, y1 = rng.uniform(-100, 100, 2)
                span = rng.uniform(1, 50)
                if rng.random() < 0.5:
                    x2, y2 = x1, y1 + span
                else:
                    x2, y2 = x1 + span, y1
                z1 = rng.uniform(0, 5)
                lines.append(f"wall {x1:.6g} {y1:.6g} {x2:.6g} {y2:.6g} "
                             f"{z1:.6g} {z1 + rng.uniform(1, 20):.6g} "
                             f"material glass")
            scene = parse_scene("\n".join(lines) + "\n")
            assert len(scene.facets) == n_walls + 1
            assert scene.carrier_freq == 4.01916e9


class TestReport:
    def test_stationary_plateau_is_exact(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_FREE)
        rows = ["t,x,y,z"]
        rows += [f"{0.1 * i:.1f},80.0,0.0,1.5" for i in range(5)]
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(rows) + "\n")
        timeline = build_scenario(scene, trace, CirConfig(f_samp=F_SAMP))
        rows = report(timeline, 28)
        gains = {r.path_gain_db for r in rows}
        assert len(gains) == 1

    def test_unit_tap_pdp_row(self):
        taps = np.zeros(12, complex)
        taps[0] = 1.0
        timeline = CirTimeline([taps], F_SAMP, t_int=0.1)
        matrix = pdp_matrix_db(timeline)
        assert matrix[0, 0] == pytest.approx(0.0)
        assert np.all(matrix[0, 1:] == -200.0)

    def test_v_shape_on_pure_los_pass(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_FREE)
        xs = list(range(-300, 301, 20))
        rows = ["t,x,y,z"] + [f"{0.1 * i:.1f},{x},0.0,1.5"
                              for i, x in enumerate(xs)]
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(rows) + "\n")
        timeline = build_scenario(scene, trace, CirConfig(f_samp=F_SAMP))
        taps = [r.strongest_tap_index for r in report(timeline, 28)]
        pivot = int(np.argmin(taps))
        assert all(a >= b for a, b in zip(taps[:pivot + 1], taps[1:pivot + 1]))
        assert all(a <= b for a, b in zip(taps[pivot:], taps[pivot + 1:]))
        assert taps[0] > taps[pivot]
        assert taps[-1] > taps[pivot]

    def test_gain_column_matches_cir_engine(self, tmp_path):
        rng = np.random.default_rng(6)
        timeline = random_timeline(rng, count=5)
        rows = report(timeline, 4)
        for row, cir in zip(rows, timeline.taps):
            assert row.path_gain_db == path_gain_total(cir)
            assert row.retained_power_fraction <= 1.0 + 1e-12

    def test_csv_writers(self, tmp_path):
        rng = np.random.default_rng(7)
        timeline = random_timeline(rng, count=3, l_max=5)
        rows = report(timeline, 2)
        out = tmp_path / "rows.csv"
        with open(out, "w") as fh:
            write_report_rows_csv(rows, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("time_s,path_gain_db,strongest_tap_index")
        assert len(lines) == 4
        with open(tmp_path / "pdp.csv", "w") as fh:
            write_pdp_csv(timeline, fh)
        pdp = (tmp_path / "pdp.csv").read_text().strip().splitlines()
        assert pdp[0] == "tap_0,tap_1,tap_2,tap_3,tap_4"
        assert len(pdp) == 4
        with open(tmp_path / "gain.csv", "w") as fh:
            write_path_gain_csv(timeline, fh)
        gain = (tmp_path / "gain.csv").read_text().strip().splitlines()
        assert gain[0] == "time_s,path_gain_db"
        assert len(gain) == 4

    def test_delay_spread_is_finite_on_a_finite_grid(self):
        # in seconds the tap delays reach 7e300, whose squares overflow; the
        # spread is taken in taps and then divided by the rate
        taps = np.array([[1e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
        row = report(CirTimeline(taps, 1e-300, 0.1), 3)[0]
        assert row.rms_delay_spread == pytest.approx(cir_rms_delay_spread(taps[0], 1.0) / 1e-300)
        assert math.isfinite(row.rms_delay_spread)

    def test_all_zero_snapshot_row(self):
        timeline = CirTimeline(np.zeros((1, 12), complex), F_SAMP, t_int=0.1)
        row = report(timeline, 3)[0]
        assert row.path_gain_db == float("-inf")
        assert row.strongest_tap_index == -1
        assert math.isnan(row.rms_delay_spread)
        assert row.retained_power_fraction == 1.0
