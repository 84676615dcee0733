import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chanem.errors import FormatError, InvalidInputError
from chanem.iqstream import FMT_F32, FMT_I16, FrameBuffers, read_frame, write_frame


def test_f32_round_trip():
    rng = np.random.default_rng(0)
    samples = 100 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    buf = io.BytesIO()
    clipped = write_frame(buf, 7, samples, fmt=FMT_F32)
    assert clipped == 0
    buf.seek(0)
    back = np.empty(64, complex)
    slot_index, fmt = read_frame(buf, back)
    assert slot_index == 7
    assert fmt == FMT_F32
    np.testing.assert_allclose(back, samples, rtol=1e-6)
    assert read_frame(buf, back) is None  # clean EOF


def test_i16_round_trip_is_exact_for_integers():
    rng = np.random.default_rng(1)
    samples = (rng.integers(-30000, 30000, 32)
               + 1j * rng.integers(-30000, 30000, 32)).astype(complex)
    buf = io.BytesIO()
    clipped = write_frame(buf, 0, samples, fmt=FMT_I16)
    assert clipped == 0
    buf.seek(0)
    back = np.empty(32, complex)
    _, fmt = read_frame(buf, back)
    assert fmt == FMT_I16
    np.testing.assert_array_equal(back, samples)


def test_i16_clipping_counts_saturated_samples():
    samples = np.array([40000.0, -40000.0j, 100.0 + 100.0j, 32767.0])
    buf = io.BytesIO()
    clipped = write_frame(buf, 0, samples, fmt=FMT_I16)
    assert clipped == 2
    buf.seek(0)
    back = np.empty(len(samples), complex)
    read_frame(buf, back)
    assert back[0] == 32767.0
    assert back[1] == -32767.0j
    assert back[3] == 32767.0


def test_multiple_frames_stream():
    buf = io.BytesIO()
    for i in range(3):
        write_frame(buf, i, np.full(8, float(i)), fmt=FMT_F32)
    buf.seek(0)
    seen = []
    while (frame := read_frame(buf, np.empty(8, complex))) is not None:
        seen.append(frame[0])
    assert seen == [0, 1, 2]


def test_truncated_header_rejected():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(4), fmt=FMT_F32)
    raw = buf.getvalue()
    with pytest.raises(FormatError):
        read_frame(io.BytesIO(raw[:10]), np.empty(4, complex))


def test_truncated_payload_rejected():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(4), fmt=FMT_F32)
    raw = buf.getvalue()
    with pytest.raises(FormatError, match="payload"):
        read_frame(io.BytesIO(raw[:-5]), np.empty(4, complex))


def test_bad_magic_rejected():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(4), fmt=FMT_F32)
    raw = bytearray(buf.getvalue())
    raw[:4] = b"NOPE"
    with pytest.raises(FormatError):
        read_frame(io.BytesIO(bytes(raw)), np.empty(4, complex))


def test_unknown_format_rejected():
    with pytest.raises(InvalidInputError):
        write_frame(io.BytesIO(), 0, np.zeros(4), fmt="f64")


class _RecordingReader(io.BytesIO):
    """A byte stream that records the size of every read it is asked for."""

    def __init__(self, data):
        super().__init__(data)
        self.requests = []

    def read(self, n=-1):
        self.requests.append(n)
        return super().read(n)

    def readinto(self, b):
        self.requests.append(len(b))
        return super().readinto(b)


def test_sample_count_checked_before_payload_read():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(7))
    reader = _RecordingReader(buf.getvalue())
    with pytest.raises(FormatError, match="7 samples"):
        read_frame(reader, np.empty(120, complex))
    assert reader.requests == [20]  # the header only


@pytest.mark.parametrize("flags", [0x0002, 0x8000, 0xFFFF])
def test_unknown_flag_bits_rejected_before_payload_read(flags):
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(4))
    raw = bytearray(buf.getvalue())
    raw[6:8] = struct.pack("<H", flags)
    reader = _RecordingReader(bytes(raw))
    with pytest.raises(FormatError, match="flags") as exc:
        read_frame(reader, np.empty(4, complex))
    assert exc.value.offset == 6
    assert reader.requests == [20]  # the header only


class _TrickleReader(io.BytesIO):
    """A byte stream that fills at most 7 bytes per readinto, like a socket."""

    def readinto(self, b):
        return super().readinto(memoryview(b)[:7])


def test_payload_read_in_pieces():
    x = np.arange(12.0) * 1000.0 - 2000.5j
    buf = io.BytesIO()
    write_frame(buf, 4, x, fmt=FMT_F32)
    write_frame(buf, 5, -x)
    reader = _TrickleReader(buf.getvalue())
    back = np.empty(12, complex)
    bufs = FrameBuffers(12)
    assert read_frame(reader, back, bufs) == (4, FMT_F32)
    np.testing.assert_array_equal(back, x)
    assert read_frame(reader, back, bufs) == (5, FMT_I16)
    np.testing.assert_array_equal(back, np.rint(-x.real) + 1j * np.rint(-x.imag))
    assert read_frame(reader, back, bufs) is None


def test_one_buffer_set_per_stream_gives_the_same_bytes():
    # a stream reuses one FrameBuffers for frames of either format
    rng = np.random.default_rng(9)
    frames = [(fmt, (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * 3e4)
              for fmt in (FMT_I16, FMT_F32, FMT_I16, FMT_I16, FMT_F32)]
    shared, fresh = io.BytesIO(), io.BytesIO()
    bufs = FrameBuffers(40)
    clipped = [write_frame(shared, i, x, fmt, bufs) for i, (fmt, x) in enumerate(frames)]
    assert clipped == [write_frame(fresh, i, x, fmt) for i, (fmt, x) in enumerate(frames)]
    assert sum(clipped) > 0
    assert shared.getvalue() == fresh.getvalue()
    shared.seek(0)
    fresh.seek(0)
    a, b = np.empty(40, complex), np.empty(40, complex)
    for i, (fmt, _) in enumerate(frames):
        assert read_frame(shared, a, bufs) == read_frame(fresh, b) == (i, fmt)
        np.testing.assert_array_equal(a, b)


def _reference_word(v, fmt):
    """(value written, whether it was saturated or zeroed) for one value."""
    if math.isnan(v):
        return 0, True
    if fmt == FMT_I16:
        r = round(v) if math.isfinite(v) else v  # Python rounds half to even
        return (r, False) if abs(r) <= 32767 else (int(math.copysign(32767, v)), True)
    try:
        struct.pack("<f", v)
        fits = math.isfinite(v)
    except OverflowError:  # v rounds past the float32 maximum
        fits = False
    return (v, False) if fits else (math.copysign(F32_MAX, v), True)


def _reference_payload(samples, fmt):
    """OWIQ payload and clipped count, one value at a time with struct."""
    values = [v for s in np.asarray(samples, dtype=complex)
              for v in (s.real, s.imag)]
    code = "<f" if fmt == FMT_F32 else "<h"
    words = [_reference_word(v, fmt) for v in values]
    return (b"".join(struct.pack(code, w) for w, _ in words),
            sum(clipped for _, clipped in words))


F32_MAX = float(np.finfo(np.float32).max)
NON_FINITE_EDGES = np.array([
    complex(np.nan, 1.0), complex(np.inf, -np.inf), complex(-np.nan, np.nan),
    1e300 - 1e300j, complex(F32_MAX, -F32_MAX), 2.5 + 0.0j,
    complex(F32_MAX * (1 + 2**-26), 0.0),  # rounds down to the float32 maximum
])


I16_EDGES = np.array([
    32767.0, -32767.0 + 32767.4j, 32767.5 - 32767.5j, 32766.5 + 0.5j,
    -32766.5 + 1.5j, 2.5 - 2.5j, 40000.0 - 1e9j, -0.5 + 0.49999999999999994j,
    1e300 - 1e300j, 12345.678 - 0.0j,
])


@pytest.mark.parametrize("fmt, samples", [
    (FMT_I16, I16_EDGES),
    (FMT_I16, np.random.default_rng(2).standard_normal(64) * 3e4
     + 1j * np.random.default_rng(3).standard_normal(64) * 3e4),
    (FMT_F32, np.random.default_rng(4).standard_normal(64) * 1e3
     - 1j * np.random.default_rng(5).standard_normal(64) * 1e-3),
    (FMT_I16, np.arange(16.0) * 4096.5),                   # real input
    (FMT_F32, np.linspace(-2.0, 2.0, 16)),                 # real input
    (FMT_I16, (I16_EDGES[::-1] * (1 + 1j))[::2]),          # non-contiguous
    (FMT_F32, np.exp(1j * np.arange(32.0))[1::3]),         # non-contiguous
    (FMT_I16, NON_FINITE_EDGES),
    (FMT_F32, NON_FINITE_EDGES),
])
def test_codec_is_bit_identical_to_reference(fmt, samples):
    before = np.array(samples, copy=True)
    buf = io.BytesIO()
    clipped = write_frame(buf, 11, samples, fmt=fmt)
    payload, want_clipped = _reference_payload(samples, fmt)
    raw = buf.getvalue()
    assert raw[20:] == payload
    assert clipped == want_clipped and type(clipped) is int
    np.testing.assert_array_equal(samples, before)  # input left untouched

    buf.seek(0)
    back = np.empty(len(samples), complex)
    slot_index, got_fmt = read_frame(buf, back)
    code = "<f" if fmt == FMT_F32 else "<h"
    values = [v for (v,) in struct.iter_unpack(code, payload)]
    want = np.array(values[0::2]) + 1j * np.array(values[1::2])
    assert (slot_index, got_fmt) == (11, fmt)
    assert back.dtype == np.complex128 and back.flags.c_contiguous
    np.testing.assert_array_equal(back, want)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("position", [0, 5, 15])
def test_non_finite_f32_value_rejected(bad, position):
    inter = np.ones(16, dtype="<f4")
    inter[position] = bad
    inter[position + 1:] = np.nan  # only the first one is named
    frame = struct.pack("<4sHHQI", b"OWIQ", 1, 1, 3, 8) + inter.tobytes()
    with pytest.raises(FormatError, match="slot 3") as exc:
        read_frame(io.BytesIO(frame), np.empty(8, complex))
    assert exc.value.offset == 20 + 4 * position
    assert f"sample {position // 2}" in str(exc.value)


@st.composite
def exact_frames(draw):
    """(fmt, slot_index, samples) whose values the format carries exactly."""
    fmt = draw(st.sampled_from([FMT_I16, FMT_F32]))
    n = draw(st.integers(0, 24))
    if fmt == FMT_I16:
        value = st.integers(-32767, 32767).map(float)
    else:
        value = st.floats(width=32, allow_nan=False, allow_infinity=False)
    iq = np.array(draw(st.lists(value, min_size=2 * n, max_size=2 * n)),
                  dtype=np.float64)
    return fmt, draw(st.integers(0, 2**64 - 1)), iq[0::2] + 1j * iq[1::2]


@given(exact_frames())
def test_frames_round_trip(frame):
    fmt, slot_index, samples = frame
    buf = io.BytesIO()
    assert write_frame(buf, slot_index, samples, fmt=fmt) == 0
    assert len(buf.getvalue()) == 20 + len(samples) * (8 if fmt == FMT_F32 else 4)
    buf.seek(0)
    back = np.empty(len(samples), complex)
    assert read_frame(buf, back) == (slot_index, fmt)
    np.testing.assert_array_equal(back, samples)
    assert read_frame(buf, back) is None


@given(exact_frames())
def test_truncation_at_every_byte_raises_format_error(frame):
    fmt, slot_index, samples = frame
    buf = io.BytesIO()
    write_frame(buf, slot_index, samples, fmt=fmt)
    raw = buf.getvalue()
    back = np.empty(len(samples), complex)
    for cut in range(1, len(raw)):
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(raw[:cut]), back)
