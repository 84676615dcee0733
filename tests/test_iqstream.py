import io

import numpy as np
import pytest

from chanem.errors import FormatError, InvalidInputError
from chanem.iqstream import (FMT_F32, FMT_I16, read_frame, write_frame)


def test_f32_round_trip():
    rng = np.random.default_rng(0)
    samples = 100 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    buf = io.BytesIO()
    clipped = write_frame(buf, 7, samples, fmt=FMT_F32)
    assert clipped == 0
    buf.seek(0)
    slot_index, back, fmt = read_frame(buf, 64)
    assert slot_index == 7
    assert fmt == FMT_F32
    np.testing.assert_allclose(back, samples, rtol=1e-6)
    assert read_frame(buf, 64) is None  # clean EOF


def test_i16_round_trip_is_exact_for_integers():
    rng = np.random.default_rng(1)
    samples = (rng.integers(-30000, 30000, 32)
               + 1j * rng.integers(-30000, 30000, 32)).astype(complex)
    buf = io.BytesIO()
    clipped = write_frame(buf, 0, samples, fmt=FMT_I16)
    assert clipped == 0
    buf.seek(0)
    _, back, fmt = read_frame(buf, 32)
    assert fmt == FMT_I16
    np.testing.assert_array_equal(back, samples)


def test_i16_clipping_counts_saturated_samples():
    samples = np.array([40000.0, -40000.0j, 100.0 + 100.0j, 32767.0])
    buf = io.BytesIO()
    clipped = write_frame(buf, 0, samples, fmt=FMT_I16)
    assert clipped == 2
    buf.seek(0)
    _, back, _ = read_frame(buf, len(samples))
    assert back[0] == 32767.0
    assert back[1] == -32767.0j
    assert back[3] == 32767.0


def test_multiple_frames_stream():
    buf = io.BytesIO()
    for i in range(3):
        write_frame(buf, i, np.full(8, float(i)), fmt=FMT_F32)
    buf.seek(0)
    seen = []
    while (frame := read_frame(buf, 8)) is not None:
        seen.append(frame[0])
    assert seen == [0, 1, 2]


def test_truncated_header_rejected():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(4), fmt=FMT_F32)
    raw = buf.getvalue()
    with pytest.raises(FormatError):
        read_frame(io.BytesIO(raw[:10]), 4)


def test_truncated_payload_rejected():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(4), fmt=FMT_F32)
    raw = buf.getvalue()
    with pytest.raises(FormatError, match="payload"):
        read_frame(io.BytesIO(raw[:-5]), 4)


def test_bad_magic_rejected():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(4), fmt=FMT_F32)
    raw = bytearray(buf.getvalue())
    raw[:4] = b"NOPE"
    with pytest.raises(FormatError):
        read_frame(io.BytesIO(bytes(raw)), 4)


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


def test_sample_count_checked_before_payload_read():
    buf = io.BytesIO()
    write_frame(buf, 0, np.zeros(7))
    reader = _RecordingReader(buf.getvalue())
    with pytest.raises(FormatError, match="7 samples"):
        read_frame(reader, 120)
    assert reader.requests == [20]  # the header only
