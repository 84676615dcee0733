"""IQ slot frame codec for pipes and sockets.

Frame layout (little-endian):

    magic        4 bytes  b"OWIQ"
    version      u16
    flags        u16      bit0: 0 = int16 interleaved IQ, 1 = f32 interleaved IQ;
                          every other bit must be 0
    slot_index   u64
    sample_count u32
    payload      sample_count * 2 values (I, Q interleaved)

int16 payloads are written by rounding (half to even) and symmetrically
clamping to [-32767, 32767]; f32 payloads saturate at the largest finite
float32, so an infinity is written at full scale too.  A NaN is written as
0 in either format.  Every value so altered is counted, and the count is
returned so run statistics (``--stats``) can track saturation.  An f32
payload holding a NaN or an infinity is rejected on read, before it
reaches the emulator.
"""

import contextlib
import socket
import struct
import sys

import numpy as np

from .errors import FormatError, InvalidInputError

STREAM_MAGIC = b"OWIQ"
STREAM_VERSION = 1

FLAG_F32 = 0x0001

INT16_FULL_SCALE = 32767
F32_FULL_SCALE = float(np.finfo(np.float32).max)

_HEADER = struct.Struct("<4sHHQI")

FMT_I16 = "i16"
FMT_F32 = "f32"


class FrameBuffers:
    """Codec scratch for one stream of frames of ``count`` samples.

    :func:`read_frame` reads each payload into ``payload``;
    :func:`write_frame` rounds into ``values``, counts clipped values in
    ``mask`` and encodes into ``payload``.  Reusing one set per stream keeps
    the frame loop free of per-slot arrays, so its speed does not depend on
    how the C heap happens to trim and re-fault freed slot-sized blocks.
    """

    def __init__(self, count):
        self.payload = np.empty(8 * count, dtype=np.uint8)  # f32 width
        self.values = np.empty(2 * count)
        self.mask = np.empty(2 * count, dtype=bool)


def write_frame(fh, slot_index, samples, fmt=FMT_I16, bufs=None):
    """Write one slot frame; returns the number of values it saturated.

    The payload is encoded from the float64 view of the samples, which is
    already interleaved I/Q; int16 values round half to even.  A value
    beyond the format's full scale, infinities included, is written at
    that full scale with its sign, and a NaN as 0; the count returned
    covers both.  ``bufs`` is the stream's :class:`FrameBuffers` for
    ``len(samples)`` samples, or None for a fresh set.
    """
    samples = np.ascontiguousarray(samples, dtype=np.complex128)
    iq = samples.view(np.float64)
    if bufs is None:
        bufs = FrameBuffers(len(samples))
    mask = bufs.mask
    if fmt == FMT_F32:
        flags = FLAG_F32
        inter = bufs.payload[:4 * len(iq)].view("<f4")
        with np.errstate(over="ignore"):  # overflow casts to inf, saturated below
            np.copyto(inter, iq, casting="same_kind")
        clipped = len(iq) - int(np.count_nonzero(np.isfinite(inter, out=mask)))
        if clipped:
            np.nan_to_num(inter, copy=False, nan=0.0,
                          posinf=F32_FULL_SCALE, neginf=-F32_FULL_SCALE)
    elif fmt == FMT_I16:
        flags = 0
        raw = bufs.values
        np.rint(iq, out=raw)
        # a NaN is not <= full scale, so it counts once, with the values above
        in_range = np.count_nonzero(np.less_equal(raw, INT16_FULL_SCALE, out=mask))
        below = np.count_nonzero(np.less(raw, -INT16_FULL_SCALE, out=mask))
        clipped = len(iq) - int(in_range) + int(below)
        if clipped:
            np.nan_to_num(raw, copy=False, nan=0.0)
            np.clip(raw, -INT16_FULL_SCALE, INT16_FULL_SCALE, out=raw)
        inter = bufs.payload[:2 * len(iq)].view("<i2")
        np.copyto(inter, raw, casting="unsafe")
    else:
        raise InvalidInputError(f"frame format must be 'i16' or 'f32', got {fmt!r}")
    fh.write(_HEADER.pack(STREAM_MAGIC, STREAM_VERSION, flags,
                          slot_index, len(samples)))
    fh.write(memoryview(inter).cast("B"))
    return clipped


def _read_into(fh, buf):
    """Fill ``buf`` from ``fh``; returns the number of bytes read before EOF."""
    view = memoryview(buf)
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def read_frame(fh, samples, bufs=None):
    """Read one frame into ``samples``; returns (slot_index, fmt) or None at
    clean EOF.

    ``samples`` is the caller's contiguous complex128 array, and its length
    is the sample count the stream carries.  A header declaring another count
    is rejected before its payload is read, so a corrupt header cannot make
    the reader allocate for it.  The payload is read into ``bufs.payload``
    (``bufs`` as for :func:`write_frame`) and decoded in one pass into the
    float64 view of ``samples``; a non-finite f32 value raises
    :class:`FormatError` at its byte offset in the frame.
    """
    header = bytearray(_HEADER.size)
    got = _read_into(fh, header)
    if not got:
        return None
    if got < _HEADER.size:
        raise FormatError(f"truncated frame header ({got} bytes)", offset=got)
    magic, version, flags, slot_index, count = _HEADER.unpack(header)
    if magic != STREAM_MAGIC:
        raise FormatError(f"bad frame magic {magic!r}", offset=0)
    if version != STREAM_VERSION:
        raise FormatError(f"unsupported frame version {version}", offset=4)
    if flags & ~FLAG_F32:
        raise FormatError(f"unknown frame flags {flags:#06x}", offset=6)
    if count != len(samples):
        raise FormatError(
            f"slot {slot_index} declares {count} samples, the stream carries "
            f"{len(samples)} per slot",
            offset=16,
        )
    if bufs is None:
        bufs = FrameBuffers(count)
    fmt = FMT_F32 if flags & FLAG_F32 else FMT_I16
    width = 4 if fmt == FMT_F32 else 2
    payload = bufs.payload[:count * 2 * width]
    got = _read_into(fh, payload)
    if got < len(payload):
        raise FormatError(
            f"truncated frame payload: slot {slot_index} needs {len(payload)} "
            f"bytes, got {got}",
            offset=_HEADER.size + got,
        )
    iq = samples.view(np.float64)
    iq[:] = payload.view("<f4" if fmt == FMT_F32 else "<i2")
    if fmt == FMT_F32 and not np.isfinite(iq, out=bufs.mask).all():
        first = int(np.argmin(bufs.mask))
        raise FormatError(
            f"slot {slot_index} carries the non-finite value {iq[first]} "
            f"in sample {first // 2}",
            offset=_HEADER.size + first * width,
        )
    return slot_index, fmt


@contextlib.contextmanager
def frame_streams(input_path, out_path, listen=None):
    """Yield (reader, writer) binary streams for a frame stream.

    With ``listen`` = (host, port), both are the first TCP connection
    accepted there; its set-up is reported on stderr, naming the address
    bound, so port 0 (any free port) reports the port it got.  Otherwise
    they are the files ``input_path`` and ``out_path``, where "-" means
    stdin or stdout.  The writer is flushed on the way out.
    """
    if listen:
        with socket.create_server(listen) as server:
            host, port = server.getsockname()[:2]
            print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
            conn, peer = server.accept()
            print(f"connection from {peer}", file=sys.stderr)
            with conn, conn.makefile("rb") as rf, conn.makefile("wb") as wf:
                yield rf, wf
        return
    with contextlib.ExitStack() as stack:
        rf = (sys.stdin.buffer if input_path == "-"
              else stack.enter_context(open(input_path, "rb")))
        wf = (sys.stdout.buffer if out_path == "-"
              else stack.enter_context(open(out_path, "wb")))
        try:
            yield rf, wf
        finally:
            wf.flush()
