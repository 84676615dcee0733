"""CIR timelines: the binary snapshot container and reporting.

Timeline file layout (all little-endian):

    magic   4 bytes  b"CIRT"
    version u16
    f_samp  f64      Hz
    t_int   f64      seconds between snapshots
    count   u32      number of snapshots
    taps    u32      taps per snapshot
    payload count * taps complex values as (f32 real, f32 imag)
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .cir import check_tap_grid, discretize, path_gain_total, sort_truncate
from .errors import FormatError, InvalidInputError
from .kpi import cir_rms_delay_spread

TIMELINE_MAGIC = b"CIRT"
TIMELINE_VERSION = 1

_HEADER = struct.Struct("<4sHddII")

PDP_FLOOR_DB = -200.0
DEFAULT_T_INT = 0.1  # s between snapshots, where no trace sets it


@dataclass
class CirTimeline:
    """Uniformly spaced CIR snapshots: row i of the (S, L) ``taps`` matrix
    is the snapshot active from ``i * t_int`` seconds.  The tap grid's span,
    ``l_max / f_samp`` seconds, is finite (:func:`check_tap_grid`), and so
    is the timeline's, its ``duration`` of ``len * t_int`` seconds."""

    taps: np.ndarray   # (snapshots, l_max) complex128, C-contiguous
    f_samp: float
    t_int: float

    def __post_init__(self):
        self.taps = np.ascontiguousarray(self.taps, dtype=np.complex128)
        if self.taps.ndim != 2 or self.taps.shape[1] < 1:
            raise InvalidInputError(
                f"taps must be a (snapshots, l_max >= 1) matrix, got shape {self.taps.shape}")
        for name in ("f_samp", "t_int"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.duration):
            raise InvalidInputError(
                f"{len(self)} snapshots {self.t_int} s apart span no finite duration")
        check_tap_grid(self.l_max, self.f_samp)
        if not np.all(np.isfinite(self.taps)):
            raise InvalidInputError("taps must be finite")

    def __len__(self):
        return len(self.taps)

    @property
    def l_max(self):
        return self.taps.shape[1]

    @property
    def duration(self):
        return len(self) * self.t_int

    def sorted_snapshots(self, l_sel):
        """Each snapshot's top-``l_sel`` taps (:func:`sort_truncate`), in new
        arrays that the caller may overwrite."""
        return [sort_truncate(row, l_sel) for row in self.taps]


def write_timeline(timeline, path):
    """Write a timeline to ``path`` in the binary snapshot format.

    A tap too large for complex64 would be stored as infinite, which
    :func:`read_timeline` rejects; it raises :class:`InvalidInputError`,
    naming the snapshot and tap, before ``path`` is opened.
    """
    header = _HEADER.pack(TIMELINE_MAGIC, TIMELINE_VERSION, timeline.f_samp,
                          timeline.t_int, len(timeline), timeline.l_max)
    with np.errstate(over="ignore"):
        payload = timeline.taps.astype("<c8")
    bad = np.flatnonzero(~np.isfinite(payload))
    if bad.size:
        s, k = divmod(int(bad[0]), timeline.l_max)
        raise InvalidInputError(
            f"snapshot {s} tap {k} = {timeline.taps[s, k]} is not finite as complex64")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_timeline(path):
    """Read a timeline file, validating the header, payload size and taps.

    A rate whose tap grid spans more seconds than the largest float
    (:func:`check_tap_grid`) is a :class:`FormatError` at ``f_samp``, and
    snapshots that do so (``count * t_int``) one at ``t_int``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError(f"truncated header: {len(data)} bytes", offset=len(data))
    magic, version, f_samp, t_int, count, taps = _HEADER.unpack_from(data)
    if magic != TIMELINE_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != TIMELINE_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    for name, value, offset in (("f_samp", f_samp, 6), ("t_int", t_int, 14)):
        if not (math.isfinite(value) and value > 0.0):
            raise FormatError(f"{name} must be finite and positive, got {value}",
                              offset=offset)
    if not math.isfinite(count * t_int):
        raise FormatError(f"{count} snapshots {t_int} s apart span no finite duration", offset=14)
    expected = _HEADER.size + count * taps * 8
    if len(data) != expected:
        raise FormatError(
            f"payload size mismatch: {count} snapshots x {taps} taps needs "
            f"{expected} bytes, file has {len(data)}",
            offset=min(len(data), expected),
        )
    if count and taps < 1:
        raise FormatError(f"{count} snapshots declared with zero taps", offset=26)
    try:
        check_tap_grid(max(taps, 1), f_samp)
    except InvalidInputError as exc:
        raise FormatError(str(exc), offset=6) from None
    flat = np.frombuffer(data, dtype="<c8", count=count * taps, offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        first = int(bad[0])
        s, k = divmod(first, taps)
        imag_only = math.isfinite(flat[first].real)
        raise FormatError(f"snapshot {s} tap {k} is not finite ({flat[first]})",
                          offset=_HEADER.size + first * 8 + 4 * imag_only)
    matrix = flat.reshape(count, max(taps, 1)).astype(np.complex128)
    return CirTimeline(matrix, f_samp, t_int)


def timeline_from_profiles(profiles, cfg, t_int):
    """Discretize delay profiles into a timeline, naming failing snapshots."""
    taps = np.empty((len(profiles), cfg.l_max), dtype=np.complex128)
    for i, profile in enumerate(profiles):
        try:
            taps[i] = discretize(profile, cfg)
        except InvalidInputError as exc:
            raise InvalidInputError(f"snapshot {i}: {exc}") from exc
    return CirTimeline(taps, cfg.f_samp, t_int)


@dataclass
class ReportRow:
    """Per-snapshot summary used by the reporting CSV."""

    time: float
    path_gain_db: float
    strongest_tap_index: int   # -1 for an all-zero snapshot
    rms_delay_spread: float    # NaN for an all-zero snapshot
    retained_power_fraction: float


def report(timeline, l_sel):
    """Per-snapshot report rows at a given tap budget."""
    if not len(timeline):
        raise InvalidInputError("cannot report on an empty timeline")
    rows = []
    for i, taps in enumerate(timeline.taps):
        sel = sort_truncate(taps, l_sel)  # its first tap is the strongest
        total = sel.total_power
        fraction = sel.retained_power / total if total > 0.0 else 1.0
        rows.append(ReportRow(
            time=i * timeline.t_int,
            path_gain_db=path_gain_total(taps),
            strongest_tap_index=int(sel.indices[0]) if sel.l_sel else -1,
            rms_delay_spread=cir_rms_delay_spread(taps, timeline.f_samp),
            retained_power_fraction=fraction,
        ))
    return rows


def pdp_matrix_db(timeline):
    """Snapshot x tap matrix of tap powers in dB, floored at PDP_FLOOR_DB."""
    powers = np.abs(timeline.taps) ** 2
    out = np.full(powers.shape, PDP_FLOOR_DB)
    mask = powers > 0.0
    np.log10(powers, out=out, where=mask)
    out[mask] = np.maximum(10.0 * out[mask], PDP_FLOOR_DB)
    return out


def write_report_rows_csv(rows, fh):
    fh.write("time_s,path_gain_db,strongest_tap_index,"
             "rms_delay_spread_s,retained_power_fraction\n")
    for r in rows:
        fh.write(f"{r.time:.9g},{r.path_gain_db:.6f},{r.strongest_tap_index},"
                 f"{r.rms_delay_spread:.9g},{r.retained_power_fraction:.9g}\n")


def write_pdp_csv(timeline, fh):
    matrix = pdp_matrix_db(timeline)
    fh.write(",".join(f"tap_{k}" for k in range(matrix.shape[1])) + "\n")
    for row in matrix:
        fh.write(",".join(f"{v:.4f}" for v in row) + "\n")


def write_path_gain_csv(timeline, fh):
    fh.write("time_s,path_gain_db\n")
    for i, taps in enumerate(timeline.taps):
        fh.write(f"{i * timeline.t_int:.9g},{path_gain_total(taps):.6f}\n")
