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

from .cir import CirConfig, DiscreteCir, discretize, path_gain_total, sort_truncate
from .errors import DelayRangeError, FormatError, InvalidInputError
from .kpi import cir_rms_delay_spread

TIMELINE_MAGIC = b"CIRT"
TIMELINE_VERSION = 1

_HEADER = struct.Struct("<4sHddII")

PDP_FLOOR_DB = -200.0


@dataclass
class CirTimeline:
    """Uniformly spaced sequence of discrete CIR snapshots."""

    config: CirConfig
    t_int: float
    snapshots: list

    def __post_init__(self):
        if self.t_int <= 0.0:
            raise InvalidInputError(f"t_int must be positive, got {self.t_int}")
        for i, cir in enumerate(self.snapshots):
            if cir.l_max != self.config.l_max:
                raise InvalidInputError(
                    f"snapshot {i} has {cir.l_max} taps, config says {self.config.l_max}"
                )
            if cir.f_samp != self.config.f_samp:
                raise InvalidInputError(
                    f"snapshot {i} sampling rate {cir.f_samp} != config "
                    f"{self.config.f_samp}"
                )
            expected = i * self.t_int
            if abs(cir.snapshot_time - expected) > 1e-9 * max(expected, 1.0):
                raise InvalidInputError(
                    f"snapshot {i} time {cir.snapshot_time} != {expected}"
                )

    def __len__(self):
        return len(self.snapshots)

    @property
    def duration(self):
        return len(self.snapshots) * self.t_int

    def sorted_snapshots(self, l_sel):
        return [sort_truncate(cir, l_sel) for cir in self.snapshots]


def write_timeline(timeline, path):
    """Write a timeline to ``path`` in the binary snapshot format."""
    header = _HEADER.pack(TIMELINE_MAGIC, TIMELINE_VERSION,
                          timeline.config.f_samp, timeline.t_int,
                          len(timeline.snapshots), timeline.config.l_max)
    with open(path, "wb") as fh:
        fh.write(header)
        for cir in timeline.snapshots:
            fh.write(cir.taps.astype(np.complex64).tobytes())


def read_timeline(path):
    """Read a timeline file, validating magic, version and payload size."""
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
    expected = _HEADER.size + count * taps * 8
    if len(data) != expected:
        raise FormatError(
            f"payload size mismatch: {count} snapshots x {taps} taps needs "
            f"{expected} bytes, file has {len(data)}",
            offset=min(len(data), expected),
        )
    if count and taps < 1:
        raise FormatError(f"{count} snapshots declared with zero taps", offset=26)
    cfg = CirConfig.from_tap_count(f_samp=f_samp, l_max=max(taps, 1))
    flat = np.frombuffer(data, dtype="<c8", count=count * taps, offset=_HEADER.size)
    snapshots = [
        DiscreteCir(taps=flat[i * taps:(i + 1) * taps].astype(np.complex128),
                    f_samp=f_samp, snapshot_time=i * t_int)
        for i in range(count)
    ]
    return CirTimeline(config=cfg, t_int=t_int, snapshots=snapshots)


def timeline_from_profiles(profiles, cfg, t_int):
    """Discretize delay profiles into a timeline, naming failing snapshots."""
    snapshots = []
    for i, profile in enumerate(profiles):
        try:
            snapshots.append(discretize(profile, cfg))
        except DelayRangeError as exc:
            raise DelayRangeError(f"snapshot {i}: {exc}",
                                  path_index=exc.path_index,
                                  snapshot_index=i) from exc
    return CirTimeline(config=cfg, t_int=t_int, snapshots=snapshots)


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
    if not timeline.snapshots:
        raise InvalidInputError("cannot report on an empty timeline")
    rows = []
    for cir in timeline.snapshots:
        powers = np.abs(cir.taps) ** 2
        total = float(powers.sum())
        strongest = int(np.argmax(powers)) if total > 0.0 else -1
        sel = sort_truncate(cir, l_sel)
        fraction = sel.retained_power / total if total > 0.0 else 1.0
        rows.append(ReportRow(
            time=cir.snapshot_time,
            path_gain_db=path_gain_total(cir),
            strongest_tap_index=strongest,
            rms_delay_spread=cir_rms_delay_spread(cir),
            retained_power_fraction=fraction,
        ))
    return rows


def pdp_matrix_db(timeline, floor_db=PDP_FLOOR_DB):
    """Snapshot x tap matrix of tap powers in dB, floored at ``floor_db``."""
    if not timeline.snapshots:
        return np.zeros((0, timeline.config.l_max))
    taps = np.stack([cir.taps for cir in timeline.snapshots])
    powers = np.abs(taps) ** 2
    out = np.full(powers.shape, floor_db)
    mask = powers > 0.0
    np.log10(powers, out=out, where=mask)
    out[mask] = np.maximum(10.0 * out[mask], floor_db)
    return out


def write_report_rows_csv(rows, fh):
    fh.write("time_s,path_gain_db,strongest_tap_index,"
             "rms_delay_spread_s,retained_power_fraction\n")
    for r in rows:
        fh.write(f"{r.time:.9g},{r.path_gain_db:.6f},{r.strongest_tap_index},"
                 f"{r.rms_delay_spread:.9g},{r.retained_power_fraction:.9g}\n")


def write_pdp_csv(timeline, fh, floor_db=PDP_FLOOR_DB):
    matrix = pdp_matrix_db(timeline, floor_db)
    fh.write(",".join(f"tap_{k}" for k in range(matrix.shape[1])) + "\n")
    for row in matrix:
        fh.write(",".join(f"{v:.4f}" for v in row) + "\n")


def write_path_gain_csv(timeline, fh):
    fh.write("time_s,path_gain_db\n")
    for cir in timeline.snapshots:
        fh.write(f"{cir.snapshot_time:.9g},{path_gain_total(cir):.6f}\n")
