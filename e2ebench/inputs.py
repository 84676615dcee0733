"""Seeded inputs and the benchmark's own codecs for the chanem file formats.

Everything chanem receives is generated here from the run seed: scene text,
mobility-trace CSV and the OWIQ frame pool.  The CIRT reader and the OWIQ
encoder/decoder are written against the documented byte layouts, not
against chanem's code, so the oracle stays independent of the program.
"""

import struct
from dataclasses import dataclass

import numpy as np

FFT_SIZE = 1536
N_S = FFT_SIZE * 15                    # samples per 0.5 ms slot
F_SAMP = 46.08e6
SLOT_S = N_S / F_SAMP
CARRIER_HZ = 4.01916e9
L_MAX = 146                            # taps for a 3 us delay spread at F_SAMP

OWIQ = struct.Struct("<4sHHQI")       # magic, version, flags, slot_index, count
OWIQ_MAGIC = b"OWIQ"
OWIQ_VERSION = 1
FLAG_F32 = 1
CIRT = struct.Struct("<4sHddII")      # magic, version, f_samp, t_int, count, taps

POOL_FRAMES = 8
I16_RMS = 2000.0                       # input level per complex sample, LSB


@dataclass(frozen=True)
class Timeline:
    f_samp: float
    t_int: float
    taps: np.ndarray                   # (snapshots, l_max) complex128


def read_cirt(path):
    """Parse a CIRT file; raises ValueError on any layout violation."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < CIRT.size:
        raise ValueError(f"{path}: {len(data)} bytes, shorter than a CIRT header")
    magic, version, f_samp, t_int, count, taps = CIRT.unpack_from(data)
    if magic != b"CIRT" or version != 1:
        raise ValueError(f"{path}: bad CIRT magic/version {magic!r} v{version}")
    if len(data) != CIRT.size + count * taps * 8:
        raise ValueError(f"{path}: payload does not hold {count} x {taps} taps")
    flat = np.frombuffer(data, dtype="<c8", offset=CIRT.size)
    return Timeline(f_samp, t_int,
                    flat.reshape(count, taps).astype(np.complex128))


def frame_bytes(fmt):
    return OWIQ.size + N_S * 2 * (4 if fmt == "f32" else 2)


def encode_frame(samples, fmt):
    """One OWIQ frame stamped slot 0 (see ``restamp``)."""
    inter = np.empty(2 * len(samples))
    inter[0::2] = samples.real
    inter[1::2] = samples.imag
    payload = inter.astype("<f4" if fmt == "f32" else "<i2").tobytes()
    flags = FLAG_F32 if fmt == "f32" else 0
    return bytearray(OWIQ.pack(OWIQ_MAGIC, OWIQ_VERSION, flags, 0, len(samples))
                     + payload)


def decode_frame(buf, fmt):
    """(slot_index, complex128 samples) of one complete OWIQ frame.

    Raises ValueError if the header does not describe an N_S-sample frame of
    format ``fmt``.
    """
    magic, version, flags, slot_index, count = OWIQ.unpack_from(buf)
    if magic != OWIQ_MAGIC or version != OWIQ_VERSION:
        raise ValueError(f"bad frame magic/version {magic!r} v{version}")
    if bool(flags & FLAG_F32) != (fmt == "f32") or count != N_S:
        raise ValueError(f"slot {slot_index}: flags {flags}, {count} samples")
    inter = np.frombuffer(buf, dtype="<f4" if fmt == "f32" else "<i2",
                          count=2 * count, offset=OWIQ.size).astype(np.float64)
    return slot_index, inter[0::2] + 1j * inter[1::2]


def frame_pool(rng, fmt):
    """Pre-encoded input frames (restamped per slot) and their decoded samples.

    int16 frames carry complex Gaussian IQ at I16_RMS LSB so the calibrated
    output stays far from the int16 rails; f32 frames carry unit power.
    """
    scale = I16_RMS if fmt == "i16" else 1.0
    frames, decoded = [], []
    for _ in range(POOL_FRAMES):
        x = scale * (rng.standard_normal(N_S) + 1j * rng.standard_normal(N_S)) / np.sqrt(2)
        if fmt == "i16":
            x = np.round(x)
        frame = encode_frame(x, fmt)
        frames.append(frame)
        decoded.append(decode_frame(frame, fmt)[1])
    return frames, decoded


def restamp(frame, slot_index):
    struct.pack_into("<Q", frame, 8, slot_index)


# --- scenes and traces --------------------------------------------------------

def _wall(x1, y1, x2, y2, zmax, material):
    return f"wall {x1:.3f} {y1:.3f} {x2:.3f} {y2:.3f} 0 {zmax:.3f} material {material}"


def canyon_scene(rng, max_depth):
    """Street canyon along x: ground plus two facades per side (5 facets).

    Returns (scene_text, tx, half_width).  The transmitter stands in the
    street near its west end.
    """
    half = rng.uniform(8.0, 12.0)
    lines = ["# seeded street canyon", f"freq {CARRIER_HZ:.6g}",
             f"max_depth {max_depth}", "ground z 0 material concrete"]
    for side in (-1.0, 1.0):
        gap = rng.uniform(-20.0, 20.0)
        mat = "glass" if rng.random() < 0.5 else "concrete"
        lines.append(_wall(-120.0, side * half, gap - 4.0, side * half,
                           rng.uniform(15.0, 30.0), mat))
        lines.append(_wall(gap + 4.0, side * half, 120.0, side * half,
                           rng.uniform(15.0, 30.0), "concrete"))
    tx = (rng.uniform(-80.0, -60.0), rng.uniform(-half / 2, half / 2),
          rng.uniform(8.0, 15.0))
    lines.append("tx {:.3f} {:.3f} {:.3f}".format(*tx))
    return "\n".join(lines) + "\n", tx, half


def walk(rng, tx, half, count, interval, speed):
    """Receiver moving east down the street at ``speed`` m/s, 1.5 m high."""
    x0 = tx[0] + rng.uniform(20.0, 40.0)
    y = rng.uniform(-half / 2, half / 2)
    xs = x0 + speed * interval * np.arange(count)
    return np.column_stack([xs, np.full(count, y), np.full(count, 1.5)])


def trace_csv(positions, interval):
    rows = ["t,x,y,z"]
    for i, (x, y, z) in enumerate(positions):
        rows.append(f"{i * interval:.6f},{x:.6f},{y:.6f},{z:.6f}")
    return "\n".join(rows) + "\n"


def block13_scene(rng):
    """Ground plus 12 walls: five facades a side and two end walls.

    Returns (scene_text, half_width).  Used only to build the stored
    reference; runs permute its records (see ``shuffle_records``).
    """
    half = 10.0
    lines = ["freq {:.6g}".format(CARRIER_HZ), "max_depth 3",
             "ground z 0 material concrete"]
    for side in (-1.0, 1.0):
        edges = np.sort(rng.uniform(-95.0, 95.0, 4))
        cuts = [-100.0, *edges, 100.0]
        for a, b in zip(cuts[:-1], cuts[1:]):
            lines.append(_wall(a + 0.5, side * half, b - 0.5, side * half,
                               rng.uniform(12.0, 40.0),
                               "glass" if rng.random() < 0.4 else "concrete"))
    for end in (-100.0, 100.0):
        lines.append(_wall(end, -half, end, half, 25.0, "concrete"))
    lines.append("tx -60.000 3.000 12.000")
    return "\n".join(lines) + "\n", half


def shuffle_records(scene_text, rng):
    """Same scene, records in seeded order (facet order does not change taps)."""
    lines = [l for l in scene_text.splitlines() if l.strip()]
    order = rng.permutation(len(lines))
    return "# seeded record order\n" + "\n".join(lines[i] for i in order) + "\n"
