"""Text-format parsers: scene description, mobility trace CSV, delay-profile CSV.

:func:`build_scenario` chains a scene and a trace file through the tracer
into a CIR timeline.

Scene files are line-oriented records; ``#`` starts a comment and blank
lines are ignored:

    material <name> <a> <b> <c> <d>
    ground z <height> material <name>
    wall <x1> <y1> <x2> <y2> <zmin> <zmax> material <name>
    tx <x> <y> <z>
    freq <Hz>
    max_depth <n>

Traces are CSV with header ``t,x,y,z`` (seconds, meters) at a uniform time
step.  Delay-profile CSVs carry ``re,im,delay_s`` rows (header optional).
Every number in all three formats must be finite; ``nan``, ``inf`` and
overflowing literals such as ``1e400`` are parse errors at their line.
"""

import math

import numpy as np

from .errors import ScenarioParseError, SceneGeometryError, InvalidInputError
from .materials import BUILTIN_MATERIALS, MaterialSpec
from .propagation import (DelayProfile, Facet, MobilityTrace, Scene,
                          check_depth, trace_timeline)
from .timeline import timeline_from_profiles


def _floats(tokens, n, path, line_no, what):
    if len(tokens) != n:
        raise ScenarioParseError(f"{what}: expected {n} numbers, got {len(tokens)}",
                                 path=path, line=line_no)
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ScenarioParseError(f"{what}: {exc}", path=path, line=line_no) from None
    for token, value in zip(tokens, values):
        if not math.isfinite(value):
            raise ScenarioParseError(f"{what}: {token.strip()!r} is not a finite number",
                                     path=path, line=line_no)
    return values


def parse_scene(text, path="<scene>", max_depth=None):
    """Parse scene text into a :class:`Scene`.

    ``max_depth`` overrides the file's value when given; an out-of-range
    override is the caller's error, not the file's.
    """
    if max_depth is not None:
        check_depth(max_depth)
    materials = dict(BUILTIN_MATERIALS)
    facets = []
    tx = None
    freq = None
    depth = 3

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0].lower(), tokens[1:]
        try:
            if kind == "material":
                if len(args) != 5:
                    raise ScenarioParseError("material: expected name a b c d",
                                             path=path, line=line_no)
                a, b, c, d = _floats(args[1:], 4, path, line_no, "material")
                materials[args[0]] = MaterialSpec(args[0], a, b, c, d)
            elif kind == "ground":
                if len(args) != 4 or args[0].lower() != "z" or args[2].lower() != "material":
                    raise ScenarioParseError("ground: expected 'z <height> material <name>'",
                                             path=path, line=line_no)
                (height,) = _floats(args[1:2], 1, path, line_no, "ground")
                facets.append(Facet.ground(height, args[3]))
            elif kind == "wall":
                if len(args) != 8 or args[6].lower() != "material":
                    raise ScenarioParseError(
                        "wall: expected 'x1 y1 x2 y2 zmin zmax material <name>'",
                        path=path, line=line_no)
                x1, y1, x2, y2, zmin, zmax = _floats(args[:6], 6, path, line_no, "wall")
                facets.append(Facet.wall(x1, y1, x2, y2, zmin, zmax, args[7]))
            elif kind == "tx":
                tx = _floats(args, 3, path, line_no, "tx")
            elif kind == "freq":
                (freq,) = _floats(args, 1, path, line_no, "freq")
            elif kind == "max_depth":
                try:
                    depth = int(args[0])
                except (IndexError, ValueError):
                    raise ScenarioParseError("max_depth: expected an integer",
                                             path=path, line=line_no) from None
                check_depth(depth)
            else:
                raise ScenarioParseError(f"unknown record {kind!r}",
                                         path=path, line=line_no)
        except (SceneGeometryError, InvalidInputError) as exc:
            raise ScenarioParseError(str(exc), path=path, line=line_no) from exc

    if tx is None:
        raise ScenarioParseError("scene is missing a 'tx' record", path=path)
    if freq is None:
        raise ScenarioParseError("scene is missing a 'freq' record", path=path)
    if max_depth is not None:
        depth = max_depth
    try:
        return Scene(facets=facets, tx_position=tx, carrier_freq=freq,
                     max_depth=depth, materials=materials)
    except (SceneGeometryError, InvalidInputError) as exc:
        raise ScenarioParseError(str(exc), path=path) from exc


def load_scene(path, max_depth=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read(), path=str(path), max_depth=max_depth)


def parse_trace(text, path="<trace>", default_interval=0.1):
    """Parse a ``t,x,y,z`` CSV into a :class:`MobilityTrace`.

    The time column must be uniformly spaced, over a span that is a finite
    float; a single-row trace takes ``default_interval``.
    """
    rows = []
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines:
        raise ScenarioParseError("trace is empty", path=path)
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header != ["t", "x", "y", "z"]:
        raise ScenarioParseError(f"expected header 't,x,y,z', got {lines[0]!r}",
                                 path=path, line=1)
    for line_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        rows.append(_floats(cells, 4, path, line_no, "trace row"))
    if not rows:
        raise ScenarioParseError("trace has a header but no rows", path=path)
    data = np.asarray(rows)
    times = data[:, 0]
    if len(times) > 1:
        # Python floats: a span past the largest float reads inf, silently
        span = float(times[-1]) - float(times[0])
        interval = span / (len(times) - 1)
        if not math.isfinite(interval):
            raise ScenarioParseError(
                f"trace times {times[0]:g} to {times[-1]:g} span more than the "
                f"largest float", path=path)
        grid = times[0] + interval * np.arange(len(times))
        with np.errstate(over="ignore"):  # an overflowing step is not uniform
            deviation = float(np.max(np.abs(times - grid)))
        # tolerance scales with the span to absorb decimal-text rounding
        if interval <= 0.0 or not deviation <= 1e-6 * max(span, 1.0):
            raise ScenarioParseError("trace time steps must be uniform and positive",
                                     path=path)
    else:
        interval = default_interval
    try:
        return MobilityTrace(interval=interval, positions=data[:, 1:4])
    except InvalidInputError as exc:
        raise ScenarioParseError(str(exc), path=path) from exc


def load_trace(path, default_interval=0.1):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read(), path=str(path), default_interval=default_interval)


def parse_profile(text, path="<profile>"):
    """Parse ``re,im,delay_s`` rows into a :class:`DelayProfile`."""
    amps = []
    delays = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if line_no == 1 and any(not _is_number(c) for c in cells):
            continue  # header row
        re, im, delay = _floats(cells, 3, path, line_no, "profile row")
        amps.append(complex(re, im))
        delays.append(delay)
    try:
        return DelayProfile(amps=np.asarray(amps), delays=np.asarray(delays))
    except InvalidInputError as exc:
        raise ScenarioParseError(str(exc), path=path) from exc


def load_profile(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read(), path=str(path))


def build_scenario(scene_path, trace_path, cir_cfg, max_depth=None):
    """Scene + trace files -> traced delay profiles -> discrete CIR timeline."""
    scene = load_scene(scene_path, max_depth=max_depth)
    trace = load_trace(trace_path)
    profiles = trace_timeline(scene, trace)
    return timeline_from_profiles(profiles, cir_cfg, trace.interval)


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False
