"""Text-format parsers: scene description, mobility trace CSV, delay-profile CSV.

:func:`build_scenario` chains a scene and a trace file through the tracer
into a CIR timeline.

Scene files are line-oriented records; ``#`` starts a comment and blank
lines are ignored.  ``ground``, ``tx``, ``freq`` and ``max_depth`` appear
at most once:

    material <name> <a> <b> <c> <d>
    ground z <height> material <name>
    wall <x1> <y1> <x2> <y2> <zmin> <zmax> material <name>
    tx <x> <y> <z>
    freq <Hz>
    max_depth <n>

Traces are CSV with header ``t,x,y,z`` (seconds, meters) at a uniform time
step.  Delay-profile CSVs carry ``re,im,delay_s`` rows, after an optional
header of those names.  A header is the first line that is not blank.
Every number in all three formats must be finite; ``nan``, ``inf`` and
overflowing literals such as ``1e400`` are parse errors at their line.
Line numbers count every line, blank ones included.
"""

import math

import numpy as np

from .errors import ScenarioParseError, SceneGeometryError, InvalidInputError
from .materials import BUILTIN_MATERIALS, MaterialSpec
from .propagation import (DelayProfile, Facet, MobilityTrace, Scene,
                          check_depth, trace_timeline)
from .timeline import DEFAULT_T_INT, timeline_from_profiles


def _lines(text, comment=None):
    """Yield (line number, text) for each line of ``text`` that is not blank.

    Line numbers count every line, blank ones included.  ``comment``, when
    given, starts a comment that runs to the end of its line.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split(comment, 1)[0] if comment else raw).strip()
        if line:
            yield line_no, line


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


def _csv_rows(text, path, header, what, header_required):
    """Read CSV ``text`` into rows of ``len(header.split(","))`` finite floats.

    The first line that is not blank is the header when its cells, stripped
    and lowercased, are those of ``header``.  Without that header, the line
    is a row, unless ``header_required``, when it is an error.
    """
    lines = list(_lines(text))
    names = header.split(",")
    if lines and [c.strip().lower() for c in lines[0][1].split(",")] == names:
        del lines[0]
    elif header_required:
        line_no, got = lines[0] if lines else (None, "")
        raise ScenarioParseError(f"expected header {header!r}, got {got!r}",
                                 path=path, line=line_no)
    return [_floats(line.split(","), len(names), path, line_no, what)
            for line_no, line in lines]


def parse_scene(text, path="<scene>", max_depth=None):
    """Parse scene text into a :class:`Scene`.

    ``tx``, ``freq``, ``max_depth`` and ``ground`` records may each appear
    once; a repeat is an error at its line.  Without a ``max_depth``
    record the depth is :class:`Scene`'s default.  ``max_depth`` overrides
    the file's value when given; an out-of-range override is the caller's
    error, not the file's.
    """
    if max_depth is not None:
        check_depth(max_depth)
    materials = dict(BUILTIN_MATERIALS)
    facets = []
    once = {}  # the value of each record that a scene holds once, by kind

    for line_no, line in _lines(text, comment="#"):
        kind, *args = line.split()
        kind = kind.lower()
        if kind in once:
            raise ScenarioParseError(f"a scene holds one {kind!r} record; this is the second",
                                     path=path, line=line_no)
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
                (once[kind],) = _floats(args[1:2], 1, path, line_no, "ground")
                facets.append(Facet.ground(once[kind], args[3]))
            elif kind == "wall":
                if len(args) != 8 or args[6].lower() != "material":
                    raise ScenarioParseError(
                        "wall: expected 'x1 y1 x2 y2 zmin zmax material <name>'",
                        path=path, line=line_no)
                x1, y1, x2, y2, zmin, zmax = _floats(args[:6], 6, path, line_no, "wall")
                facets.append(Facet.wall(x1, y1, x2, y2, zmin, zmax, args[7]))
            elif kind == "tx":
                once[kind] = _floats(args, 3, path, line_no, "tx")
            elif kind == "freq":
                (once[kind],) = _floats(args, 1, path, line_no, "freq")
            elif kind == "max_depth":
                try:
                    (once[kind],) = map(int, args)
                except ValueError:
                    raise ScenarioParseError("max_depth: expected one integer",
                                             path=path, line=line_no) from None
                check_depth(once[kind])
            else:
                raise ScenarioParseError(f"unknown record {kind!r}",
                                         path=path, line=line_no)
        except (SceneGeometryError, InvalidInputError) as exc:
            raise ScenarioParseError(str(exc), path=path, line=line_no) from exc

    for kind in ("tx", "freq"):
        if kind not in once:
            raise ScenarioParseError(f"scene is missing a {kind!r} record", path=path)
    if max_depth is None:
        max_depth = once.get("max_depth", Scene.max_depth)
    try:
        return Scene(facets=facets, tx_position=once["tx"], carrier_freq=once["freq"],
                     max_depth=max_depth, materials=materials)
    except (SceneGeometryError, InvalidInputError) as exc:
        raise ScenarioParseError(str(exc), path=path) from exc


def load_scene(path, max_depth=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read(), path=str(path), max_depth=max_depth)


def parse_trace(text, path="<trace>"):
    """Parse a ``t,x,y,z`` CSV into a :class:`MobilityTrace`.

    The time column must be uniformly spaced, over a span that is a finite
    float; a single-row trace takes DEFAULT_T_INT.
    """
    rows = _csv_rows(text, path, "t,x,y,z", "trace row", header_required=True)
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
        interval = DEFAULT_T_INT
    try:
        return MobilityTrace(interval=interval, positions=data[:, 1:4])
    except InvalidInputError as exc:
        raise ScenarioParseError(str(exc), path=path) from exc


def load_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read(), path=str(path))


def parse_profile(text, path="<profile>"):
    """Parse ``re,im,delay_s`` rows, after an optional header of those
    names, into a :class:`DelayProfile`."""
    rows = _csv_rows(text, path, "re,im,delay_s", "profile row", header_required=False)
    try:
        return DelayProfile(amps=np.asarray([complex(re, im) for re, im, _ in rows]),
                            delays=np.asarray([delay for _, _, delay in rows]))
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

