"""Traced run: per-layer numbers from an in-process replay of the same inputs.

The replay calls ``chanem.cli.main`` in this process with the run's files:
``trace`` on the generated scene, then ``emulate`` with stdin and stdout
replaced by an in-memory frame source and sink that stamp when the CLI
starts reading frame i and when it finishes writing output frame i.

Layers are timed from outside: each public function in ``TARGETS`` is
wrapped, by module attribute, wherever a ``chanem`` module holds it (so
``chanem.cli.read_frame`` is wrapped along with ``chanem.iqstream.read_frame``).
Each call records a span (id, parent, name, start, end) in memory; self time
is a span's duration minus its child spans.  A target that no longer exists
is reported as a missing layer and its metrics are left out.

The same emulate replay also runs untraced; traced minus untraced is the
tracing overhead, and the CLI's TCP slot median minus the untraced
in-process median is the transport cost (socket, process boundary, client).
"""

import functools
import importlib
import io
import itertools
import json
import os
import statistics
import sys
import time

import numpy as np

import inputs
import oracle
import run

TARGETS = (
    "scenefile.load_scene", "scenefile.load_trace",
    "propagation.trace_snapshot", "materials.evaluate_material",
    "cir.discretize", "cir.sort_truncate",
    "timeline.write_timeline", "timeline.read_timeline",
    "timeline.CirTimeline.sorted_snapshots",
    "emulator.convolve_slot", "emulator.noise_block",
    "emulator.calibrate_signal_gain",
    "iqstream.read_frame", "iqstream.write_frame",
)

CLI_SESSIONS = 2
SPANS_DIR = os.path.join(run.HERE, "results")


class Tracer:
    """In-memory spans around the wrapped functions, plus selected results."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end)
        self.results = {}        # name -> return values of the targets asked for
        self.missing = []
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def _wrap(self, name, fn, keep_result):
        spans, stack, ids = self.spans, self._stack, self._ids
        results = self.results.setdefault(name, []) if keep_result else None
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if results is not None:
                results.append(result)
            return result
        return traced

    def install(self, keep_results=()):
        modules = [m for n, m in sys.modules.items()
                   if n == "chanem" or n.startswith("chanem.")]
        for target in TARGETS:
            mod_name, *owner_path, attr = target.split(".")
            try:
                owner = importlib.import_module(f"chanem.{mod_name}")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, target in keep_results)
            if owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def durations(self, name):
        return [t1 - t0 for _, _, n, t0, t1 in self.spans if n == name]

    def self_times(self, name):
        child = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        return [t1 - t0 - child.get(sid, 0.0)
                for sid, _, n, t0, t1 in self.spans if n == name]

    def dump(self, path, header):
        """One JSON line of ``header``, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


class FrameSource(io.RawIOBase):
    """stdin of the replayed CLI: the session's frames, restamped per slot."""

    def __init__(self, frames, seq):
        self.frames, self.seq = frames, seq
        self.slot = self.pos = self.bytes = 0
        self.starts = []

    def readable(self):
        return True

    def readinto(self, b):
        if self.slot == len(self.seq):
            return 0
        frame = self.frames[self.seq[self.slot]]
        if self.pos == 0:
            inputs.restamp(frame, self.slot)
            self.starts.append(time.perf_counter())
        n = min(len(b), len(frame) - self.pos)
        memoryview(b).cast("B")[:n] = memoryview(frame)[self.pos:self.pos + n]
        self.pos += n
        self.bytes += n
        if self.pos == len(frame):
            self.slot, self.pos = self.slot + 1, 0
        return n


class FrameSink(io.RawIOBase):
    """stdout of the replayed CLI: stamps each completed output frame, keeps
    the planned prefixes for the oracle and counts non-finite f32 values."""

    def __init__(self, fmt, keep):
        self.size = inputs.frame_bytes(fmt)
        self.f32 = fmt == "f32"
        self.keep = keep
        self.bytes = 0
        self.nonfinite = 0
        self.ends = []
        self.kept = {}

    def writable(self):
        return True

    def write(self, b):
        data = memoryview(b).cast("B")
        off = 0
        while off < len(data):
            slot, pos = divmod(self.bytes, self.size)
            take = min(len(data) - off, self.size - pos)
            chunk = data[off:off + take]
            if pos < self.keep.get(slot, 0):
                self.kept.setdefault(slot, bytearray()).extend(chunk[:self.keep[slot] - pos])
            if self.f32:
                skip = max(0, inputs.OWIQ.size - pos)
                body = chunk[skip:len(chunk) - (len(chunk) - skip) % 4]
                if len(body):
                    self.nonfinite += int(np.count_nonzero(
                        ~np.isfinite(np.frombuffer(body, dtype="<f4"))))
            self.bytes += take
            off += take
            if self.bytes % self.size == 0:
                self.ends.append(time.perf_counter())
        return len(data)


class _Stdout:
    def __init__(self, sink):
        self.buffer = sink

    def write(self, text):
        return sys.__stderr__.write(text)

    def flush(self):
        sys.__stderr__.flush()


def replay_emulate(cli, w, cirt, feed, tracer=None):
    """Run ``chanem emulate`` in-process over the feed; returns
    (exit code, per-slot seconds, source, sink)."""
    source = FrameSource(feed.frames, feed.seq)
    sink = FrameSink(w.fmt, feed.keep)
    saved = sys.stdin, sys.stdout
    if tracer:
        tracer.install(keep_results=("cir.sort_truncate", "iqstream.write_frame"))
    sys.stdin, sys.stdout = _Stdout(source), _Stdout(sink)
    try:
        code = cli.main(["emulate", *run.emulate_args(w, cirt), "--in", "-", "--out", "-"])
    finally:
        sys.stdin, sys.stdout = saved
        if tracer:
            tracer.uninstall()
    n = min(len(source.starts), len(sink.ends))
    slot_s = [e - s for s, e in zip(source.starts[:n], sink.ends[:n])]
    return code, slot_s, source, sink


def _ms(values):
    return [v * 1e3 for v in values]


def _p50(values):
    return statistics.median(values) if values else 0.0


def traced_run(w, seed, seconds, chanem, workdir, stamp):
    """In-process traced build, CLI sessions until ``seconds`` have passed
    (at least CLI_SESSIONS), then the untraced and traced emulate replays."""
    deadline = time.perf_counter() + seconds
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    cli = importlib.import_module("chanem.cli")
    tally = run.Tally()
    paths, rng, ref = run.make_inputs(w, seed, workdir)

    build = Tracer()
    build.install(keep_results=("propagation.trace_snapshot",))
    try:
        code = cli.main(["trace", "--scene", paths["scene.txt"],
                         "--trace", paths["trace.csv"], "--out", paths["run.cirt"]])
    finally:
        build.uninstall()
    tally.add("in-process trace", run.verify_timeline(w, paths["run.cirt"], code, ref))

    feed = run.make_feed(w, paths["run.cirt"], rng)
    sessions = []
    while len(sessions) < CLI_SESSIONS or time.perf_counter() < deadline:
        sessions.append(run.run_session(w, chanem, paths["run.cirt"], feed, tally))
    cli_slots = sum(len(s.latencies[run.WARMUP_SLOTS:]) for s in sessions)
    cli_p50 = _p50(_ms([x for s in sessions for x in s.latencies[run.WARMUP_SLOTS:]]))

    emu = Tracer()
    replays = {}
    for label, tracer in (("untraced", None), ("traced", emu)):
        code, slot_s, source, sink = replay_emulate(cli, w, paths["run.cirt"], feed, tracer)
        bad = {} if len(slot_s) == w.session_slots else {len(slot_s): "replay stopped early"}
        tally.add_slots(f"{label} replay", w.session_slots,
                        run.verify_replies(w, feed, {k: bytes(v) for k, v in sink.kept.items()}, bad))
        tally.add(f"{label} replay exit", None if code == 0 else f"exit code {code}")
        replays[label] = (_ms(slot_s[run.WARMUP_SLOTS:]), source, sink)

    os.makedirs(SPANS_DIR, exist_ok=True)
    for label, tracer in (("trace", build), ("emulate", emu)):
        tracer.dump(os.path.join(SPANS_DIR, f"{w.name}-seed{seed}-{label}.jsonl"),
                    {"workload": w.name, "seed": seed, "machine": stamp})
    metrics = layer_metrics(w, paths, feed, build, emu, replays, (cli_p50, cli_slots))
    missing = sorted(set(build.missing) | set(emu.missing))
    for target in missing:
        print(f"# layer missing: chanem.{target} (its metrics are left out)")
    return metrics, tally


def layer_metrics(w, paths, feed, build, emu, replays, cli):
    """name -> (value, unit, samples) for every layer that was found."""
    m = {}
    gone = set(build.missing) | set(emu.missing)

    def timing(key, tracer, target, stat, values=None):
        if target in gone:
            return
        values = _ms(tracer.durations(target) if values is None else values)
        if stat == "total":
            m[key] = (sum(values), "ms", len(values))
        elif stat == "p99":
            m[key] = (run.percentile(values, 99) if values else 0.0, "ms", len(values))
        else:
            m[key] = (_p50(values), "ms", len(values))

    timing("scenefile.load_scene.ms", build, "scenefile.load_scene", "total")
    timing("scenefile.load_trace.ms", build, "scenefile.load_trace", "total")

    snaps = build.results.get("propagation.trace_snapshot", [])
    if "propagation.trace_snapshot" not in gone:
        timing("propagation.trace_snapshot.p50_ms", build, "propagation.trace_snapshot", "p50")
        paths_found = [len(p.delays) for p in snaps]
        m["propagation.trace_snapshot.calls"] = (len(snaps), "count", len(snaps))
        m["propagation.paths_per_snapshot"] = (
            float(np.mean(paths_found)) if snaps else 0.0, "count", len(snaps))
        tried = candidate_sequences(paths["scene.txt"]) * len(snaps)
        m["propagation.valid_path_ratio"] = (sum(paths_found) / tried, "ratio", tried)
        if "materials.evaluate_material" not in gone:
            calls = len(build.durations("materials.evaluate_material"))
            m["materials.evaluate_material.calls_per_snapshot"] = (
                calls / max(len(snaps), 1), "count", calls)

    timing("cir.discretize.p50_ms", build, "cir.discretize", "p50")
    timing("cir.sort_truncate.p50_ms", emu, "cir.sort_truncate", "p50")
    if "cir.sort_truncate" not in gone:
        kept = emu.results.get("cir.sort_truncate", [])
        fracs = [c.retained_power / c.total_power for c in kept if c.total_power > 0]
        m["cir.retained_power_frac_min"] = (min(fracs) if fracs else 1.0, "ratio", len(fracs))

    timing("timeline.write_timeline.ms", build, "timeline.write_timeline", "total")
    timing("timeline.read_timeline.ms", emu, "timeline.read_timeline", "total")
    timing("timeline.sorted_snapshots.ms", emu, "timeline.CirTimeline.sorted_snapshots", "total")
    m["timeline.bytes"] = (os.path.getsize(paths["run.cirt"]), "B", 1)

    timing("emulator.convolve_slot.p50_ms", emu, "emulator.convolve_slot", "p50")
    timing("emulator.convolve_slot.p99_ms", emu, "emulator.convolve_slot", "p99")
    timing("emulator.noise_block.p50_ms", emu, "emulator.noise_block", "p50")
    timing("emulator.convolve_self.p50_ms", emu, "emulator.convolve_slot", "p50",
           emu.self_times("emulator.convolve_slot"))
    timing("emulator.calibrate_signal_gain.ms", emu, "emulator.calibrate_signal_gain", "total")
    # computed from the benchmark's own reading of the timeline
    snap = np.arange(w.session_slots) // feed.check.slots_per_snapshot
    per_snap = {s: np.count_nonzero(oracle.truncate(feed.check.timeline.taps[s], w.taps))
                for s in np.unique(snap)}
    taps = float(np.mean([per_snap[s] for s in snap]))
    m["emulator.taps_per_slot"] = (taps, "count", w.session_slots)
    m["emulator.macs_per_slot"] = (taps * inputs.N_S, "count", w.session_slots)
    m["emulator.snapshot_switches"] = (int(np.count_nonzero(np.diff(snap))), "count",
                                       w.session_slots)

    traced_ms, source, sink = replays["traced"]
    timing("iqstream.read_frame.p50_ms", emu, "iqstream.read_frame", "p50")
    timing("iqstream.write_frame.p50_ms", emu, "iqstream.write_frame", "p50")
    m["iqstream.bytes_in"] = (source.bytes, "B", 1)
    m["iqstream.bytes_out"] = (sink.bytes, "B", 1)
    if "iqstream.write_frame" not in gone:
        clipped = [c for c in emu.results.get("iqstream.write_frame", []) if isinstance(c, int)]
        m["iqstream.clipped_samples"] = (sum(clipped), "count", len(clipped))
    m["iqstream.nonfinite_samples"] = (sink.nonfinite, "count", len(sink.ends))

    untraced_ms = replays["untraced"][0]
    m["replay.untraced_p50_ms"] = (_p50(untraced_ms), "ms", len(untraced_ms))
    m["replay.traced_p50_ms"] = (_p50(traced_ms), "ms", len(traced_ms))
    m["replay.tracing_overhead_p50_ms"] = (_p50(traced_ms) - _p50(untraced_ms), "ms",
                                           len(traced_ms))
    cli_p50, cli_slots = cli
    m["cli.slot_p50_ms"] = (cli_p50, "ms", cli_slots)
    m["cli.transport_p50_ms"] = (cli_p50 - _p50(untraced_ms), "ms", cli_slots)
    return m


def candidate_sequences(scene_path):
    """Facet sequences an exhaustive image-method search tries per receiver:
    sum over depths d of n (n-1)^(d-1), n = facet count."""
    with open(scene_path, encoding="utf-8") as fh:
        records = [l.split("#", 1)[0].split() for l in fh]
    n = sum(1 for r in records if r and r[0] in ("ground", "wall"))
    depth = next(int(r[1]) for r in records if r and r[0] == "max_depth")
    return sum(n * (n - 1) ** (d - 1) for d in range(1, depth + 1))
