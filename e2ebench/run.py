"""End-to-end benchmark of chanem through its CLI, file and frame formats.

    python3 e2ebench/run.py --workload rt28-noise --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seconds 20      # every workload

Each run rebuilds the workload's timeline with ``chanem trace`` and streams
OWIQ frames through ``chanem emulate --listen`` over loopback TCP in a
closed loop, checking every output against an independent oracle.  With
``--trace 1`` it instead reports per-layer numbers from an in-process replay
of the same inputs (see replay.py).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and sample count, and the machine.
Run from the root of a checkout that holds ``src/chanem``.
"""

import os

# One BLAS thread for chanem and for the in-process replay.  With OpenBLAS's
# default of one thread per vCPU, a threaded zaxpy on this 2-vCPU box stalls
# a slot by 100-200 ms whenever another thread wants a CPU (the client, a
# neighbour, hypervisor steal), which swamps every slot metric.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402  (the setting above must precede numpy)
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import inputs
import oracle
import stream

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference", "block13.npz")

# metrics listed in BENCHMARK.json; slot_p99_ms and error_rate are printed only
END_TO_END = ("setup_s", "slot_p50_ms", "slots_per_s", "timeline_build_s", "peak_rss_mb")
MIN_ROUNDS = 3          # rounds (build, then sessions) per run, at least
WARMUP_SLOTS = 5        # leading slots of a session left out of the percentiles
PARTIAL_SAMPLES = 512   # samples checked at each snapshot boundary
FULL_CHECKS = 6         # whole slots checked per session


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str                # frame format sent and received
    taps: int               # --taps
    noise_db: float         # --noise-db, None for noise off
    session_slots: int      # slots per emulate process
    sessions_per_build: int  # stream sessions per timeline build in a round
    scene: str              # "canyon" or "block13"
    depth: int = 2          # canyon max_depth
    positions: int = 20     # trace positions (snapshots)
    interval: float = 0.1   # trace step = t_int, seconds
    speed: float = 1.5      # receiver speed, m/s


WORKLOADS = {w.name: w for w in (
    Workload("rt28-noise", "i16", 28, 40.0, 400, 1, "canyon"),
    Workload("full146-fastfade", "f32", 146, None, 500, 1, "canyon",
             depth=1, positions=600, interval=0.002, speed=20.0),
    Workload("trace-block13", "i16", 28, None, 1000, 3, "block13", positions=150),
)}


def make_inputs(w, seed, workdir):
    """Write scene and trace for ``w``.

    Returns (paths, the rng that seeds the rest of the run, stored reference
    taps or None).
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    ref = None
    if w.scene == "canyon":
        scene, tx, half = inputs.canyon_scene(rng, w.depth)
        positions = inputs.walk(rng, tx, half, w.positions, w.interval, w.speed)
    else:
        stored = np.load(REFERENCE)
        scene = inputs.shuffle_records(str(stored["scene"]), rng)
        pick = np.sort(rng.choice(len(stored["positions"]), w.positions, replace=False))
        pick = pick[np.argsort(stored["positions"][pick, 0], kind="stable")]
        positions = stored["positions"][pick]
        ref = stored["taps"][pick].astype(np.complex128)
    paths = {k: os.path.join(workdir, k) for k in ("scene.txt", "trace.csv", "run.cirt")}
    with open(paths["scene.txt"], "w", encoding="utf-8") as fh:
        fh.write(scene)
    with open(paths["trace.csv"], "w", encoding="utf-8") as fh:
        fh.write(inputs.trace_csv(positions, w.interval))
    return paths, rng, ref


def emulate_args(w, cirt):
    args = ["--timeline", cirt, "--taps", str(w.taps), "--history", "carry",
            "--fft", str(inputs.FFT_SIZE), "--seed", "7"]
    if w.noise_db is not None:
        args.append(f"--noise-db={w.noise_db}")
    return args


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, what, reason=None):
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {reason}")

    def add_slots(self, what, count, bad):
        """``count`` slot operations, failed where ``bad`` (slot -> reason)
        says; a reason past the last slot (an extra frame) is one more."""
        for slot in range(count):
            self.add(f"{what} slot {slot}", bad.get(slot))
        for slot in sorted(s for s in bad if s >= count):
            self.add(f"{what} after slot {count - 1}", bad[slot])


def build_once(w, chanem, paths, ref, first, tally):
    """One ``chanem trace``; returns (seconds, peak RSS MB)."""
    dt, code, mb = stream.build_timeline(chanem, paths["scene.txt"],
                                         paths["trace.csv"], paths["run.cirt"])
    reason = verify_timeline(w, paths["run.cirt"], code, ref)
    if reason is None and first is not None:
        with open(paths["run.cirt"], "rb") as fh:
            reason = None if fh.read() == first else "rebuild differs from the first build"
    tally.add("chanem trace", reason)
    return dt, mb


def verify_timeline(w, cirt, code, ref):
    if code != 0:
        return f"exit code {code}"
    try:
        timeline = inputs.read_cirt(cirt)
    except ValueError as exc:
        return str(exc)
    reason = oracle.check_timeline(timeline, w.positions, w.interval)
    if reason is None and ref is not None:
        bad = oracle.compare_taps(timeline, ref)
        reason = f"{bad} snapshots differ from the stored reference" if bad else None
    return reason


def keep_plan(w, slots_per_snapshot, rng):
    """slot -> reply bytes kept: a prefix at every snapshot boundary, whole
    frames for slot 0, the first boundary, the last slot and a few others."""
    full = inputs.frame_bytes(w.fmt)
    prefix = inputs.OWIQ.size + PARTIAL_SAMPLES * (8 if w.fmt == "f32" else 4)
    n = w.session_slots
    keep = {s: prefix for s in range(slots_per_snapshot, n, slots_per_snapshot)}
    chosen = {0, n - 1, min(slots_per_snapshot, n - 1)}
    chosen.update(int(s) for s in rng.choice(n, FULL_CHECKS - len(chosen), replace=False))
    keep.update((s, full) for s in chosen)
    return keep


@dataclass
class Feed:
    """A session's input: pool frames, per-slot pool index, oracle, keep plan."""

    frames: list
    seq: np.ndarray
    check: oracle.SlotOracle
    keep: dict


def make_feed(w, cirt, rng):
    timeline = inputs.read_cirt(cirt)
    frames, decoded = inputs.frame_pool(rng, w.fmt)
    seq = rng.integers(0, len(frames), w.session_slots)
    check = oracle.SlotOracle(timeline, w.taps, decoded, seq, w.noise_db)
    return Feed(frames, seq, check, keep_plan(w, check.slots_per_snapshot, rng))


def run_session(w, chanem, cirt, feed, tally):
    """One closed-loop session over the feed, checked and tallied."""
    s = stream.stream_session(chanem, emulate_args(w, cirt), feed.frames, feed.seq,
                              w.fmt, feed.keep)
    tally.add_slots("session", len(feed.seq), verify_replies(w, feed, s.replies,
                                                              dict(s.bad_slots)))
    tally.add("session exit", None if s.exit_code == 0
              else f"exit code {s.exit_code}: {s.stderr[-300:]}")
    return s


def verify_replies(w, feed, replies, bad):
    """Merge oracle failures of the kept ``replies`` into ``bad`` (slot -> reason)."""
    for slot, raw in replies.items():
        reason = feed.check.check(slot, raw, w.fmt)
        if reason:
            bad.setdefault(slot, reason)
    return bad


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(np.ceil(q / 100 * len(ordered))) - 1))]


def end_to_end(w, seed, seconds, chanem, workdir):
    """Rounds of (timeline build, stream sessions) until ``seconds`` pass, so
    a burst of machine noise spreads over every metric's samples instead of
    hitting one phase.  Speed differs between emulate processes, so each run
    starts many short sessions and reports medians over them."""
    tally = Tally()
    paths, rng, ref = make_inputs(w, seed, workdir)
    cirt = paths["run.cirt"]
    builds, rss, sessions = [], [], []
    first = feed = None
    deadline = time.perf_counter() + seconds
    while len(builds) < MIN_ROUNDS or time.perf_counter() < deadline:
        dt, mb = build_once(w, chanem, paths, ref, first, tally)
        builds.append(dt)
        rss.append(mb)
        if feed is None:
            if tally.failed:
                raise RuntimeError(f"timeline build failed: {tally.reasons}")
            with open(cirt, "rb") as fh:
                first = fh.read()
            feed = make_feed(w, cirt, rng)
        sessions += [run_session(w, chanem, cirt, feed, tally)
                     for _ in range(w.sessions_per_build)]
        if tally.failed:
            break  # a broken program could otherwise stall every round
    lat_ms = [x * 1e3 for s in sessions for x in s.latencies[WARMUP_SLOTS:]]
    rates = [len(s.latencies) / s.wall_s for s in sessions if s.wall_s]
    setups = [s.setup_s for s in sessions if s.setup_s]
    if not (lat_ms and rates and setups):
        raise RuntimeError(f"no session completed: {tally.reasons}")
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "slot_p50_ms": (statistics.median(lat_ms), "ms", len(lat_ms)),
        "slot_p99_ms": (percentile(lat_ms, 99), "ms", len(lat_ms)),
        "slots_per_s": (statistics.median(rates), "1/s", len(rates)),
        "timeline_build_s": (statistics.median(builds), "s", len(builds)),
        "peak_rss_mb": (max(rss + [s.rss_mb for s in sessions]), "MB",
                        len(rss) + len(sessions)),
    }
    return metrics, tally


def machine_stamp():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS for the probe below
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
    }


def _blas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found or os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _commit():
    """git commit if the checkout is a repository, plus a digest of the sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "chanem")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    head = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):  # never look above the checkout
        try:
            head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return f"{head or 'no-git'} src-sha256:{digest.hexdigest()[:16]}"


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine so far."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def report(name, metrics, tally, stamp, ticks):
    steal, total = ticks
    print(f"# workload {name}  machine {json.dumps(stamp)}")
    print(f"# hypervisor steal during the run: {100.0 * steal / max(total, 1):.2f}% of CPU time")
    for key, (value, unit, n) in metrics.items():
        print(f"{name:18s} {key:40s} {value:14.6f} {unit:6s} n={n}")
    rate = tally.failed / tally.attempted
    print(f"{name:18s} {'error_rate':40s} {rate:14.6f} {'ratio':6s} "
          f"n={tally.attempted} (failed {tally.failed})")
    for reason in tally.reasons:
        print(f"# failure: {reason}")


def run_workload(name, seed, seconds, trace, workdir, stamp):
    w = WORKLOADS[name]
    chanem = stream.Chanem(ROOT, workdir)
    # untimed warm-up: byte-compiles the package like any first use would
    warm = chanem.spawn(["--version"])
    stream.reap(warm)
    if trace:
        import replay
        return replay.traced_run(w, seed, seconds, chanem, workdir, stamp)
    return end_to_end(w, seed, seconds, chanem, workdir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chanem", "cli.py")):
        print(f"error: no chanem sources under {ROOT}/src", file=sys.stderr)
        return 2

    stamp = machine_stamp()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined, tally = {}, Tally()
    for name in names:
        workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=HERE)
        before = cpu_ticks()
        try:
            metrics, t = run_workload(name, args.seed, args.seconds, args.trace,
                                      workdir, stamp)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        after = cpu_ticks()
        report(name, metrics, t, stamp, (after[0] - before[0], after[1] - before[1]))
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: {"value": v, "unit": u}
                         for k, (v, u, _) in metrics.items()
                         if args.trace or k in END_TO_END})
        tally.attempted += t.attempted
        tally.failed += t.failed
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
