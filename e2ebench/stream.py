"""Drive the ``chanem`` CLI as child processes: trace builds and TCP streams.

The load is a closed loop: one client, one frame in flight; frame i+1 is
sent only after output frame i has fully arrived.  Each slot is timed from
the start of sending frame i to the full receipt of output frame i.  Replies
are kept as raw bytes (only the sampled ones) and decoded after the stream.
"""

import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs

SPAWN_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 30.0


class Chanem:
    """Spawns ``python -m chanem.cli`` from a checkout's ``src`` tree."""

    def __init__(self, root, workdir):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.workdir = workdir
        self.spawned = 0

    def spawn(self, args):
        self.spawned += 1
        err = open(os.path.join(self.workdir, f"child{self.spawned}.err"), "wb")
        try:
            return subprocess.Popen([sys.executable, "-m", "chanem.cli", *args],
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        finally:
            err.close()

    def stderr_of(self, proc_number):
        with open(os.path.join(self.workdir, f"child{proc_number}.err"), "rb") as fh:
            return fh.read().decode(errors="replace").strip()


def reap(proc, timeout=EXIT_TIMEOUT_S):
    """Wait for ``proc``; returns (exit code, peak RSS in MB from its rusage).

    The RSS reads 0 if ``proc.poll()`` already reaped the process."""
    if proc.returncode is not None:
        return proc.returncode, 0.0
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            timeout, deadline = 5.0, time.monotonic() + 5.0
        time.sleep(0.005)


def kill(proc):
    if proc.returncode is None:
        proc.kill()
        reap(proc)


def build_timeline(chanem, scene_path, trace_path, out_path):
    """Run ``chanem trace``; returns (seconds spawn-to-exit, exit code, rss MB)."""
    t0 = time.perf_counter()
    proc = chanem.spawn(["trace", "--scene", scene_path, "--trace", trace_path,
                         "--out", out_path])
    try:
        code, rss = reap(proc, timeout=90.0)
    finally:
        kill(proc)
    return time.perf_counter() - t0, code, rss


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@dataclass
class Session:
    setup_s: float = 0.0
    wall_s: float = 0.0                 # first send to last receipt
    latencies: list = field(default_factory=list)
    replies: dict = field(default_factory=dict)   # slot -> raw reply bytes kept
    bad_slots: list = field(default_factory=list)  # (slot, reason)
    exit_code: int = None
    rss_mb: float = 0.0
    stderr: str = ""


def stream_session(chanem, emulate_args, frames, seq, fmt, keep):
    """One ``chanem emulate --listen`` process fed len(seq) slots.

    ``frames`` are the pre-encoded pool frames, ``seq[i]`` the pool index of
    slot i, and ``keep`` maps slot -> number of leading reply bytes to retain
    for the oracle.  Missing, malformed and extra frames land in
    ``bad_slots``.
    """
    port = free_port()
    s = Session()
    t0 = time.perf_counter()
    proc = chanem.spawn(["emulate", *emulate_args, "--listen", f"127.0.0.1:{port}"])
    number = chanem.spawned
    sock = None
    try:
        while sock is None:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
            except ConnectionRefusedError:
                if proc.poll() is not None or time.perf_counter() - t0 > SPAWN_TIMEOUT_S:
                    break
                time.sleep(0.002)
        if sock is None:
            s.bad_slots.append((0, "emulate never listened"))
        else:
            s.setup_s = time.perf_counter() - t0
            _closed_loop(sock, frames, seq, fmt, keep, s)
    finally:
        if sock is not None:
            sock.close()
        s.exit_code, s.rss_mb = reap(proc)
        s.stderr = chanem.stderr_of(number)
    return s


def _closed_loop(sock, frames, seq, fmt, keep, s):
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    size = inputs.frame_bytes(fmt)
    flags = inputs.FLAG_F32 if fmt == "f32" else 0
    expect = bytearray(inputs.OWIQ.pack(inputs.OWIQ_MAGIC, inputs.OWIQ_VERSION,
                                        flags, 0, inputs.N_S))
    buf = bytearray(size)
    view = memoryview(buf)
    lat = np.empty(len(seq))
    perf = time.perf_counter
    start = perf()
    done = 0
    try:
        for i, p in enumerate(seq):
            frame = frames[p]
            inputs.restamp(frame, i)
            t0 = perf()
            sock.sendall(frame)
            got = 0
            while got < size:
                n = sock.recv_into(view[got:])
                if not n:
                    break
                got += n
            lat[i] = perf() - t0
            if got < size:
                s.bad_slots.append((i, f"reply truncated at {got} of {size} bytes"))
                break
            inputs.restamp(expect, i)
            if buf[:inputs.OWIQ.size] != expect:
                s.bad_slots.append((i, f"bad reply header {bytes(buf[:20])!r}"))
                break
            if i in keep:
                s.replies[i] = bytes(view[:keep[i]])
            done = i + 1
    except OSError as exc:
        s.bad_slots.append((done, f"socket error: {exc}"))
    s.wall_s = perf() - start
    s.latencies = lat[:done].tolist()
    if s.bad_slots:
        s.bad_slots += [(j, "slot not processed") for j in range(done + 1, len(seq))]
        return
    try:
        sock.shutdown(socket.SHUT_WR)
        extra = 0
        while True:
            n = sock.recv_into(view)
            if not n:
                break
            extra += n
        if extra:
            s.bad_slots.append((done, f"{extra} bytes beyond the last slot"))
    except OSError as exc:
        s.bad_slots.append((done, f"socket error after the last slot: {exc}"))
