"""Child processes: running one to completion, and a small launcher for CLI ops.

Run as a script, this module is the launcher: it reads one JSON request per
line on stdin ({"argv": [...]}), runs that child with `spawn`, and answers
with one JSON line (exit code, base64 stdout and stderr, peak RSS).  It
exits at end of input.  It imports nothing from arclift.

Why a launcher: a child's ru_maxrss also counts the memory of the process
it was forked from, up to its exec.  Children forked straight from the
benchmark, which holds arclift, numpy and the loaded problems, would report
at least the benchmark's size as their peak; forked from the bare launcher,
they report their own.
"""

from __future__ import annotations

import base64
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120


@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes
    maxrss_kb: int


def child_env() -> dict:
    """Environment for child interpreters: arclift from this checkout, no ARCLIFT_NWORK."""
    env = {k: v for k, v in os.environ.items() if k != "ARCLIFT_NWORK"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list) -> CliResult:
    """Run a child in ROOT to completion, collecting stdout, stderr and its peak RSS.

    os.wait4 reaps the child itself, because Popen.wait would discard the
    child's resource usage.  A child still running after CHILD_TIMEOUT_S is
    killed and reported as a TimeoutError."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
                timed_out = True
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for stream in chunks:
        stream.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        raise TimeoutError(f"{argv[1:]} ran longer than {CHILD_TIMEOUT_S} s")
    return CliResult(proc.returncode, b"".join(chunks[proc.stdout]),
                     b"".join(chunks[proc.stderr]), usage.ru_maxrss)


class Launcher:
    """Client side of the launcher process; `close` stops it and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list) -> CliResult:
        self.proc.stdin.write(json.dumps({"argv": argv}).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return CliResult(reply["code"], base64.b64decode(reply["out"]),
                         base64.b64decode(reply["err"]), reply["maxrss_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin.buffer:
        try:
            res = spawn(json.loads(line)["argv"])
            reply = {"code": res.code, "out": base64.b64encode(res.out).decode(),
                     "err": base64.b64encode(res.err).decode(), "maxrss_kb": res.maxrss_kb}
        except (OSError, TimeoutError) as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
