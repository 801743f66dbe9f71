"""Run child processes and measure each: wall time from spawn to exit, peak
resident set size, exit code and output.

The exit is awaited on a pidfd, so the wall time has no polling delay, and
the child is reaped with ``wait4`` to read its ``ru_maxrss``.  A child that
outlives its timeout is killed and reaped before the call returns.

Linux starts a child's peak RSS at the peak of the process that forked it,
and the benchmark runner's own peak grows as it checks large outputs.  So
``run.py`` does not fork jobs itself: :class:`Spawner` hands each one to a
small helper process (this file run as a script) whose own peak stays
below any CLI job's.  The helper also times :func:`calibrate.work` in
its own process, between jobs, to follow the host's speed.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    exit_code: int
    maxrss_kib: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def run_process(argv: list, env: dict, cwd: str, timeout_s: float, stdout_path: str,
                stderr_path: str) -> dict:
    """Run ``argv`` to completion or until ``timeout_s`` of wall time, its
    output going to the two files."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
    pidfd = os.pidfd_open(proc.pid)
    exited = False
    try:
        exited = bool(select.select([pidfd], [], [], timeout_s)[0])
    finally:
        os.close(pidfd)
        if not exited:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # reaped above; tell Popen so it does not wait for the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit_code": proc.returncode, "maxrss_kib": usage.ru_maxrss,
            "timed_out": not exited}


class Spawner:
    """Parent side: runs jobs through the helper, one at a time."""

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir
        self.helper = subprocess.Popen([sys.executable, "-S", __file__],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True)

    def run(self, argv: list, env: dict, cwd: str, timeout_s: float) -> Outcome:
        fd_out, out_path = tempfile.mkstemp(dir=self.tmp_dir)
        fd_err, err_path = tempfile.mkstemp(dir=self.tmp_dir)
        os.close(fd_out)
        os.close(fd_err)
        try:
            request = {"argv": argv, "env": env, "cwd": cwd, "timeout_s": timeout_s,
                       "stdout_path": out_path, "stderr_path": err_path}
            self.helper.stdin.write(json.dumps(request) + "\n")
            self.helper.stdin.flush()
            reply = self.helper.stdout.readline()
            if not reply:
                raise RuntimeError("the spawn helper exited")
            result = json.loads(reply)
            with open(out_path, "rb") as out, open(err_path, "rb") as err:
                return Outcome(stdout=out.read(), stderr=err.read(), **result)
        finally:
            os.unlink(out_path)
            os.unlink(err_path)

    def calibrate(self) -> float:
        """Seconds the helper took for one :func:`calibrate.work`."""
        self.helper.stdin.write(json.dumps({"calibrate": True}) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        return json.loads(reply)["wall_s"]

    def close(self):
        self.helper.stdin.close()
        self.helper.wait(timeout=60)
        self.helper.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve():
    """Helper side: one JSON request per stdin line, one reply per line."""
    import calibrate

    for line in sys.stdin:
        request = json.loads(line)
        if request.pop("calibrate", False):
            start = time.perf_counter()
            calibrate.work()
            reply = {"wall_s": time.perf_counter() - start}
        else:
            reply = run_process(**request)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
