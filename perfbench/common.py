"""Paths, child-process plumbing, statistics and the result line shared by the workloads."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output of this process (spans, published estimates); ignored by git.
OUT = ROOT / ".perfbench_out" / str(os.getpid())

#: Fresh system processes set up per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: How long a system process gets to shut down cleanly when a run is abandoned.
STOP_TIMEOUT_S = 10.0


def remove_out() -> None:
    """Delete this process's scratch directory (and the shared parent once empty)."""
    shutil.rmtree(OUT, ignore_errors=True)
    with contextlib.suppress(OSError):
        OUT.parent.rmdir()


class BenchError(RuntimeError):
    """The benchmark could not run; reported on stderr with a non-zero exit."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Sweep settings are pinned by the benchmark, never taken from the environment.
    for key in list(env):
        if key.startswith("REPRO_BENCH_"):
            del env[key]
    return env


class Child:
    """A system process: started fresh, reports ``ready`` on stdout, obeys stdin lines."""

    def __init__(self, script: str, *args: str) -> None:
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
            # Its own process group, so abandoning a run also stops its workers.
            start_new_session=True,
        )
        self.ready_at = 0.0

    def wait_line(self, tag: str) -> list[str]:
        """Block until the child prints a line starting with ``tag``; returns its fields.

        Only the run's deadline bounds the wait (see ``run.py``).
        """
        for line in self.proc.stdout:
            fields = line.split()
            if fields and fields[0] == tag:
                return fields[1:]
        raise BenchError(f"system process {self.proc.args[1]} exited before {tag!r}")

    def wait_ready(self) -> list[str]:
        fields = self.wait_line("ready")
        self.ready_at = time.monotonic()
        return fields

    @property
    def setup_s(self) -> float:
        return self.ready_at - self.started

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self) -> None:
        """Close stdin (the stop signal) and wait for a clean exit."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"system process {self.proc.args[1]} exited with {code}")

    def kill(self) -> None:
        """Stop the child (SIGTERM, then SIGKILL to its process group) and reap it."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def quantile_ms(seconds, q: float) -> float:
    return float(np.quantile(np.asarray(seconds, dtype=float), q)) * 1e3


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of the given live processes, in MiB."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def emit(
    correct: bool, attempted: int, failed: int, metrics: dict, units: dict, aliases: dict
) -> None:
    """Print every metric readably, then the one-line JSON result last."""
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6f} {units[name]}")
    for name, (value, unit) in aliases.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    print(f"{'failed_ratio':<34} {failed / max(attempted, 1):>16.6f} ratio")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
