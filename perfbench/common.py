"""Process handling and statistics shared by the orchestrator and workers.

Standard library only: ``run.py`` imports this without importing the
program, so its own start-up stays out of every measurement.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Every line a worker or launcher sends to its parent starts with this.
TAG = "PERFBENCH "
#: Fresh start-ups timed per run; ``setup_s`` is their median.
SETUP_RUNS = 3


def emit(kind: str, payload) -> None:
    print(TAG + json.dumps({kind: payload}), flush=True)


def parse(line: str):
    """A tagged line's ``(kind, payload)``, or ``None`` for other output."""
    if not line.startswith(TAG):
        return None
    ((kind, payload),) = json.loads(line[len(TAG):]).items()
    return kind, payload


def child_env(run_dir: str) -> dict:
    """The environment every program process of a run starts with.

    The source tree is importable and the shared result cache points
    into the run's own directory.
    """
    root = os.getcwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "repro-cache")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(cmd, env, log_path: str, **kwargs) -> subprocess.Popen:
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=log, text=True, **kwargs
        )


def read_until(proc: subprocess.Popen, want, deadline: float):
    """Read ``proc``'s stdout until ``want(line)`` returns non-None.

    Returns ``(value, monotonic time the line arrived)``; raises when the
    process exits first.  ``deadline`` guards the caller's time budget.
    """
    while True:
        if time.monotonic() > deadline:
            raise TimeoutError(f"no expected line from pid {proc.pid} in time")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"pid {proc.pid} exited before its expected line")
        value = want(line.rstrip("\n"))
        if value is not None:
            return value, time.monotonic()


def stop(proc: "subprocess.Popen | None", timeout: float = 20.0) -> None:
    """SIGTERM, wait, and SIGKILL if the process does not end in time."""
    if proc is None or proc.poll() is not None:
        return
    try:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def peak_rss_mib(pid: "int | str" = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    return float(statistics.quantiles(values, n=10)[-1]) if len(values) >= 2 else p50(values)


def fingerprint() -> dict:
    """CPU model, core count and the versions that shape the numbers."""
    import importlib.metadata
    import importlib.util
    import platform

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> "str | None":
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }
