"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It byte-compiles ``src/``, gives the
run a fresh directory under ``.perfbench/runs`` (stores, daemon state, ``REPRO_CACHE_DIR``; removed at
the end), times ``setup_s`` over several fresh interpreters, runs the
workload for about ``S`` seconds in a worker process, and prints every
metric of ``BENCHMARK.json`` with its unit.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the full result, with the machine fingerprint (and the spans of a traced
run), is written to ``.perfbench/results/``.  ``--quick`` runs toy sizes
for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("paper-scaling", "serve-mixed", "coupling-lemma2")
#: Wall-clock budget of one run, start-ups included.
BUDGET_S = 170.0


def compile_sources(env: dict, deadline: float) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join("src", "repro")],
        env=env, check=True, stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def start_worker(args, run_dir, env, log, *, setup_only: bool):
    cmd = [sys.executable, os.path.join(common.HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    # Own session: the worker and any daemon it starts form one process
    # group that ``kill_group`` can always take down.
    proc = common.spawn(cmd, env, log, start_new_session=True)
    return proc, start


def tagged(kind):
    def want(line):
        value = common.parse(line)
        return value[1] if value and value[0] == kind else None

    return want


def kill_group(proc) -> None:
    """Stop the worker's whole process group and wait for the worker."""
    for signum, wait in ((signal.SIGTERM, 20.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, signum)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=wait)
        except subprocess.TimeoutExpired:
            continue
        # The leader is gone; take down anything it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        break
    proc.wait()


def kill_at(proc, deadline: float) -> threading.Timer:
    """Kill the worker's group at ``deadline``: a hung worker ends the run."""

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.daemon = True
    timer.start()
    return timer


def measure(args, run_dir: str, deadline: float) -> dict:
    env = common.child_env(run_dir)
    log = os.path.join(run_dir, "worker.log")
    compile_sources(env, deadline)
    setups, imports = [], []
    runs = 1 if args.workload == "serve-mixed" else common.SETUP_RUNS
    for i in range(runs):
        proc, start = start_worker(args, run_dir, env, log, setup_only=i < runs - 1)
        timer = kill_at(proc, deadline)
        try:
            ready, at = common.read_until(proc, tagged("ready"), deadline)
            setups.append(at - start)
            imports.append(ready["import_s"])
            if i < runs - 1:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
                continue
            result, _ = common.read_until(proc, tagged("result"), deadline)
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            timer.cancel()
            kill_group(proc)
    if args.workload == "serve-mixed":
        setups = result.pop("setup_times", setups)
    elif args.trace:
        result["metrics"]["startup.import_s"] = common.p50(imports)
    if not args.trace:
        result["metrics"]["setup_s"] = common.p50(setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program here (src/repro missing); run it from the "
              "repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    out = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(out, "runs"), exist_ok=True)
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(out, "runs"))
    try:
        result = measure(args, run_dir, deadline)
    except Exception as exc:
        print(f"perfbench: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        for name in sorted(os.listdir(run_dir)):
            if name.endswith(".log"):
                with open(os.path.join(run_dir, name), encoding="utf-8", errors="replace") as f:
                    tail = f.read()[-4000:]
                if tail.strip():
                    print(f"--- {name}\n{tail}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = result["metrics"]
    errors = list(result["errors"])
    metrics = {}
    for metric in declared:
        value = measured.get(metric["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    fingerprint = common.fingerprint()
    print(f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {result['attempted']} jobs, {result['failed']} failed")
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in result.get("info", {}).items():
        print(f"  ({name} {value:.6g})")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    summary = {
        "correct": not errors,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out, "results", f"{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump({**summary, "fingerprint": fingerprint, "errors": errors,
                   "info": result.get("info", {}), "spans": result.get("spans", [])}, handle)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
