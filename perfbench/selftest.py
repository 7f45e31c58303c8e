"""The benchmark's own tests: every workload at toy size, both modes.

    python3 perfbench/selftest.py

Run from the repository root.  Each workload runs with ``--quick`` (the
same output checks as a real run, on toy inputs) once untraced and once
traced; the printed result must be correct, fail nothing and carry
exactly the metrics ``BENCHMARK.json`` declares.  A copy of the benchmark
without the program must refuse to run.  The file is not named
``test_*.py`` so the repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_declaration(doc: dict) -> None:
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, sorted(doc)
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = [w["name"] for w in doc["workloads"]]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(doc: dict, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "5", "--seconds", "2",
                "--trace", str(trace), "--quick"], os.getcwd())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    declared = doc["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), result


def check_refuses_without_program() -> None:
    """A directory holding only the benchmark must exit non-zero, silently."""
    scratch = os.path.join(".perfbench", "selftest")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "paper-scaling", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
        assert proc.returncode != 0, proc.stdout
        assert "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_self_times() -> None:
    spans = [
        {"id": 1, "name": "bench.job", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "study.run_study", "start": 1.0, "end": 9.0, "parent": 1},
        {"id": 3, "name": "engine.agent", "start": 2.0, "end": 5.0, "parent": 2},
        {"id": 4, "name": "engine.agent", "start": 4.0, "end": 6.0, "parent": 2},
    ]
    assert tracing.self_times(spans) == {1: 2.0, 2: 4.0, 3: 3.0, 4: 2.0}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    check_declaration(doc)
    check_self_times()
    check_refuses_without_program()
    for workload in [w["name"] for w in doc["workloads"]]:
        for trace in (0, 1):
            check_run(doc, workload, trace)
            print(f"ok  {workload} trace={trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
