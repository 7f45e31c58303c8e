"""One workload in a fresh interpreter: set up, measure, check.

``run.py`` starts this file once per run (plus set-up-only copies for
``setup_s``); it talks back through tagged stdout lines (``common.emit``):
``ready`` once the process is ready to take jobs, ``result`` at the end.

Workloads (the README says why each exists):

``paper-scaling``
    The grid of ``studies/consensus_scaling.toml`` run as whole studies
    through ``repro.api.study``, cache off, fresh store per job.
``serve-mixed``
    A ``repro serve`` daemon driven by two closed-loop client threads
    with a fixed mix of new, resubmitted and renamed specs.
``coupling-lemma2``
    Lemma-2 coupled 3-Majority / Voter trajectories, one Strassen LP per
    coupled round.

Usage (normally through ``run.py``)::

    python perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --run-dir DIR [--quick] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("paper-scaling", "serve-mixed", "coupling-lemma2")
#: Engine backends reported one by one; any other lands in ``.other``.
BACKENDS = (
    "agent",
    "counts",
    "ensemble-agent",
    "ensemble-counts",
    "kernel-agent",
    "sharded-agent",
    "sharded-counts",
)


def run_cycles(seconds: float, cycle) -> float:
    """Run whole cycles for about ``seconds``; return the wall time.

    The cycle count is ``seconds / cycle time`` rounded to the nearest
    whole number (at least one), so every run attempts whole rounds of
    the same operations and lands within half a cycle of ``seconds``.
    """
    start = time.monotonic()
    cycles = 0
    while True:
        cycle()
        cycles += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / cycles / 2.0 >= seconds:
            return elapsed


# ---------------------------------------------------------------------------
# paper-scaling


def paper_spec(seed: int, quick: bool):
    """The axes of studies/consensus_scaling.toml, at study seed ``seed``."""
    from repro.study import StudySpec

    return StudySpec(
        name="consensus-scaling",
        description=(
            "Thm-1 separation: 3-Majority vs 2-Choices vs Voter from n "
            "singleton colors"
        ),
        seed=seed,
        repetitions=5,
        expansion="grid",
        axes={
            "process": ["3-majority", "2-choices", "voter"],
            "n": [32, 64] if quick else [256, 512, 1024],
            "workload": ["singletons"],
            "stop": ["consensus"],
            "scheduler": ["synchronous"],
            "adversary": [None],
            "max_rounds": [None],
            "backend": ["auto"],
            "rng_mode": ["per-replica"],
        },
    )


class PaperScaling:
    """Whole studies as jobs; ``K`` study seeds per cycle, each repeated."""

    def __init__(self, args):
        from repro.engine.rng import derive_seed

        self.args = args
        self.k = 2 if args.quick else 6
        self.specs = [paper_spec(derive_seed(args.seed, i), args.quick) for i in range(self.k)]
        self.errors: "list[str]" = []
        self.tracer = None

    def prepare(self) -> None:
        from repro import api

        for spec in self.specs:
            api.validate(spec)
        warm = paper_spec(0, quick=True)
        api.study(warm, store_path=self._store_path(f"warmup-{os.getpid()}"), cache=False)

    def _store_path(self, tag: str) -> str:
        path = os.path.join(self.args.run_dir, "stores", f"{tag}.store.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def phase(self, seconds: float, phase: str) -> dict:
        from repro import api

        jobs = []

        def cycle():
            for i, spec in enumerate(self.specs):
                key = f"{phase}-{len(jobs)}"
                path = self._store_path(key)
                span = self.tracer.begin("bench.job", key) if self.tracer else None
                start = time.monotonic()
                store = api.study(spec, store_path=path, cache=False)
                latency = time.monotonic() - start
                if span is not None:
                    self.tracer.end(span)
                jobs.append({"key": key, "spec": i, "path": path, "store": store,
                             "latency": latency})

        wall = run_cycles(seconds, cycle)
        return {"jobs": jobs, "wall": wall}

    def check(self, phase: dict) -> "tuple[int, float]":
        """Failed jobs and node updates of one phase, from the stored times."""
        from repro.study import load_study_store

        failed = 0
        updates = 0
        first: "dict[int, object]" = {}
        for job in phase["jobs"]:
            store = job["store"]
            on_disk = load_study_store(job["path"])
            if not on_disk.results_equal(store):
                self.errors.append(f"{job['key']}: stored results differ from the run's")
            if not all(r.ok for r in on_disk.records()):
                failed += 1
                continue
            reference = first.setdefault(job["spec"], on_disk)
            if not on_disk.results_equal(reference):
                self.errors.append(f"{job['key']}: repeated study is not bit-identical")
            means: "dict[tuple, float]" = {}
            for record in on_disk.records():
                if not record.stopped.all() or (record.times <= 0).any():
                    self.errors.append(f"{job['key']}: replica without consensus")
                n = int(record.params["n"])
                updates += int(record.times.sum()) * n
                means[(record.params["process"]["name"], n)] = float(record.times.mean())
            for (process, n), mean in means.items():
                if process == "3-majority":
                    for slow in ("2-choices", "voter"):
                        if not mean < means[(slow, n)]:
                            self.errors.append(
                                f"{job['key']}: 3-Majority not faster than {slow} at n={n}"
                            )
        return failed, updates

    def trace_checks(self, spans) -> None:
        for span in spans:
            if span["name"].startswith("engine.") and span["attrs"].get("single_color") is False:
                self.errors.append(f"{span['name']}: a replica ended with several colors")


# ---------------------------------------------------------------------------
# coupling-lemma2


class CouplingLemma2:
    """Coupled trajectories over ``K`` trajectory seeds per cycle."""

    def __init__(self, args):
        from repro.engine.rng import derive_seed

        self.args = args
        self.k = 2 if args.quick else 4
        self.n = 4 if args.quick else 6
        self.rounds = 3 if args.quick else 15
        self.seeds = [derive_seed(args.seed, i) for i in range(self.k)]
        self.errors: "list[str]" = []
        self.lp_results: list = []
        self.tracer = None

    def prepare(self) -> None:
        import numpy as np
        import repro.core.coupling as coupling
        from repro.core import Configuration, ThreeMajorityFunction, VoterFunction

        coupling.run_coupled_chains(
            ThreeMajorityFunction(), VoterFunction(), Configuration([1] * 3),
            rounds=2, rng=np.random.default_rng(0),
        )

    def phase(self, seconds: float, phase: str) -> dict:
        import numpy as np
        import repro.core.coupling as coupling
        from repro.core import Configuration, ThreeMajorityFunction, VoterFunction

        jobs = []

        def cycle():
            for seed in self.seeds:
                key = f"{phase}-{len(jobs)}"
                span = self.tracer.begin("bench.job", key) if self.tracer else None
                start = time.monotonic()
                try:
                    trajectory = coupling.run_coupled_chains(
                        ThreeMajorityFunction(), VoterFunction(),
                        Configuration([1] * self.n), rounds=self.rounds,
                        rng=np.random.default_rng(seed),
                    )
                except RuntimeError as exc:  # an infeasible Strassen LP
                    trajectory = exc
                latency = time.monotonic() - start
                if span is not None:
                    self.tracer.end(span)
                jobs.append({"key": key, "trajectory": trajectory, "latency": latency})

        wall = run_cycles(seconds, cycle)
        return {"jobs": jobs, "wall": wall}

    def check(self, phase: dict) -> "tuple[int, float]":
        """Failed jobs and node updates: a coupled round moves 2 chains of n."""
        failed = 0
        rounds = 0
        for job in phase["jobs"]:
            trajectory = job["trajectory"]
            if isinstance(trajectory, Exception):
                failed += 1
                continue
            if trajectory.rounds() != self.rounds:
                self.errors.append(f"{job['key']}: {trajectory.rounds()} rounds")
            if not trajectory.majorization_maintained():
                self.errors.append(f"{job['key']}: majorization broken")
            if not trajectory.colors_never_more():
                self.errors.append(f"{job['key']}: fast chain has more colors")
            for state in trajectory.upper_states + trajectory.lower_states:
                if sum(state) != self.n:
                    self.errors.append(f"{job['key']}: state {state} does not sum to n")
            rounds += trajectory.rounds()
        return failed, 2 * self.n * rounds

    def trace_checks(self, spans) -> None:
        bad = sum(1 for result in self.lp_results if not result.verify())
        if bad:
            self.errors.append(f"{bad} of {len(self.lp_results)} LP joint laws fail verify()")
        self.lp_results.clear()


# ---------------------------------------------------------------------------
# serve-mixed


def serve_spec(name: str, seed: int, n: int) -> dict:
    from repro.study import StudySpec

    return StudySpec(
        name=name,
        seed=seed,
        repetitions=3,
        axes={
            "process": ["3-majority", "2-choices", "voter"],
            "n": [n],
            "workload": ["singletons"],
            "backend": ["auto"],
            "rng_mode": ["per-replica"],
        },
    ).to_dict()


class Daemon:
    """One ``repro serve`` process on its own state directory."""

    def __init__(self, run_dir: str, tag: str, traced: bool, deadline: float):
        self.state_dir = os.path.join(run_dir, f"serve-{tag}")
        self.spans_path = os.path.join(run_dir, f"spans-{tag}.json")
        if traced:
            cmd = [sys.executable, os.path.join(common.HERE, "launcher.py"),
                   "--state-dir", self.state_dir, "--spans", self.spans_path]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--state-dir", self.state_dir]
        self.import_s = None
        start = time.monotonic()
        self.proc = common.spawn(cmd, common.child_env(run_dir),
                                 os.path.join(run_dir, f"daemon-{tag}.log"))
        try:
            def listening(line):
                tagged = common.parse(line)
                if tagged and tagged[0] == "import_s":
                    self.import_s = tagged[1]
                if line.startswith("listening on "):
                    return line[len("listening on "):].strip()
                return None

            self.url, _ = common.read_until(self.proc, listening, deadline)
            from repro.serve import ServeClient

            self.client = ServeClient(self.url, timeout=60.0)
            self.client.jobs()
            self.answered_s = time.monotonic() - start
        except BaseException:
            self.stop()
            raise
        self.start = start

    def stop(self) -> None:
        common.stop(self.proc)


class ServeMixed:
    """Two closed-loop clients; per client round: new, resubmit, renamed, new."""

    CLIENTS = 2

    def __init__(self, args):
        self.args = args
        self.n_values = (16,) if args.quick else (32, 64)
        self.errors: "list[str]" = []
        self.setup_times: "list[float]" = []
        self.ready_times: "list[float]" = []
        self.import_times: "list[float]" = []
        self.daemon = None
        self.peak_rss = 0.0
        self.tracer = None
        self.deadline = time.monotonic() + 150.0

    def prepare(self) -> None:
        pass

    def start_daemon(self, tag: str, traced: bool) -> Daemon:
        """A daemon, timed from spawn to its first job done (``setup_s``)."""
        daemon = Daemon(self.args.run_dir, tag, traced, self.deadline)
        try:
            warm = serve_spec(f"warmup-{tag}", 1, 16)
            view = daemon.client.submit(warm)
            final = daemon.client.wait(view["id"])
            if final.get("state") != "done":
                raise RuntimeError(f"warm-up job ended {final.get('state')}")
        except BaseException:
            daemon.stop()
            raise
        self.setup_times.append(time.monotonic() - daemon.start)
        self.ready_times.append(daemon.answered_s)
        if daemon.import_s is not None:
            self.import_times.append(daemon.import_s)
        return daemon

    def setups(self, traced: bool) -> Daemon:
        for i in range(common.SETUP_RUNS - 1):
            self.start_daemon(f"setup{i}-{int(traced)}", traced).stop()
        return self.start_daemon(f"main-{int(traced)}", traced)

    def _op(self, client, kind, spec, phase_ops, key, job_id=None):
        span = self.tracer.begin("bench.job", key) if self.tracer else None
        start = time.monotonic()
        view = client.submit(spec)
        submitted = time.monotonic()
        events = []
        events_span = self.tracer.begin("serve.client.events") if self.tracer else None
        for event in client.events(view["id"]):
            events.append((time.monotonic(), event))
        if events_span is not None:
            self.tracer.end(events_span)
        end = time.monotonic()
        if span is not None:
            self.tracer.end(span)
        op = {"key": key, "kind": kind, "id": view["id"], "attached": view.get("attached"),
              "start": start, "submit": submitted - start, "latency": end - start,
              "events": events, "spec": spec, "expected_id": job_id}
        phase_ops.append(op)
        return op

    def phase(self, seconds: float, phase: str) -> dict:
        from repro.engine.rng import derive_seed

        daemon = self.daemon
        ops: "list[dict]" = []
        lock = threading.Lock()
        failures: list = []

        def client_loop(c: int):
            from repro.serve import ServeClient

            client = ServeClient(daemon.url, timeout=60.0)
            local: "list[dict]" = []
            counter = [0]

            def cycle():
                r = counter[0]
                counter[0] += 1
                stream = 2 * (self.CLIENTS * r + c)
                seeds = [derive_seed(self.args.seed, stream + j) for j in (0, 1)]
                n = self.n_values[r % len(self.n_values)]
                first = serve_spec(f"serve-{self.args.seed}-c{c}-r{r}-a", seeds[0], n)
                second = serve_spec(f"serve-{self.args.seed}-c{c}-r{r}-b", seeds[1], n)
                renamed = dict(first, name=first["name"] + "-copy")
                key = f"{phase}-c{c}-r{r}"
                new = self._op(client, "new", first, local, f"{key}-0")
                self._op(client, "attached", first, local, f"{key}-1", job_id=new["id"])
                self._op(client, "cached", renamed, local, f"{key}-2")
                self._op(client, "new", second, local, f"{key}-3")

            try:
                run_cycles(seconds, cycle)
            except BaseException as exc:  # reported, and the run is not correct
                failures.append(f"client {c}: {type(exc).__name__}: {exc}")
            with lock:
                ops.extend(local)

        start = time.monotonic()
        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - start
        self.errors.extend(failures)
        ops.sort(key=lambda op: op["start"])
        return {"jobs": ops, "wall": wall}

    def check(self, phase: dict) -> "tuple[int, float]":
        """Failed jobs and node updates the daemon simulated, verified.

        Every served store is compared with the same spec run in the
        foreground (cache off); renamed copies must be all cache hits and
        resubmissions must attach to the job they repeat.
        """
        from repro import api
        from repro.study import StudySpec, validate_study

        failed = 0
        updates = 0
        verified: "set[str]" = set()
        for op in phase["jobs"]:
            events = [event for _, event in op["events"]]
            done = [event for event in events if event.get("event") == "done"]
            if not done or done[-1]["job"]["state"] != "done":
                failed += 1
                continue
            spec = StudySpec.from_dict(op["spec"])
            cells = {cell["cell_id"] for cell in validate_study(spec)["cells"]}
            records = [event for event in events if event.get("event") == "record"]
            ids = [event["cell_id"] for event in records]
            if len(ids) != len(set(ids)) or set(ids) != cells:
                self.errors.append(f"{op['key']}: stream records {len(ids)} of {len(cells)} cells")
            if op["kind"] == "attached":
                if not op["attached"] or op["id"] != op["expected_id"]:
                    self.errors.append(f"{op['key']}: resubmission did not attach")
                continue
            if op["attached"]:
                self.errors.append(f"{op['key']}: a fresh spec attached to a job")
            if op["id"] in verified:
                continue
            verified.add(op["id"])
            served = self.daemon.client.results_store(op["id"])
            if not served.results_equal(api.study(spec, cache=False)):
                self.errors.append(f"{op['key']}: served results differ from a foreground run")
            if op["kind"] == "cached":
                if not all(r.cache_hit for r in served.records()) or not all(
                    event["cache_hit"] for event in records
                ):
                    self.errors.append(f"{op['key']}: renamed copy not served from cache")
            else:
                updates += sum(int(r.times.sum()) * int(r.params["n"]) for r in served.records())
        return failed, updates

    def trace_checks(self, spans) -> None:
        pass


# ---------------------------------------------------------------------------
# metrics


def e2e(phase: dict, updates: int) -> dict:
    latencies = [job["latency"] for job in phase["jobs"]]
    return {
        "job_latency_p50_ms": common.p50(latencies) * 1e3,
        "jobs_per_s": len(latencies) / phase["wall"],
        "node_updates_per_s": updates / phase["wall"],
    }


def client_metrics(phase: dict) -> dict:
    """Wire-level timings the load process sees, per served job."""
    submit, first, lag = [], [], []
    counts = {"new": 0, "attached": 0, "cached": 0}
    events = 0
    latencies = []
    for op in phase["jobs"]:
        counts[op["kind"]] += 1
        events += len(op["events"])
        latencies.append(op["latency"])
        submit.append(op["submit"] * 1e3)
        stamps = [t for t, event in op["events"] if event.get("event") == "record"]
        done = [t for t, event in op["events"] if event.get("event") == "done"]
        if stamps:
            first.append((stamps[0] - op["start"]) * 1e3)
            if done:
                lag.append((done[-1] - stamps[-1]) * 1e3)
    return {
        "serve.submit_ms_p50": common.p50(submit),
        "serve.first_record_ms_p50": common.p50(first),
        "serve.done_lag_ms_p50": common.p50(lag),
        "serve.job_latency_p90_ms": common.p90(latencies) * 1e3,
        "serve.jobs_new": counts["new"],
        "serve.jobs_attached": counts["attached"],
        "serve.jobs_cached": counts["cached"],
        "serve.events": events,
    }


def attach_daemon_spans(ops: "list[dict]", daemon_spans: "list[dict]") -> "dict[str, list]":
    """Daemon span trees → the client op (job id, time window) they served."""
    tracing.resolve_jobs(daemon_spans)
    windows: "dict[str, list]" = {}
    for op in ops:
        windows.setdefault(op["id"], []).append(
            (op["start"], op["start"] + op["latency"], op["key"])
        )
    out: "dict[str, list]" = {}
    for span in daemon_spans:
        for start, end, key in windows.get(span["job"], []):
            if start <= span["start"] <= end:
                out.setdefault(key, []).append(span)
                break
    return out


def layer_metrics(keys, latency_of, spans_of, untraced_mean: float, serve: bool) -> dict:
    """Per-layer counts and self times, averaged per job of the traced phase."""
    jobs = len(keys)
    layer_self = {layer: 0.0 for layer in tracing.LAYERS + ("bench",)}
    per = {name: 0.0 for name in (
        "compile_calls", "compile_s", "run_study_self_s", "checkpoints", "cache_gets",
        "cache_hits", "resolve_calls", "resolve_s", "lp_calls", "lp_vars", "lp_s",
        "enumerate_s", "outcomes", "cells")}
    checkpoint_ms, compact_ms, get_ms, put_ms = [], [], [], []
    cells = {name: 0 for name in BACKENDS + ("other",)}
    busy = {name: 0.0 for name in BACKENDS}
    updates = {name: 0 for name in BACKENDS}
    accounted = []
    for key in keys:
        spans = spans_of(key)
        selfs = tracing.self_times(spans)
        total = 0.0
        for span in spans:
            name, duration = span["name"], span["end"] - span["start"]
            layer = tracing.layer_of(name)
            own = selfs[span["id"]]
            client_side = serve and (layer == "bench" or name.startswith("serve.client"))
            if not client_side:
                layer_self[layer] += own
                if layer != "bench":
                    total += own
            if name == "study.compile":
                per["compile_calls"] += 1
                per["compile_s"] += duration
            elif name == "study.run_study":
                per["run_study_self_s"] += own
            elif name == "study.checkpoint":
                per["checkpoints"] += 1
                checkpoint_ms.append(duration * 1e3)
            elif name == "study.compact":
                compact_ms.append(duration * 1e3)
            elif name == "study.cache_get":
                per["cache_gets"] += 1
                per["cache_hits"] += int(span["attrs"].get("hit", False))
                get_ms.append(duration * 1e3)
            elif name == "study.cache_put":
                put_ms.append(duration * 1e3)
            elif name == "runtime.resolve":
                per["resolve_calls"] += 1
                per["resolve_s"] += duration
            elif name == "coupling.lp":
                per["lp_calls"] += 1
                per["lp_vars"] += span["attrs"].get("vars", 0)
                per["lp_s"] += duration
            elif name == "coupling.enumerate":
                per["enumerate_s"] += duration
                per["outcomes"] += span["attrs"].get("outcomes", 0)
            elif layer == "engine":
                backend = name.split(".", 1)[1]
                per["cells"] += 1
                if backend in busy:
                    cells[backend] += 1
                    busy[backend] += duration
                    updates[backend] += span["attrs"].get("node_updates", 0)
                else:
                    cells["other"] += 1
        if serve:
            # The client's wait outside every daemon span is the wire, the
            # queue and the event poll: all of it the serve layer's.
            wire = latency_of(key) - tracing.union_length(
                (s["start"], s["end"]) for s in spans
                if s["parent"] is None and s["name"] != "bench.job"
            )
            layer_self["serve"] += wire
            total += wire
        accounted.append(total)
    mean = (lambda value: value / jobs) if jobs else (lambda value: 0.0)
    metrics = {
        "study.compile_calls": mean(per["compile_calls"]),
        "study.compile_ms": mean(per["compile_s"]) * 1e3,
        "study.run_study_self_ms": mean(per["run_study_self_s"]) * 1e3,
        "study.checkpoints": mean(per["checkpoints"]),
        "study.checkpoint_ms_p50": common.p50(checkpoint_ms),
        "study.compact_ms_p50": common.p50(compact_ms),
        "study.cache_gets": mean(per["cache_gets"]),
        "study.cache_hits": mean(per["cache_hits"]),
        "study.cache_hit_ratio": per["cache_hits"] / per["cache_gets"] if per["cache_gets"] else 0.0,
        "study.cache_get_ms_p50": common.p50(get_ms),
        "study.cache_put_ms_p50": common.p50(put_ms),
        "runtime.resolve_calls_per_cell": per["resolve_calls"] / per["cells"] if per["cells"] else 0.0,
        "runtime.resolve_ms": mean(per["resolve_s"]) * 1e3,
        "coupling.lp_calls": mean(per["lp_calls"]),
        "coupling.lp_vars": mean(per["lp_vars"]),
        "coupling.lp_busy_s": mean(per["lp_s"]),
        "coupling.enumerate_busy_s": mean(per["enumerate_s"]),
        "coupling.support_outcomes": mean(per["outcomes"]),
    }
    for name in BACKENDS + ("other",):
        metrics[f"runtime.cells.{name}"] = mean(cells[name])
    for name in BACKENDS:
        metrics[f"engine.{name}.busy_s"] = mean(busy[name])
        metrics[f"engine.{name}.node_updates_per_s"] = updates[name] / busy[name] if busy[name] else 0.0
    for layer, value in layer_self.items():
        metrics[f"self.{layer}_ms"] = mean(value) * 1e3
    traced_mean = mean(sum(latency_of(key) for key in keys))
    metrics["trace.accounted_share"] = (
        mean(sum(accounted)) / untraced_mean if untraced_mean else 0.0
    )
    metrics["trace.overhead_share"] = traced_mean / untraced_mean - 1.0 if untraced_mean else 0.0
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401  (the start-up being measured)

    import_s = time.perf_counter() - start
    cls = {"paper-scaling": PaperScaling, "serve-mixed": ServeMixed,
           "coupling-lemma2": CouplingLemma2}[args.workload]
    workload = cls(args)
    workload.prepare()
    common.emit("ready", {"import_s": import_s})
    if args.setup_only:
        return 0
    try:
        result = measure(workload, args)
    finally:
        if isinstance(workload, ServeMixed) and workload.daemon is not None:
            workload.daemon.stop()
    common.emit("result", result)
    return 0


def measure(workload, args) -> dict:
    serve = isinstance(workload, ServeMixed)
    attempted = failed = 0
    result: dict = {}
    seconds = args.seconds / 2.0 if args.trace else args.seconds

    def run_phase(name: str, traced: bool) -> "tuple[dict, float]":
        nonlocal attempted, failed
        if serve and args.trace and not traced:
            workload.daemon = workload.start_daemon("reference", traced=False)
        elif serve:
            workload.setup_times.clear()
            workload.ready_times.clear()
            workload.daemon = workload.setups(traced)
        phase = workload.phase(seconds, name)
        if serve:
            workload.peak_rss = common.peak_rss_mib(workload.daemon.proc.pid)
        bad, work = workload.check(phase)
        if serve:
            workload.daemon.stop()
        attempted += len(phase["jobs"])
        failed += bad
        return phase, work

    phase, work = run_phase("a", traced=False)
    if not args.trace:
        metrics = e2e(phase, work)
        metrics["peak_rss_mb"] = workload.peak_rss if serve else common.peak_rss_mib()
        if serve:
            result["setup_times"] = workload.setup_times
            result["info"] = {"serve.job_latency_p90_ms": client_metrics(phase)["serve.job_latency_p90_ms"],
                              "jobs": len(phase["jobs"])}
        result["metrics"] = metrics
    else:
        untraced_mean = sum(job["latency"] for job in phase["jobs"]) / len(phase["jobs"])
        tracer = tracing.Tracer()
        workload.tracer = tracer
        tracing.install(tracer, coupling_results=getattr(workload, "lp_results", None))
        try:
            traced, _ = run_phase("b", traced=True)
        finally:
            tracer.uninstall()
        spans = [s for s in tracer.spans if s["end"] is not None]
        tracing.resolve_jobs(spans)
        by_key: "dict[str, list]" = {}
        for span in spans:
            by_key.setdefault(span["job"], []).append(span)
        latency = {job["key"]: job["latency"] for job in traced["jobs"]}
        daemon_spans: list = []
        if serve:
            with open(workload.daemon.spans_path, encoding="utf-8") as handle:
                daemon_spans = json.load(handle)["spans"]
            attached = attach_daemon_spans(traced["jobs"], daemon_spans)
            spans_of = lambda key: by_key.get(key, []) + attached.get(key, [])  # noqa: E731
        else:
            spans_of = lambda key: by_key.get(key, [])  # noqa: E731
        workload.trace_checks(spans + daemon_spans)
        metrics = layer_metrics(list(latency), latency.get, spans_of, untraced_mean, serve)
        if serve:
            metrics.update(client_metrics(traced))
            metrics["startup.daemon_ready_s"] = common.p50(workload.ready_times)
            metrics["startup.import_s"] = common.p50(workload.import_times)
        else:
            for name in client_metrics({"jobs": []}):
                metrics[name] = 0.0
            metrics["startup.daemon_ready_s"] = 0.0
        result["metrics"] = metrics
        result["spans"] = spans + daemon_spans
    result.update(attempted=attempted, failed=failed, errors=workload.errors)
    return result


if __name__ == "__main__":
    sys.exit(main())
