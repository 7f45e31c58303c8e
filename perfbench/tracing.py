"""In-memory spans around the program's public functions.

The benchmark measures each layer from outside: :func:`install` replaces
module attributes (the functions the layers call each other through) with
wrappers that record a span per call, and :func:`uninstall` puts the
originals back.  Nothing inside ``src/`` changes.

A span is ``(id, name, start, end, parent, job, thread, attrs)`` with
``time.monotonic()`` timestamps, which are comparable across the
processes of one host (the daemon writes its spans to a file that the
load process merges).  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

#: Layer of a span name: the text before the first dot.
LAYERS = ("serve", "study", "runtime", "engine", "coupling")


class Tracer:
    def __init__(self):
        self.spans: "list[dict]" = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._patched: "list[tuple[object, str, object]]" = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job: "str | None" = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next += 1
            span_id = self._next
        span = {
            "id": span_id,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "job": job if job is not None else (parent["job"] if parent else None),
            "thread": threading.get_ident(),
            "attrs": {},
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name, fn, after=None, job_of=None):
        """``fn`` recorded as span ``name``.

        ``after(span, args, kwargs, result)`` may add attributes once the
        call returns; ``job_of(args, kwargs)`` names the job up front.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name, job_of(args, kwargs) if job_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["attrs"]["raised"] = True
                self.end(span)
                raise
            if after is not None:
                after(span, args, kwargs, result)
            self.end(span)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        # A bound method read off an instance is restored by deleting the
        # shadowing instance attribute, not by pinning the bound method.
        own = attr in vars(owner)
        self._patched.append((owner, attr, original if own else None))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


# -- the wrappers -----------------------------------------------------------


def _node_updates(span, args, kwargs, result) -> None:
    """Engine spans: Σ rounds × n over replicas, and the final counts law."""
    n = int(result.plan.initial.num_nodes)
    span["attrs"]["backend"] = result.backend
    span["attrs"]["node_updates"] = int(result.times.sum()) * n
    final = result.final_counts
    if final is not None:
        final = final.reshape(-1, final.shape[-1])
        span["attrs"]["single_color"] = bool(((final > 0).sum(axis=1) == 1).all())


def _cache_hit(span, args, kwargs, result) -> None:
    span["attrs"]["hit"] = result is not None


def _lp(span, args, kwargs, result) -> None:
    span["attrs"]["vars"] = int(result.admissible_pairs)
    span["attrs"]["feasible"] = bool(result.feasible)


def _support(span, args, kwargs, result) -> None:
    span["attrs"]["outcomes"] = len(result)


def _job_from_store_path(args, kwargs) -> "str | None":
    path = kwargs.get("store_path")
    if not path:
        return None
    return os.path.basename(path).split(".", 1)[0]


def _job_from_view(span, args, kwargs, result) -> None:
    span["job"] = result.get("id")


def install(tracer: Tracer, *, daemon: bool = False, coupling_results=None) -> None:
    """Wrap the public functions each layer is entered through.

    ``daemon=True`` adds the job manager's entry points (the launcher);
    ``coupling_results`` (a list) collects every LP's result so the caller
    can verify the joint laws once the timed phase is over.
    """
    # ``repro.study`` names the api function on the package, so the
    # submodules are looked up by their full names.
    api, coupling, runtime, compile_mod, runner = (
        importlib.import_module(f"repro.{name}")
        for name in ("api", "core.coupling", "engine.runtime", "study.compile", "study.runner")
    )
    from repro.study.cache import ResultCache
    from repro.study.store import StudyStore

    tracer.patch(api, "run_study", "study.run_study")
    tracer.patch(runner, "compile_study", "study.compile")
    tracer.patch(compile_mod, "compile_study", "study.compile")
    tracer.patch(runner, "resolve_backend", "runtime.resolve")
    tracer.patch(runtime, "resolve_backend", "runtime.resolve")
    tracer.patch(runner, "execute", "runtime.execute")
    for name in runtime.backend_names():
        backend = runtime.get_backend(name)
        tracer.patch(backend, "execute", f"engine.{name}", after=_node_updates)
    tracer.patch(StudyStore, "begin_journal", "study.begin_journal")
    tracer.patch(StudyStore, "checkpoint", "study.checkpoint")
    tracer.patch(StudyStore, "compact", "study.compact")
    tracer.patch(ResultCache, "get", "study.cache_get", after=_cache_hit)
    tracer.patch(ResultCache, "put", "study.cache_put")

    def lp_after(span, args, kwargs, result):
        _lp(span, args, kwargs, result)
        if coupling_results is not None:
            coupling_results.append(result)

    tracer.patch(coupling, "strassen_coupling", "coupling.lp", after=lp_after)
    tracer.patch(coupling, "one_step_distribution", "coupling.enumerate", after=_support)
    tracer.patch(coupling, "run_coupled_chains", "coupling.run_coupled_chains")
    if daemon:
        jobs = importlib.import_module("repro.serve.jobs")

        tracer.patch(jobs, "run_study", "study.run_study", job_of=_job_from_store_path)
        tracer.patch(jobs.JobManager, "submit", "serve.submit", after=_job_from_view)
    else:
        from repro.serve.client import ServeClient

        tracer.patch(ServeClient, "submit", "serve.client.submit")


# -- analysis ---------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Span id → duration minus the part of it its children cover."""
    children: "dict[int, list]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        covered = union_length(
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], [])
            if e > span["start"] and s < span["end"]
        )
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def resolve_jobs(spans: "list[dict]") -> None:
    """Give each span the job of its nearest ancestor that has one."""
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        node = span
        while node["job"] is None and node["parent"] is not None:
            node = by_id.get(node["parent"])
            if node is None:
                break
        span["job"] = node["job"] if node is not None else None
