"""Span recorder and layer wrappers for the benchmark's traced runs.

A span is one call into a layer's public entry point: its name, start
and end on the host's monotonic clock (shared by every process on the
host), the span that was open on the same thread when it began, the
process and parent-process ids, and the op id the benchmark gave the
process (``PIFBENCH_OP``).  Spans stay in memory and are appended to
``$PIFBENCH_SPAN_DIR/spans-<pid>.jsonl`` when the process exits; a
forked pool worker, which the pool may kill instead of letting it exit,
also writes its spans after every task it runs.

:func:`install` wraps the entry points listed in :data:`TARGETS`.
Callers import many of them by name (``from ..sim.engine import
run_multi_prefetch_simulation``), so a wrapper replaces the function in
every loaded ``repro`` module that holds it, not only where it is
defined; methods are replaced on their class.  Wrappers record and
return exactly what the wrapped call returns or raises, so traced runs
produce the same output bytes as untraced ones — the benchmark checks
that by digest.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import pkgutil
import threading
import time
from typing import Any, Callable, Dict, List, Optional

SPAN_DIR_ENV = "PIFBENCH_SPAN_DIR"
OP_ENV = "PIFBENCH_OP"

clock = time.monotonic


class Recorder:
    """The spans of one process, kept in memory until :meth:`flush`."""

    def __init__(self, out_dir: str, op: str,
                 gauges: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        self.out_dir = out_dir
        self.op = op
        self.gauges = gauges
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.ppid = os.getppid()
        self.finished: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def after_fork(self) -> None:
        """In a forked child: drop the parent's spans and open stack."""
        self._reset()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_op(self, op: Optional[str]) -> None:
        """Give spans begun on this thread another op id (None resets)."""
        self._local.op = op

    def _span(self, name: str, start: float, parent: Optional[str],
              attrs: Dict[str, Any]) -> Dict[str, Any]:
        return {"kind": "span", "id": f"{self.pid}.{next(self._ids)}",
                "parent": parent, "name": name, "start": start,
                "end": None, "pid": self.pid, "ppid": self.ppid,
                "tid": threading.get_ident(),
                "op": getattr(self._local, "op", None) or self.op,
                "attrs": attrs}

    def begin(self, name: str, **attrs: Any) -> Dict[str, Any]:
        stack = self._stack()
        span = self._span(name, clock(), stack[-1]["id"] if stack else None,
                          attrs)
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = clock()
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is span:
                del stack[position]
                break
        with self._lock:
            self.finished.append(span)

    def record(self, name: str, start: float, end: float,
               **attrs: Any) -> None:
        """Add a span whose interval was measured by the caller."""
        stack = self._stack()
        span = self._span(name, start, stack[-1]["id"] if stack else None,
                          attrs)
        span["end"] = end
        with self._lock:
            self.finished.append(span)

    def current(self) -> Optional[Dict[str, Any]]:
        stack = self._stack()
        return stack[-1] if stack else None

    def flush(self) -> None:
        """Append the finished spans (and the gauges) to this process's
        span file."""
        with self._lock:
            spans, self.finished = self.finished, []
        lines = [json.dumps(span) for span in spans]
        if self.gauges is not None:
            lines.append(json.dumps({"kind": "gauges", "pid": self.pid,
                                     "values": self.gauges()}))
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))


#: The process's recorder; set by :func:`install`.
RECORDER: Optional[Recorder] = None


def _annotate(after, attrs, args, kwargs, result) -> None:
    try:
        after(attrs, args, kwargs, result)
    except Exception as error:  # a probe must never fail the call
        attrs["probe_error"] = f"{type(error).__name__}: {error}"


def wrap(func: Callable, name: str, after=None, before=None,
         flush: bool = False) -> Callable:
    """A wrapper recording one ``name`` span per call of ``func``.

    ``before(args, kwargs)`` returns the span's first attributes;
    ``after(attrs, args, kwargs, result)`` adds attributes from the
    result.  With ``flush``, a process other than the one that
    installed the wrappers (a forked pool worker) writes its spans out
    after each call.
    """
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder = RECORDER
        span = recorder.begin(name, **(before(args, kwargs) if before
                                       else {}))
        try:
            result = func(*args, **kwargs)
        except BaseException as error:
            span["attrs"]["error"] = type(error).__name__
            raise
        finally:
            recorder.end(span)
            if flush and os.getpid() != recorder.root_pid:
                recorder.flush()
        if after is not None:
            _annotate(after, span["attrs"], args, kwargs, result)
        return result

    return wrapper


def wrap_generator(func: Callable, name: str, before=None) -> Callable:
    """Like :func:`wrap` for a generator function: the span runs from
    the first ``next`` until the generator finishes or is closed."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder = RECORDER
        span = recorder.begin(name, **(before(args, kwargs) if before
                                       else {}))
        try:
            yield from func(*args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


# ---------------------------------------------------------------------------
# probes: attributes taken from a call's arguments and result


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _walk_size(attrs, args, kwargs, result) -> None:
    attrs["accesses"] = len(_arg(args, kwargs, 0, "bundle").access_block)


def _engine_size(attrs, args, kwargs, result) -> None:
    _walk_size(attrs, args, kwargs, result)
    attrs["lanes"] = len(result)


def _store_get(attrs, args, kwargs, result) -> None:
    attrs["hit"] = result is not None
    if result is not None:
        store, key = args[0], _arg(args, kwargs, 1, "key")
        attrs["bytes"] = store.path_for(key).stat().st_size


def _range_bytes(attrs, args, kwargs, result) -> None:
    attrs["bytes"] = len(result[0])


def _result_len(attrs, args, kwargs, result) -> None:
    attrs["n"] = len(result)


def _result_count(attrs, args, kwargs, result) -> None:
    attrs["n"] = int(result)


def _lease_state(attrs, args, kwargs, result) -> None:
    attrs["state"] = result.get("state")


def _spawned(attrs, args, kwargs, result) -> None:
    attrs["child"] = result.pid


def _submitted(attrs, args, kwargs, result) -> None:
    attrs["job"] = result.id


def _imap_shape(args, kwargs) -> Dict[str, Any]:
    return {"jobs": int(_arg(args, kwargs, 2, "jobs", 1)),
            "items": len(_arg(args, kwargs, 1, "items"))}


def _map_shape(args, kwargs) -> Dict[str, Any]:
    return {"jobs": args[0].jobs,
            "items": len(_arg(args, kwargs, 2, "config").workloads)}


def _local_shape(args, kwargs) -> Dict[str, Any]:
    return {"workers": int(_arg(args, kwargs, 2, "workers"))}


def _append_all(func: Callable) -> Callable:
    """``ResultsStore.append_all`` takes any iterable: count it first."""
    @functools.wraps(func)
    def wrapper(self, records):
        records = list(records)
        span = RECORDER.begin("scenarios.append", n=len(records))
        try:
            return func(self, records)
        finally:
            RECORDER.end(span)

    return wrapper


def _run_job(func: Callable) -> Callable:
    """``SweepService._run_job``: spans of the job carry its id."""
    @functools.wraps(func)
    def wrapper(self, job):
        RECORDER.set_thread_op(job.id)
        span = RECORDER.begin("service.job", job=job.id)
        try:
            return func(self, job)
        finally:
            RECORDER.end(span)
            RECORDER.set_thread_op(None)

    return wrapper


def _respond(func: Callable) -> Callable:
    """The daemon's response writer: note the status on the request."""
    @functools.wraps(func)
    def wrapper(self, status, *args, **kwargs):
        span = RECORDER.current()
        if span is not None and span["name"] == "service.request":
            span["attrs"]["status"] = status
        return func(self, status, *args, **kwargs)

    return wrapper


#: (module, attribute, how to wrap it).  ``how`` is a span name for
#: :func:`wrap`, or a factory taking the original.
TARGETS = [
    ("repro.pipeline.tracegen", "generate_trace", "tracegen.generate"),
    ("repro.trace.store", "TraceStore.get",
     dict(name="trace.load", after=_store_get)),
    ("repro.trace.replicate", "TraceFetcher.fetch", "replicate.fetch"),
    ("repro.trace.replicate", "TraceFetcher._attempt", "replicate.attempt"),
    ("repro.trace.replicate", "TraceFetcher._get_range",
     dict(name="replicate.range", after=_range_bytes)),
    ("repro.sim.trainplan", "train_plan_for", "trainplan.request"),
    ("repro.sim.trainplan", "build_train_plan", "trainplan.build"),
    ("repro.sim.baseline", "measured_baseline", "baseline.request"),
    ("repro.sim.baseline", "replay_baseline", "baseline.replay"),
    ("repro.sim.engine", "run_multi_prefetch_simulation",
     dict(name="engine.walk", after=_engine_size)),
    ("repro.sim.timing", "run_timing_simulation",
     dict(name="timing.walk", after=_walk_size)),
    ("repro.sim.coverage", "measure_pif_predictability", "coverage.oracle"),
    ("repro.sim.coverage", "measure_stream_predictability",
     "coverage.oracle"),
    ("repro.sim.coverage", "build_view_events", "coverage.view_events"),
    ("repro.sim.regionstats", "density_distribution", "regionstats"),
    ("repro.sim.regionstats", "discontinuity_distribution", "regionstats"),
    ("repro.sim.regionstats", "trigger_offset_profile", "regionstats"),
    ("repro.experiments.parallel", "ExperimentPool.map_workloads",
     dict(name="pool.map", before=_map_shape)),
    ("repro.experiments.parallel", "parallel_imap",
     dict(name="pool.imap", before=_imap_shape, generator=True)),
    ("repro.experiments.parallel", "_run_indexed",
     dict(name="pool.task", flush=True)),
    ("repro.experiments.parallel", "_run_task",
     dict(name="pool.task", flush=True)),
    ("repro.experiments.parallel", "_run_isolated", "pool.isolated"),
    ("repro.scenarios.runner", "run_sweep", "scenarios.sweep"),
    ("repro.scenarios.runner", "prepare_sweep", "scenarios.prepare"),
    ("repro.scenarios.runner", "_failed_records",
     dict(name="scenarios.quarantine", after=_result_len)),
    ("repro.scenarios.results", "ResultsStore.append_all", _append_all),
    ("repro.scenarios.results", "ResultsStore.load", "scenarios.load"),
    ("repro.scenarios.results", "BaselineSidecar.load_all",
     "scenarios.sidecar"),
    ("repro.scenarios.results", "BaselineSidecar.append_missing",
     "scenarios.sidecar"),
    ("repro.scenarios.report", "summarize", "scenarios.report"),
    ("repro.scenarios.report", "format_csv", "scenarios.report"),
    ("repro.scenarios.report", "format_markdown", "scenarios.report"),
    ("repro.dist.coordinator", "run_distributed_sweep", "dist.sweep"),
    ("repro.dist.coordinator", "LeaseBoard.request_lease",
     dict(name="dist.grant", after=_lease_state)),
    ("repro.dist.coordinator", "LeaseBoard.expire_worker",
     dict(name="dist.expire", after=_result_count)),
    ("repro.dist.coordinator", "LeaseBoard.expire_stale",
     dict(name="dist.expire", after=_result_count)),
    ("repro.dist.local", "run_local_workers",
     dict(name="dist.local", before=_local_shape)),
    ("repro.dist.local", "_spawn", dict(name="dist.spawn", after=_spawned)),
    ("repro.dist.worker", "CoordinatorClient.request_lease",
     dict(name="dist.lease_request", after=_lease_state)),
    ("repro.dist.worker", "CoordinatorClient.post", "dist.post"),
    ("repro.service.service", "SweepService.submit",
     dict(name="service.submit", after=_submitted)),
    ("repro.service.service", "SweepService._run_job", _run_job),
    ("repro.service.http", "SweepRequestHandler._dispatch",
     "service.request"),
    ("repro.service.http", "SweepRequestHandler._respond", _respond),
]


def _wrapper_for(original: Callable, how) -> Callable:
    if callable(how):
        return how(original)
    options = {"name": how} if isinstance(how, str) else dict(how)
    if options.pop("generator", False):
        return wrap_generator(original, options["name"],
                              before=options.get("before"))
    return wrap(original, **options)


def _import_package(package: str) -> None:
    """Import every module of ``package`` (``__main__`` modules aside),
    so each by-name import of a target exists before patching."""
    root = importlib.import_module(package)
    for module in pkgutil.walk_packages(root.__path__, package + "."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def patch_targets(targets=TARGETS) -> int:
    """Wrap every target where it is defined and wherever a loaded
    ``repro`` module holds it by name; returns the replacements made."""
    import sys

    replaced = 0
    for module_name, path, how in targets:
        owner: Any = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        original = getattr(owner, attribute)
        wrapper = _wrapper_for(original, how)
        if classes:
            setattr(owner, attribute, wrapper)
            replaced += 1
            continue
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced += 1
    return replaced


def _process_start() -> float:
    """When this process started, on :func:`clock`'s time base (the
    kernel's start tick, so the interpreter's own start-up counts)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError, AttributeError):
        return clock()
    return clock() - max(0.0, now - started)


def _lru_gauges() -> Dict[str, Any]:
    from repro.pipeline.tracegen import cached_trace

    info = cached_trace.cache_info()
    return {"tracegen.lru_hits": info.hits,
            "tracegen.lru_misses": info.misses}


def install() -> None:
    """Record the process start and ``import repro.cli`` as the
    ``cli.start`` span, then wrap every target (see module docstring)."""
    global RECORDER
    started = _process_start()
    RECORDER = Recorder(os.environ[SPAN_DIR_ENV],
                        os.environ.get(OP_ENV, "op"), gauges=_lru_gauges)
    import repro.cli  # noqa: F401 - the import being measured

    RECORDER.record("cli.start", started, clock())
    _import_package("repro")
    patch_targets()
    os.register_at_fork(after_in_child=RECORDER.after_fork)
    atexit.register(RECORDER.flush)
