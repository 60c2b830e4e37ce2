"""Per-layer metrics from the spans of a traced run.

Spans come from :mod:`pifbench_trace` (one file per process).  A span
whose thread had no open span when it began is attributed to the
innermost span of its *parent process* that contains its interval: a
forked pool worker's task lands under the dispatch that was waiting for
it, a ``repro worker`` subprocess under the sweep that spawned it, and
a command the benchmark launched under the benchmark's own op span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from benchstats import self_time

#: Every per-layer metric, in report order, with its unit and the base
#: a ratio is taken over.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("cli.import_s", "s", "process start to `import repro.cli` done, summed"),
    ("cli.processes", "count", "python processes that imported repro"),
    ("tracegen.generate_s", "s", "generate_trace time during set-up"),
    ("tracegen.generated", "count", "traces generated during set-up"),
    ("tracegen.lru_hit_ratio", "ratio", "of tracegen.lru_lookups"),
    ("tracegen.lru_lookups", "count",
     "cached_trace lookups over the life of the timed processes"),
    ("trace.load_s", "s", "TraceStore.get time"),
    ("trace.loads", "count", "archives loaded"),
    ("trace.load_mb", "MB", "archive bytes loaded"),
    ("replicate.fetch_s", "s", "TraceFetcher.fetch time"),
    ("replicate.fetches", "count", "archives fetched"),
    ("replicate.mb", "MB", "bytes received"),
    ("replicate.retries", "count", "fetch attempts beyond the first"),
    ("trainplan.build_s", "s", "build_train_plan time"),
    ("trainplan.requests", "count", "train_plan_for calls"),
    ("trainplan.builds", "count", "build_train_plan calls"),
    ("trainplan.reuse_ratio", "ratio",
     "of trainplan.requests served without a build"),
    ("baseline.replay_s", "s", "replay_baseline time"),
    ("baseline.requests", "count", "measured_baseline calls"),
    ("baseline.replays", "count", "replay_baseline calls"),
    ("baseline.memo_hit_ratio", "ratio",
     "of baseline.requests served without a replay"),
    ("engine.walk_s", "s", "lane-walk self time"),
    ("engine.calls", "count", "run_multi_prefetch_simulation calls"),
    ("engine.lanes", "count", "lanes walked"),
    ("engine.lane_maccess_per_s", "M/s", "lane accesses per engine.walk_s"),
    ("timing.walk_s", "s", "run_timing_simulation self time"),
    ("timing.calls", "count", "timing walks"),
    ("timing.maccess_per_s", "M/s", "accesses per timing.walk_s"),
    ("coverage.oracle_s", "s", "oracle self time (figs 2/7/8/9)"),
    ("coverage.oracle_calls", "count", "oracle measurements"),
    ("coverage.view_events_s", "s", "build_view_events self time"),
    ("regionstats.s", "s", "region statistics time"),
    ("pool.spinup_s", "s", "dispatch to first worker task, summed"),
    ("pool.tasks", "count", "tasks run by pool workers"),
    ("pool.task_s", "s", "worker task time"),
    ("pool.busy_frac", "ratio", "of dispatch time x workers"),
    ("pool.retries", "count", "tasks rerun in isolation"),
    ("scenarios.prepare_s", "s", "prepare_sweep time"),
    ("scenarios.append_s", "s", "ResultsStore.append_all time"),
    ("scenarios.records", "count", "records appended"),
    ("scenarios.sidecar_s", "s", "baseline sidecar load + append time"),
    ("scenarios.load_s", "s", "ResultsStore.load time"),
    ("scenarios.report_s", "s", "summarize + format time"),
    ("scenarios.quarantined", "count", "points quarantined"),
    ("dist.spawn_to_lease_s", "s", "worker spawn to first granted lease"),
    ("dist.leases", "count", "leases granted"),
    ("dist.lease_wait_s", "s", "worker time asking for or idling on leases"),
    ("dist.expiries", "count", "leases expired"),
    ("dist.respawns", "count", "workers spawned beyond the fleet"),
    ("dist.transport_retries", "count", "worker posts that failed"),
    ("service.requests", "count", "HTTP requests served"),
    ("service.request_s", "s", "request handling time"),
    ("service.queue_wait_s", "s", "submit to job start, summed"),
    ("service.job_s", "s", "job run time"),
    ("service.rejected", "count", "requests answered 4xx/5xx"),
    ("traced.wall_s", "s", "wall_s of the traced run"),
    ("traced.spans", "count", "spans recorded after set-up"),
]

_DISPATCH = ("pool.map", "pool.imap")


def load_spans(span_dir: Path) -> Tuple[List[Dict[str, Any]],
                                        Dict[int, Dict[str, Any]]]:
    """All finished spans under ``span_dir`` and each process's last
    gauge snapshot."""
    spans: List[Dict[str, Any]] = []
    gauges: Dict[int, Dict[str, Any]] = {}
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry["kind"] == "span":
                spans.append(entry)
            else:
                gauges[entry["pid"]] = entry["values"]
    return spans, gauges


def resolve_parents(spans: List[Dict[str, Any]]) -> Dict[str, str]:
    """span id → parent span id, crossing threads and processes (see
    the module docstring).  Spans with no parent are left out."""
    by_pid: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_pid[span["pid"]].append(span)
    parents: Dict[str, str] = {}
    for span in spans:
        if span["parent"] is not None:
            parents[span["id"]] = span["parent"]
            continue
        best = None
        for candidate in by_pid.get(span["ppid"], ()):
            if (candidate["start"] <= span["start"]
                    and candidate["end"] >= span["end"]
                    and (best is None or (candidate["start"], -candidate["end"])
                         > (best["start"], -best["end"]))):
                best = candidate
        if best is not None:
            parents[span["id"]] = best["id"]
    return parents


def children_of(spans: List[Dict[str, Any]], parents: Dict[str, str]
                ) -> Dict[str, List[Dict[str, Any]]]:
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        parent = parents.get(span["id"])
        if parent is not None:
            children[parent].append(span)
    return children


def self_times(spans: List[Dict[str, Any]], parents: Dict[str, str]
               ) -> Dict[str, float]:
    """span id → self time (duration minus what its children cover)."""
    children = children_of(spans, parents)
    return {span["id"]: self_time(
        (span["start"], span["end"]),
        ((child["start"], child["end"]) for child in children[span["id"]]))
        for span in spans}


def within(spans: Iterable[Dict[str, Any]], window: Tuple[float, float]
           ) -> List[Dict[str, Any]]:
    """The spans that ended in ``window`` (a process's ``cli.start``
    begins at its kernel start tick, which can read a few milliseconds
    before the window opened)."""
    return [span for span in spans if window[0] <= span["end"] <= window[1]]


def _duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(spans: List[Dict[str, Any]],
                  gauges: Dict[int, Dict[str, Any]],
                  setup: Tuple[float, float],
                  timed: Tuple[float, float]) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value except ``traced.wall_s``.

    Set-up spans (the ``setup`` window) give the ``tracegen`` build
    figures; everything else counts spans that ended in the ``timed``
    window.  ``tracegen.generated_timed`` is extra: traces generated in
    the timed window, which must be 0.
    """
    parents = resolve_parents(spans)
    selfs = self_times(spans, parents)
    children = children_of(spans, parents)
    timed_spans = within(spans, timed)
    setup_spans = within(spans, setup)
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in timed_spans:
        named[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(_duration(span) for span in named[name])

    def own(name: str) -> float:
        return sum(selfs[span["id"]] for span in named[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(span["attrs"].get(key, 0) for span in named[name])

    def reuse(request: str, work: str) -> float:
        """Share of ``request`` calls that did not call ``work``."""
        calls = named[request]
        worked = sum(1 for span in calls if any(
            child["name"] == work for child in children[span["id"]]))
        return 1.0 - _ratio(worked, len(calls)) if calls else 0.0

    m: Dict[str, float] = {}
    m["cli.import_s"] = total("cli.start")
    m["cli.processes"] = len(named["cli.start"])

    generated = [s for s in setup_spans if s["name"] == "tracegen.generate"]
    m["tracegen.generate_s"] = sum(_duration(s) for s in generated)
    m["tracegen.generated"] = len(generated)
    timed_pids = {span["pid"] for span in timed_spans}
    hits = sum(gauges.get(pid, {}).get("tracegen.lru_hits", 0)
               for pid in timed_pids)
    misses = sum(gauges.get(pid, {}).get("tracegen.lru_misses", 0)
                 for pid in timed_pids)
    m["tracegen.lru_lookups"] = hits + misses
    m["tracegen.lru_hit_ratio"] = _ratio(hits, hits + misses)
    m["tracegen.generated_timed"] = len(named["tracegen.generate"])

    m["trace.load_s"] = total("trace.load")
    m["trace.loads"] = sum(1 for s in named["trace.load"] if s["attrs"].get("hit"))
    m["trace.load_mb"] = attr_sum("trace.load", "bytes") / 1e6

    m["replicate.fetch_s"] = total("replicate.fetch")
    m["replicate.fetches"] = len(named["replicate.fetch"])
    m["replicate.mb"] = attr_sum("replicate.range", "bytes") / 1e6
    m["replicate.retries"] = max(0, len(named["replicate.attempt"])
                                 - len(named["replicate.fetch"]))

    m["trainplan.build_s"] = total("trainplan.build")
    m["trainplan.requests"] = len(named["trainplan.request"])
    m["trainplan.builds"] = len(named["trainplan.build"])
    m["trainplan.reuse_ratio"] = reuse("trainplan.request",
                                       "trainplan.build")

    m["baseline.replay_s"] = total("baseline.replay")
    m["baseline.requests"] = len(named["baseline.request"])
    m["baseline.replays"] = len(named["baseline.replay"])
    m["baseline.memo_hit_ratio"] = reuse("baseline.request",
                                         "baseline.replay")

    m["engine.walk_s"] = own("engine.walk")
    m["engine.calls"] = len(named["engine.walk"])
    m["engine.lanes"] = attr_sum("engine.walk", "lanes")
    lane_accesses = sum(s["attrs"].get("lanes", 0) * s["attrs"].get("accesses", 0)
                        for s in named["engine.walk"])
    m["engine.lane_maccess_per_s"] = _ratio(lane_accesses / 1e6,
                                            m["engine.walk_s"])

    m["timing.walk_s"] = own("timing.walk")
    m["timing.calls"] = len(named["timing.walk"])
    m["timing.maccess_per_s"] = _ratio(
        attr_sum("timing.walk", "accesses") / 1e6, m["timing.walk_s"])

    m["coverage.oracle_s"] = own("coverage.oracle")
    m["coverage.oracle_calls"] = len(named["coverage.oracle"])
    m["coverage.view_events_s"] = own("coverage.view_events")
    m["regionstats.s"] = total("regionstats")

    spinup = task_seconds = capacity = 0.0
    tasks = 0
    for dispatch in (s for name in _DISPATCH for s in named[name]):
        jobs = dispatch["attrs"].get("jobs", 1)
        worker_tasks = [child for child in children[dispatch["id"]]
                        if child["name"] == "pool.task"
                        and child["pid"] != dispatch["pid"]]
        if jobs <= 1 or not worker_tasks:
            continue
        spinup += min(t["start"] for t in worker_tasks) - dispatch["start"]
        tasks += len(worker_tasks)
        task_seconds += sum(_duration(t) for t in worker_tasks)
        capacity += _duration(dispatch) * jobs
    m["pool.spinup_s"] = spinup
    m["pool.tasks"] = tasks
    m["pool.task_s"] = task_seconds
    m["pool.busy_frac"] = _ratio(task_seconds, capacity)
    m["pool.retries"] = len(named["pool.isolated"])

    m["scenarios.prepare_s"] = total("scenarios.prepare")
    m["scenarios.append_s"] = total("scenarios.append")
    m["scenarios.records"] = attr_sum("scenarios.append", "n")
    m["scenarios.sidecar_s"] = total("scenarios.sidecar")
    m["scenarios.load_s"] = total("scenarios.load")
    m["scenarios.report_s"] = total("scenarios.report")
    m["scenarios.quarantined"] = attr_sum("scenarios.quarantine", "n")

    m.update(_dist_metrics(named, spans, children))
    m.update(_service_metrics(named))
    m["traced.spans"] = len(timed_spans)
    return m


def _dist_metrics(named, spans, children) -> Dict[str, float]:
    requests_by_pid: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["name"] == "dist.lease_request":
            requests_by_pid[span["pid"]].append(span)
    spawn_to_lease = 0.0
    for spawn in named["dist.spawn"]:
        granted = [r["end"] for r in requests_by_pid.get(
            spawn["attrs"].get("child"), ())
            if r["attrs"].get("state") == "granted"]
        if granted:
            spawn_to_lease += min(granted) - spawn["start"]
    wait = 0.0
    for requests in requests_by_pid.values():
        requests.sort(key=lambda r: r["start"])
        for position, request in enumerate(requests):
            wait += _duration(request)
            if (request["attrs"].get("state") == "idle"
                    and position + 1 < len(requests)):
                wait += requests[position + 1]["start"] - request["end"]
    respawns = 0
    for local in named["dist.local"]:
        spawned = sum(1 for child in children[local["id"]]
                      if child["name"] == "dist.spawn")
        respawns += max(0, spawned - local["attrs"].get("workers", 0))
    return {
        "dist.spawn_to_lease_s": spawn_to_lease,
        "dist.leases": sum(1 for s in named["dist.grant"]
                           if s["attrs"].get("state") == "granted"),
        "dist.lease_wait_s": wait,
        "dist.expiries": sum(s["attrs"].get("n", 0)
                             for s in named["dist.expire"]),
        "dist.respawns": respawns,
        "dist.transport_retries": sum(1 for s in named["dist.post"]
                                      if "error" in s["attrs"]),
    }


def _service_metrics(named) -> Dict[str, float]:
    submitted = {s["attrs"].get("job"): s["end"]
                 for s in named["service.submit"]}
    queue_wait = sum(job["start"] - submitted[job["attrs"]["job"]]
                     for job in named["service.job"]
                     if job["attrs"].get("job") in submitted)
    requests = named["service.request"]
    return {
        "service.requests": len(requests),
        "service.request_s": sum(_duration(s) for s in requests),
        "service.queue_wait_s": queue_wait,
        "service.job_s": sum(_duration(s) for s in named["service.job"]),
        "service.rejected": sum(1 for s in requests
                                if s["attrs"].get("status", 200) >= 400),
    }


def self_time_table(spans: List[Dict[str, Any]],
                    window: Tuple[float, float]
                    ) -> Dict[str, Tuple[float, int]]:
    """layer (span-name prefix) → (self time, span count) over the
    program's spans that ended in ``window``."""
    selfs = self_times(spans, resolve_parents(spans))
    table: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in within(spans, window):
        if not span["name"].startswith("bench."):
            entry = table[span["name"].split(".")[0]]
            entry[0] += selfs[span["id"]]
            entry[1] += 1
    return {layer: (seconds, int(count))
            for layer, (seconds, count) in sorted(table.items())}
