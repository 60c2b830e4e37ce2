"""The benchmark's arithmetic: medians and tails, host-speed probes and
scaling, self time, failure accounting and output digests.  Unit-tested
in ``test_pifbench.py``."""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: The process probe's command line: a fresh interpreter, isolated from
#: the environment (so from the program and the tracing hook), that
#: imports numpy.
PROBE_ARGS = ("-I", "-c", "import numpy")
#: Iterations of the interpreter probe's loop.
PROBE_ROUNDS = 300_000
#: Seconds each probe takes at the reference host speed every reported
#: time is scaled to.
PROBE_NOMINAL_S = {"process": 0.15, "interpreter": 0.025}


class Tail(NamedTuple):
    """A tail latency: ``value`` is the ``percentile``-th of ``count``
    samples, with ``beyond`` samples above it."""

    value: float
    percentile: float
    count: int
    beyond: int


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile with at least ``beyond`` samples above it.

    Percentiles are nearest-rank: the k-th smallest of n samples is the
    100·k/n-th percentile and has n − k samples above it, so the answer
    is the (n − beyond)-th smallest.  With ``beyond`` or fewer samples
    no percentile qualifies; the maximum is returned with ``beyond`` 0,
    so a short run reports its worst sample rather than nothing.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    count = len(ordered)
    rank = count - beyond
    if rank < 1:
        return Tail(ordered[-1], 100.0, count, 0)
    return Tail(ordered[rank - 1], 100.0 * rank / count, count, beyond)


# ---------------------------------------------------------------------------
# host speed


def probe_process() -> float:
    """Wall seconds of one fixed process: start an isolated interpreter
    and import numpy.  Process start-up, imports and page faults are
    where a shared host's speed swings most, and each op that starts a
    program process pays them too."""
    started = time.perf_counter()
    subprocess.run([sys.executable, *PROBE_ARGS], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def probe_interpreter() -> float:
    """Wall seconds of a fixed pure-Python loop in this process: the
    speed of work in a process that is already running, such as a job
    in a warm daemon."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ROUNDS):
        total += value * value % 7
    return time.perf_counter() - started


#: The probes by kind.  Neither runs program code, so a change to the
#: program cannot move them.
PROBES = {"process": probe_process, "interpreter": probe_interpreter}


def speed_factor(probes: Sequence[float], kind: str = "process") -> float:
    """What a time measured alongside ``probes`` of ``kind`` is
    multiplied by to give the time at the reference host speed (where
    one probe takes ``PROBE_NOMINAL_S[kind]``): nominal over the median.

    A shared host's speed swings by tens of percent within seconds;
    probes taken right before and after an op swing with it, so the
    scaled time keeps the op's cost and drops most of the swing.
    """
    return PROBE_NOMINAL_S[kind] / median(probes)


# ---------------------------------------------------------------------------
# self time


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``
    (each clipped to the interval; overlaps counted once)."""
    start, end = interval
    clipped = sorted((max(start, a), min(end, b)) for a, b in children
                     if min(end, b) > max(start, a))
    total = 0.0
    reach = start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_time(interval: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover.

    Children may run in other processes and overlap each other (two
    pool workers under one dispatch): only the union counts, so a
    parent that waited on parallel children is charged for none of the
    time at least one of them was running.
    """
    return (interval[1] - interval[0]) - covered(interval, children)


# ---------------------------------------------------------------------------
# failures


class Failures:
    """Attempted and failed op counts, with the reason for each failure.

    An op fails when its process exits non-zero, a point is
    quarantined, a daemon job ends in any state but ``done``, a resume
    computes a point, or its output digest mismatches.  One op that
    fails several ways counts once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: List[str] = []
        self._failed_ops = set()

    def attempt(self) -> int:
        """Count one op; returns its index for :meth:`fail`."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        self._failed_ops.add(op)
        self.reasons.append(reason)

    def check(self, op: int, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(op, reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    @property
    def fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# digests


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_records(records: Iterable[Dict[str, Any]]) -> str:
    """Digest of a sweep store's per-point metrics: ``(hash, metrics)``
    pairs, sorted by point hash, as canonical JSON.  Provenance fields
    (kernel, generator) are left out: the digest covers what was
    simulated, so a host-speed change must leave it unchanged."""
    pairs = sorted((record["hash"], record["metrics"]) for record in records)
    return digest_text(json.dumps(pairs, sort_keys=True,
                                  separators=(",", ":")))


def load_records(path) -> List[Dict[str, Any]]:
    """The newest record per point of a ``results.jsonl`` file."""
    latest: Dict[str, Dict[str, Any]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                latest[record["hash"]] = record
    return list(latest.values())

