#!/usr/bin/env python3
"""The repository's benchmark: three user paths, end to end and per layer.

Usage (from the repository root)::

    python3 pifbench/run.py --workload sweep-small --seed 1 --seconds 10
    python3 pifbench/run.py --workload sweep-small --trace 1
    python3 pifbench/run.py            # every workload, untraced then traced

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``figures``     — fresh ``python -m repro.experiments --quick
  --no-ablations --jobs 2`` processes cycling through
  :data:`FIGURES_SEEDS` trace seeds, each followed by a ``--figures
  fig3`` rerun, the runner's read-only pass over the warm trace store;
* ``sweep-small`` — one closed-loop client running fresh ci-smoke-scale
  ``repro sweep run`` processes, cycling inline, ``--jobs 2`` and
  ``--transport local --workers 2`` with an empty worker store; every
  fifth op (:data:`RESUMES`) is followed by a resume rerun, so the
  resumed ops rotate through the three transports;
* ``serve``       — one ``repro serve --jobs 1`` daemon and two
  closed-loop client threads submitting small ``timing: true`` specs,
  polling every :data:`POLL_SECONDS` until ``done``, then fetching the
  CSV report, in rounds of the twelve specs; after each round each of
  its jobs' reports is fetched again on the idle daemon (the
  ``resume`` samples).

An op is one fresh process (one daemon job for ``serve``).  A run does
set-up, one untimed warm-up pass, then a fixed number of ops scaled by
``--seconds`` (the *timed part*).  The read-path reruns are interleaved
with the fresh ops, so their samples span the run as the ops' do, but
``wall_s`` leaves them out: it and ``sim_minstr_per_s`` cover the
fresh ops only.

Every time is reported at a reference host speed.  A shared host's
speed swings by tens of percent within seconds, which would swamp the
program's own changes, so each op (each round for ``serve``) runs
between two host-speed probes that run no program code
(:data:`benchstats.PROBES`), and its time is scaled by the probe's
reference time over their mean (:meth:`Bench.probed`).  The raw times
and the factors go to the ledger.  End-to-end metrics:

* ``setup_s`` — median of :data:`SETUP_BUILDS` cold builds of the
  workload's traces into a fresh benchmark-owned store (``repro traces
  build``), plus the warm-up pass (it writes the train-plan sidecars
  and fills the page cache), plus daemon start for ``serve``;
* ``wall_s`` — wall clock of the fresh ops of the timed part (of its
  rounds, for ``serve``), reruns left out;
* ``sim_minstr_per_s`` — trace instructions of the computed points
  (for ``figures``: of the six quick traces, once per op) per second
  of ``wall_s``, in millions;
* ``latency_p50_s`` / ``latency_tail_s`` — median and tail op latency
  (the tail is the highest percentile with at least ten samples above
  it; the percentile and sample count are printed beside it);
* ``resume_p50_s`` — median of the read-path reruns, which must compute
  nothing;
* ``peak_rss_mb`` — largest RSS of any process of a timed op (for
  ``serve``: the daemon's RSS at the end of the timed part).

Ops that fail — non-zero exit, quarantined point, job not ``done``,
a resume that computes, or an output digest that differs from the
warm-up pass — are counted in ``failed`` and make the exit code 1, as
does a trace generated after set-up.

``--trace 1`` runs the same workload with span wrappers installed in
every launched process (``hook/``) and reports the per-layer metrics
of :mod:`benchlayers` instead.  The warm-up pass always runs untraced,
so matching digests show tracing changed no output.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run is also appended, with a host
fingerprint, to ``.pifbench/ledger.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE / "hook"))

import benchlayers  # noqa: E402
import benchstats  # noqa: E402
import pifbench_trace  # noqa: E402

WORKLOADS = ("figures", "sweep-small", "serve")

#: Ops per 10 seconds of ``--seconds``, and the fewest ops a run makes.
#: sweep-small and serve keep at least :data:`TAIL_OPS`, so their latency
#: tail lies well above the median.
OPS_PER_10S = {"figures": 6, "sweep-small": 36, "serve": 144}
TAIL_OPS = 36
MIN_OPS = {"figures": 3, "sweep-small": TAIL_OPS, "serve": TAIL_OPS}

#: Trace length per core (small enough for a run to take about half a
#: minute on a 2-CPU host).
FIGURES_INSTRUCTIONS = 20_000
#: Trace seeds a ``figures`` run cycles its ops through: the figures'
#: cost differs by up to a fifth from one trace seed to the next, so a
#: run averages over several.
FIGURES_SEEDS = 3

SETUP_BUILDS = 2
#: A probe taken less than this many seconds before an op is the op's
#: probe-before (see :meth:`Bench.probed`).
PROBE_REUSE_S = 1.0
POLL_SECONDS = 0.02
#: Read-path reruns: (reruns after each resumed op, resume every how
#: many-th op).  sweep-small resumes every fifth op, which rotates
#: through its three transports.
RESUMES = {"figures": (1, 1), "sweep-small": (1, 5)}
SERVE_CLIENTS = 2
OP_TIMEOUT = 150.0
TERMINAL = ("done", "failed", "cancelled", "degraded")

clock = time.monotonic


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken set-up)."""


# ---------------------------------------------------------------------------
# seeded inputs


def _template(name: str) -> Dict[str, Any]:
    import yaml

    path = ROOT / "examples" / "scenarios" / f"{name}.yaml"
    return yaml.safe_load(path.read_text(encoding="utf-8"))


def trace_seed(template_seed: int, seed: int) -> int:
    """The trace seed for benchmark seed ``seed``: the template's own
    seed at seed 42, so seed 42 reproduces the checked-in specs."""
    return (template_seed - 42 + seed) % 2 ** 31


def small_spec(seed: int) -> Dict[str, Any]:
    """``examples/scenarios/ci-smoke.yaml`` with the seed applied."""
    spec = _template("ci-smoke")
    spec["sweep"]["seeds"] = trace_seed(spec["sweep"]["seeds"], seed)
    return spec


def serve_specs(seed: int) -> List[Dict[str, Any]]:
    """The daemon's 12 specs: the small spec on each of the six
    workloads, at two trace seeds."""
    base = small_spec(seed)
    first = base["sweep"]["seeds"]
    specs = []
    for workload in _template("sab-ablation")["sweep"]["workloads"]:
        for trace in (first, first + 1):
            spec = json.loads(json.dumps(base))
            spec["name"] = f"serve-{workload}-{trace}"
            spec["sweep"]["workloads"] = [workload]
            spec["sweep"]["seeds"] = trace
            specs.append(spec)
    return specs


def serve_union_spec(seed: int) -> Dict[str, Any]:
    """One spec whose points are the union of :func:`serve_specs`."""
    spec = small_spec(seed)
    first = spec["sweep"]["seeds"]
    spec["name"] = "serve-union"
    spec["sweep"]["workloads"] = _template("sab-ablation")["sweep"]["workloads"]
    spec["sweep"]["seeds"] = [first, first + 1]
    return spec


def op_count(workload: str, seconds: int) -> int:
    count = max(MIN_OPS[workload], round(OPS_PER_10S[workload] * seconds / 10))
    # figures ops come in whole cycles of its trace seeds, sweep-small
    # ops in whole transport cycles, serve ops in whole rounds of its
    # twelve specs.
    count += -count % {"figures": FIGURES_SEEDS, "sweep-small": 3,
                       "serve": 12}.get(workload, 1)
    return count


def resumed_ops(workload: str, count: int) -> List[int]:
    """Indices of the fresh ops that are followed by reruns."""
    every = RESUMES[workload][1]
    return [index for index in range(count) if index % every == every - 1]


# ---------------------------------------------------------------------------
# the run


class Bench:
    """One run of one workload: processes, samples and checks."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 traced: bool, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.failures = benchstats.Failures()
        self.latencies: List[float] = []
        self.resumes: List[float] = []
        self.peak_rss_kb = 0
        self.instructions = 0
        self.digests: Dict[str, str] = {}
        self.loop: Dict[str, Any] = {}
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.probes: Dict[str, List[float]] = {
            kind: [] for kind in benchstats.PROBES}
        self._probed_at: Dict[str, float] = {}
        #: (what, raw wall seconds, speed factor) of each probed stretch,
        #: and the sum of their scaled seconds.
        self.scalings: List[Tuple[str, float, float]] = []
        self.scaled_s = 0.0
        self.windows: Dict[str, Tuple[float, float]] = {}
        self.store = work / "store"
        self.span_dir = work / "spans"
        self.recorder: Optional[pifbench_trace.Recorder] = None
        if traced:
            self.span_dir.mkdir(parents=True)
            self.recorder = pifbench_trace.Recorder(str(self.span_dir),
                                                    "bench")
            pifbench_trace.RECORDER = self.recorder
        self.layers: Dict[str, Tuple[float, int]] = {}
        self._ops = 0

    def calibrate(self, kind: str) -> float:
        """Take one host-speed probe (only while no op is running)."""
        self.probes[kind].append(benchstats.PROBES[kind]())
        self._probed_at[kind] = clock()
        return self.probes[kind][-1]

    def probed(self, what: str, body: Callable[[], Any],
               kind: str = "process") -> Tuple[Any, float, float]:
        """Run ``body`` between two host-speed probes of ``kind``: (its
        result, its wall seconds, the factor that scales them to the
        reference host speed).  The probe before is the last one taken
        when that ended just now, so back-to-back ops share probes.

        Ops that start program processes take ``process`` probes; the
        daemon's jobs, which run in a warm process, ``interpreter``
        ones: each probe swings with its own kind of work, and the two
        kinds do not always swing together.
        """
        recent = (kind in self._probed_at
                  and clock() - self._probed_at[kind] < PROBE_REUSE_S)
        before = self.probes[kind][-1] if recent else self.calibrate(kind)
        started = clock()
        result = body()
        seconds = clock() - started
        factor = benchstats.speed_factor([before, self.calibrate(kind)],
                                         kind)
        self.scalings.append((what, seconds, factor))
        self.scaled_s += seconds * factor
        return result, seconds, factor

    # -- processes ---------------------------------------------------------

    def env(self, traced: Optional[bool] = None, op: str = "op",
            store: Optional[Path] = None) -> Dict[str, str]:
        traced = self.traced if traced is None else traced
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("REPRO_", "PIFBENCH_"))}
        path = [str(ROOT / "src")]
        if traced:
            path.insert(0, str(HERE / "hook"))
            env[pifbench_trace.SPAN_DIR_ENV] = str(self.span_dir)
            env[pifbench_trace.OP_ENV] = op
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["REPRO_TRACE_STORE"] = str(store if store is not None
                                       else self.store)
        return env

    def launch(self, args: List[str], env: Dict[str, str]
               ) -> Tuple[int, str, float, int]:
        """Run ``python <args>`` to completion: (exit code, stdout,
        seconds at the reference host speed, max RSS in KB of the
        process and its descendants)."""
        self._ops += 1
        out_path = self.work / f"op{self._ops}.out"
        err_path = self.work / f"op{self._ops}.err"
        (code, usage), seconds, factor = self.probed(
            " ".join(args[:4]), lambda: self._run(args, env, out_path,
                                                  err_path))
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")
            print(f"[{self.workload}] exit {code}: "
                  f"{' '.join(args)}\n{tail[-2000:]}", file=sys.stderr)
        return code, stdout, seconds * factor, usage.ru_maxrss

    def _run(self, args: List[str], env: Dict[str, str], out_path: Path,
             err_path: Path) -> Tuple[int, Any]:
        span = (self.recorder.begin("bench.op", args=" ".join(args[:4]))
                if self.recorder else None)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            process = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                       env=env, stdout=out, stderr=err)
            watchdog = threading.Timer(OP_TIMEOUT, process.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                process.kill()
                process.wait()
                raise
            finally:
                watchdog.cancel()
        if span is not None:
            self.recorder.end(span)
        return os.waitstatus_to_exitcode(status), usage

    def python(self, args: List[str], **env_options) -> str:
        """Run an untimed helper command; its stdout.  Raises if it
        fails."""
        code, stdout, _, _ = self.launch(args, self.env(**env_options))
        if code != 0:
            raise BenchError(f"`python {' '.join(args)}` exited {code}")
        return stdout

    # -- phases -------------------------------------------------------------

    def phase(self, name: str, body: Callable[[], Any]) -> float:
        """Run one phase of the run; the seconds, at the reference host
        speed, of the probed stretches in it."""
        span = (self.recorder.begin(f"bench.{name}")
                if self.recorder else None)
        started, scaled = clock(), self.scaled_s
        body()
        self.windows[name] = (started, clock())
        if span is not None:
            self.recorder.end(span)
        return self.scaled_s - scaled

    def build_traces(self, builds: List[List[str]]) -> float:
        """Median of :data:`SETUP_BUILDS` cold builds of the traces
        (each ``builds`` entry is one ``repro traces build`` argument
        list); the last build's store is the one the run uses."""
        samples = []
        for attempt in range(SETUP_BUILDS):
            store = self.work / f"store-build{attempt}"
            scaled = self.scaled_s
            for build in builds:
                self.python(["-m", "repro", "traces", "build",
                             "--store", str(store), "--jobs", "2", *build],
                            op=f"setup{attempt}", store=store)
            samples.append(self.scaled_s - scaled)
            if attempt + 1 < SETUP_BUILDS:
                shutil.rmtree(store)
        store.rename(self.store)
        return benchstats.median(samples)

    def store_archives(self) -> List[str]:
        return sorted(path.name for path in self.store.glob("*.npz"))

    def measure(self, timed: Callable[[], Any]) -> None:
        """The timed part: fresh ops with their read-path reruns.  The
        workload adds its fresh ops' time to ``wall_s``.  A trace
        generated in it fails the run."""
        before = self.store_archives()
        self.phase("timed", timed)
        op = self.failures.attempt()
        self.failures.check(op, self.store_archives() == before,
                            "traces were generated after set-up")

    # -- checks -------------------------------------------------------------

    def check_digest(self, op: int, key: str, digest: str) -> None:
        """Fail ``op`` unless ``digest`` equals the first one recorded
        under ``key`` (the warm-up pass's)."""
        reference = self.digests.setdefault(key, digest)
        self.failures.check(op, digest == reference,
                            f"{key}: digest {digest} != {reference}")

    def timed_op(self, args: List[str], label: str) -> Tuple[int, str, float]:
        """Launch one op; count it, its RSS, and a non-zero exit."""
        op = self.failures.attempt()
        code, stdout, seconds, rss_kb = self.launch(
            args, self.env(op=f"{label}-{op}"))
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        self.failures.check(op, code == 0, f"{label}: exit {code}")
        return op, stdout, seconds


def _computed(stdout: str) -> Optional[int]:
    for line in stdout.splitlines():
        if " points computed, " in line:
            return int(line.split()[0])
    return None


def _sweep_check(bench: Bench, op: int, stdout: str, expected: int,
                 out: Path, label: str) -> None:
    computed = _computed(stdout)
    if bench.failures.check(op, computed == expected,
                            f"{label}: computed {computed}, "
                            f"expected {expected}"):
        bench.check_digest(op, "store", benchstats.digest_records(
            benchstats.load_records(out / "results.jsonl")))


# ---------------------------------------------------------------------------
# workloads


def figures_seeds(seed: int) -> List[int]:
    """The trace seeds of a ``figures`` run, distinct for every ``seed``."""
    return [seed * FIGURES_SEEDS + index for index in range(FIGURES_SEEDS)]


def run_figures(bench: Bench) -> None:
    n = str(FIGURES_INSTRUCTIONS)
    seeds = figures_seeds(bench.seed)

    def full(seed: int) -> List[str]:
        return ["-m", "repro.experiments", "--quick", "--no-ablations",
                "--jobs", "2", "--instructions", n, "--seed", str(seed)]

    def read(seed: int) -> List[str]:
        return ["-m", "repro.experiments", "--quick", "--figures", "fig3",
                "--instructions", n, "--seed", str(seed)]

    def setup() -> None:
        build = bench.build_traces([["--quick", "--instructions", n,
                                     "--seed", str(seed)] for seed in seeds])
        warm = bench.phase("warmup", warmup)
        bench.setup_s = build + warm

    def warmup() -> None:
        for seed in seeds:
            bench.digests[f"tables{seed}"] = benchstats.digest_text(
                bench.python(full(seed), traced=False))
            bench.digests[f"fig3-{seed}"] = benchstats.digest_text(
                bench.python(read(seed), traced=False))

    count = op_count("figures", bench.seconds)

    def timed() -> None:
        for index in range(count):
            seed = seeds[index % len(seeds)]
            op, stdout, seconds = bench.timed_op(full(seed), "figures")
            bench.latencies.append(seconds)
            bench.wall_s += seconds
            bench.instructions += 6 * FIGURES_INSTRUCTIONS
            bench.check_digest(op, f"tables{seed}",
                               benchstats.digest_text(stdout))
            for _ in range(RESUMES["figures"][0]):
                op, stdout, seconds = bench.timed_op(read(seed), "fig3")
                bench.resumes.append(seconds)
                bench.check_digest(op, f"fig3-{seed}",
                                   benchstats.digest_text(stdout))

    bench.phase("setup", setup)
    bench.loop = {"loop": "closed", "clients": 1, "trace_seeds": seeds}
    bench.measure(timed)


def _sweep_workload(bench: Bench, spec: Dict[str, Any],
                    builds: List[List[str]], transports: List[List[str]],
                    label: str) -> None:
    spec_path = bench.work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    per_point = spec["sweep"]["instructions"]
    points = 0

    def command(out: Path, transport: List[str]) -> List[str]:
        return ["-m", "repro", "sweep", "run", "--spec", str(spec_path),
                "--out", str(out), *transport]

    def setup() -> None:
        build = bench.build_traces(builds)
        warm = bench.phase("warmup", warmup)
        bench.setup_s = build + warm

    def warmup() -> None:
        nonlocal points
        out = bench.work / "out-warmup"
        stdout = bench.python(command(out, transports[0]), traced=False)
        points = _computed(stdout) or 0
        if not points:
            raise BenchError(f"{label} warm-up computed no points")
        _sweep_check(bench, bench.failures.attempt(), stdout, points, out,
                     f"{label} warm-up")

    count = op_count(label, bench.seconds)
    reruns = RESUMES[label][0]
    resumed = set(resumed_ops(label, count))

    def timed() -> None:
        for index in range(count):
            replica = bench.work / f"ws{index}"
            transport = [part.replace("{work}", str(replica))
                         for part in transports[index % len(transports)]]
            out = bench.work / f"out{index}"
            op, stdout, seconds = bench.timed_op(command(out, transport),
                                                 label)
            bench.latencies.append(seconds)
            bench.wall_s += seconds
            bench.instructions += points * per_point
            _sweep_check(bench, op, stdout, points, out, label)
            for _ in range(reruns if index in resumed else 0):
                op, stdout, seconds = bench.timed_op(
                    command(out, transport), f"{label} resume")
                bench.resumes.append(seconds)
                bench.failures.check(op, _computed(stdout) == 0,
                                     f"{label} resume computed "
                                     f"{_computed(stdout)} points")
            shutil.rmtree(out)
            shutil.rmtree(replica, ignore_errors=True)

    bench.phase("setup", setup)
    bench.loop = {"loop": "closed", "clients": 1,
                  "transports": [" ".join(t) or "inline" for t in transports],
                  "resumed": len(resumed)}
    bench.measure(timed)


def run_sweep_small(bench: Bench) -> None:
    spec = small_spec(bench.seed)
    sweep = spec["sweep"]
    _sweep_workload(
        bench, spec,
        [["--workloads", ",".join(sweep["workloads"]),
          "--instructions", str(sweep["instructions"]),
          "--cores", str(sweep["cores"]), "--seed", str(sweep["seeds"])]],
        [[], ["--jobs", "2"],
         ["--transport", "local", "--workers", "2",
          "--worker-store", "{work}"]], "sweep-small")


class _Daemon:
    """A ``repro serve`` process and a tiny HTTP client for it."""

    def __init__(self, bench: Bench) -> None:
        self.data = bench.work / "serve-data"
        self.log_path = bench.work / "serve.log"
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--data-dir",
             str(self.data), "--port", "0", "--jobs", "1"],
            cwd=ROOT, env=bench.env(op="serve"), stdout=subprocess.DEVNULL,
            stderr=self._log)
        self.base = self._wait_for_port()

    def _wait_for_port(self) -> str:
        deadline = clock() + 60.0
        while clock() < deadline:
            if self.process.poll() is not None:
                raise BenchError("repro serve exited at start")
            for line in self.log_path.read_text(errors="replace").splitlines():
                if '"serve-started"' in line:
                    event = json.loads(line)
                    return f"http://{event['host']}:{event['port']}"
            time.sleep(0.01)
        raise BenchError("repro serve did not start within 60 s")

    def call(self, method: str, path: str, body: Optional[bytes] = None
             ) -> bytes:
        request = urllib.request.Request(
            self.base + path, data=body, method=method,
            headers={"Content-Type": "application/json"} if body else {})
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.read()

    def round_trip(self, spec: Dict[str, Any]
                   ) -> Tuple[Dict[str, Any], str]:
        """Submit, poll until terminal, fetch the CSV: (the job's last
        status document, csv)."""
        job = json.loads(self.call("POST", "/v1/sweeps",
                                   json.dumps(spec).encode()))
        while job["state"] not in TERMINAL:
            time.sleep(POLL_SECONDS)
            job = json.loads(self.call("GET", f"/v1/sweeps/{job['id']}"))
        report = self.call("GET", f"/v1/sweeps/{job['id']}/report?format=csv")
        return job, report.decode()

    def rss_kb(self) -> int:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
        return 0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def run_serve(bench: Bench) -> None:
    specs = serve_specs(bench.seed)
    first = specs[0]["sweep"]["seeds"]
    instructions = specs[0]["sweep"]["instructions"]
    count = op_count("serve", bench.seconds)
    # The ops come in rounds, each a seeded shuffle of the twelve specs,
    # so every round holds the same mix of job costs on every seed.
    rng = random.Random(bench.seed)
    draws: List[int] = []
    while len(draws) < count:
        deck = list(range(len(specs)))
        rng.shuffle(deck)
        draws.extend(deck)
    daemon: Optional[_Daemon] = None
    warm_jobs: Dict[int, str] = {}
    finished: List[Tuple[str, int, int]] = []
    lock = threading.Lock()
    # Raw latencies of the round the clients are running.
    in_round: List[float] = []

    def setup() -> None:
        build = bench.build_traces(
            [["--quick", "--instructions", str(instructions),
              "--seed", str(trace)] for trace in (first, first + 1)])
        _, seconds, factor = bench.probed("serve start", start,
                                          "interpreter")
        bench.setup_s = build + seconds * factor

    def start() -> None:
        nonlocal daemon
        daemon = _Daemon(bench)
        bench.phase("warmup", warmup)

    def warmup() -> None:
        for index, spec in enumerate(specs):
            job, csv = daemon.round_trip(spec)
            op = bench.failures.attempt()
            if bench.failures.check(op, job["state"] == "done",
                                    f"serve warm-up job {job['state']}"):
                bench.digests[f"csv{index}"] = benchstats.digest_text(csv)
                warm_jobs[index] = job["id"]

    def client(cursor) -> None:
        while True:
            with lock:
                index = next(cursor, None)
                if index is None:
                    return
                op = bench.failures.attempt()
            spec_index = draws[index]
            started = clock()
            try:
                job, csv = daemon.round_trip(specs[spec_index])
            # A client thread must finish its share of ops whatever one
            # op raised; the op is counted as failed with its reason.
            except Exception as error:  # noqa: BLE001
                with lock:
                    bench.failures.fail(op, f"serve: {error}")
                continue
            ended = clock()
            with lock:
                in_round.append(ended - started)
                bench.instructions += job["sweep"]["computed"] * instructions
                if bench.failures.check(op, job["state"] == "done",
                                        f"serve job {job['state']}"):
                    bench.check_digest(op, f"csv{spec_index}",
                                       benchstats.digest_text(csv))
                    finished.append((job["id"], spec_index, op))

    def run_round(first_op: int) -> None:
        cursor = iter(range(first_op, first_op + len(specs)))
        threads = [threading.Thread(target=client, args=(cursor,))
                   for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def timed() -> None:
        """The clients drain one round of jobs at a time; between
        rounds, with the daemon idle, the round's reports are fetched
        again and the host-speed probes run."""
        for first_op in range(0, count, len(specs)):
            in_round.clear()
            done = len(finished)
            _, seconds, factor = bench.probed(
                "serve round", lambda: run_round(first_op), "interpreter")
            bench.wall_s += seconds * factor
            bench.latencies.extend(latency * factor for latency in in_round)
            samples, _, factor = bench.probed(
                "serve reread", lambda: reread(finished[done:]),
                "interpreter")
            bench.resumes.extend(sample * factor for sample in samples)
        bench.peak_rss_kb = daemon.rss_kb()

    def reread(jobs: List[Tuple[str, int, int]]) -> List[float]:
        """The read path on an idle daemon: fetch each job's report
        again (a fetch that overlapped another client's job would time
        the GIL, not the read)."""
        samples = []
        for job, spec_index, op in jobs:
            started = clock()
            again = daemon.call("GET", f"/v1/sweeps/{job}/report?format=csv")
            samples.append(clock() - started)
            bench.check_digest(op, f"csv{spec_index}",
                               benchstats.digest_text(again.decode()))
        return samples

    try:
        bench.phase("setup", setup)
        bench.loop = {"loop": "closed", "clients": SERVE_CLIENTS,
                      "poll_s": POLL_SECONDS}
        bench.measure(timed)
    finally:
        if daemon is not None:
            daemon.stop()
    _check_serve_against_cli(bench, daemon, warm_jobs)


def _check_serve_against_cli(bench: Bench, daemon: _Daemon,
                             warm_jobs: Dict[int, str]) -> None:
    """The daemon's per-point metrics equal an inline CLI run's."""
    spec_path = bench.work / "union.json"
    spec_path.write_text(json.dumps(serve_union_spec(bench.seed)))
    out = bench.work / "out-union"
    bench.python(["-m", "repro", "sweep", "run", "--spec", str(spec_path),
                  "--out", str(out)], traced=False)
    inline = {record["hash"]: record["metrics"] for record in
              benchstats.load_records(out / "results.jsonl")}
    for job in warm_jobs.values():
        op = bench.failures.attempt()
        records = benchstats.load_records(
            daemon.data / "sweeps" / job / "results.jsonl")
        bench.failures.check(
            op, bool(records) and all(inline.get(record["hash"])
                                      == record["metrics"]
                                      for record in records),
            f"serve job {job} differs from the inline CLI run")


RUNNERS = {"figures": run_figures, "sweep-small": run_sweep_small,
           "serve": run_serve}


# ---------------------------------------------------------------------------
# results


def end_to_end(bench: Bench) -> Dict[str, Dict[str, Any]]:
    """Every time is at the reference host speed (:meth:`Bench.probed`)."""
    tail = benchstats.tail(bench.latencies)
    bench.loop["tail"] = f"p{tail.percentile:.0f} of {tail.count} samples"
    return {
        "setup_s": {"value": bench.setup_s, "unit": "s"},
        "wall_s": {"value": bench.wall_s, "unit": "s"},
        "sim_minstr_per_s": {"value": bench.instructions / 1e6 / bench.wall_s,
                             "unit": "Minstr/s"},
        "latency_p50_s": {"value": benchstats.median(bench.latencies),
                          "unit": "s"},
        "latency_tail_s": {"value": tail.value, "unit": "s"},
        "resume_p50_s": {"value": benchstats.median(bench.resumes),
                         "unit": "s"},
        "peak_rss_mb": {"value": bench.peak_rss_kb / 1024, "unit": "MB"},
    }


def per_layer(bench: Bench) -> Dict[str, Dict[str, Any]]:
    bench.recorder.flush()
    spans, gauges = benchlayers.load_spans(bench.span_dir)
    # The layers are measured over the timed part, reruns included, so
    # the read path's spans count too.
    measured = bench.windows["timed"]
    values = benchlayers.layer_metrics(spans, gauges, bench.windows["setup"],
                                       measured)
    op = bench.failures.attempt()
    bench.failures.check(op, values["tracegen.generated_timed"] == 0,
                         "traces were generated after set-up")
    values["traced.wall_s"] = bench.wall_s
    bench.layers = benchlayers.self_time_table(spans, measured)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in benchlayers.LAYER_METRICS}


def fingerprint() -> Dict[str, Any]:
    def output(args: List[str], **options) -> str:
        try:
            result = subprocess.run(args, cwd=ROOT, capture_output=True,
                                    text=True, timeout=60, **options)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return result.stdout.strip() if result.returncode == 0 else "unknown"

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": output(["git", "rev-parse", "HEAD"]),
        "generator": output(
            [sys.executable, "-c", "from repro.trace.store import "
             "generator_version_hash as h; print(h())"], env=env),
    }


def run_one(workload: str, seed: int, seconds: int, traced: bool
            ) -> Tuple[Bench, Dict[str, Dict[str, Any]]]:
    work = ROOT / ".pifbench" / f"run-{os.getpid()}-{workload}-{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, seconds, traced, work)
    try:
        RUNNERS[workload](bench)
        metrics = per_layer(bench) if traced else end_to_end(bench)
    finally:
        pifbench_trace.RECORDER = None
        shutil.rmtree(work, ignore_errors=True)
    return bench, metrics


def record(bench: Bench, metrics: Dict[str, Any], host: Dict[str, Any]
           ) -> None:
    """Append the run to the ledger (never rewritten)."""
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": bench.workload, "seed": bench.seed,
        "seconds": bench.seconds, "trace": int(bench.traced),
        "host": host, "load": {**bench.loop, "ops": len(bench.latencies)},
        "attempted": bench.failures.attempted,
        "failed": bench.failures.failed,
        "failures": bench.failures.reasons,
        "digests": bench.digests, "metrics": metrics,
        "samples": {"latency_s": bench.latencies, "resume_s": bench.resumes,
                    "probe_s": bench.probes},
        "probed": [{"what": what, "raw_s": seconds, "factor": factor}
                   for what, seconds, factor in bench.scalings],
        "layer_self_s": bench.layers,
        "phases_s": {name: end - start
                     for name, (start, end) in bench.windows.items()},
    }
    ledger = ROOT / ".pifbench" / "ledger.jsonl"
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def print_table(bench: Bench, metrics: Dict[str, Dict[str, Any]]) -> None:
    mode = "traced" if bench.traced else "untraced"
    print(f"== {bench.workload} ({mode}, seed {bench.seed}, "
          f"{len(bench.latencies)} ops, {bench.loop.get('loop')} loop, "
          f"{bench.loop.get('clients')} client(s))")
    notes = {name: note for name, _, note in benchlayers.LAYER_METRICS}
    notes["latency_tail_s"] = bench.loop.get("tail", "")
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if notes.get(name) else ""
        print(f"  {name:28s} {entry['value']:14.6f} {entry['unit']}{note}")
    if bench.layers:
        print("  per-layer self time after set-up (layer, s, spans):")
        for layer, (seconds, count) in bench.layers.items():
            print(f"    {layer:26s} {seconds:14.6f} {count:8d}")
    for kind, probes in bench.probes.items():
        if probes:
            print(f"  {kind} probes: {len(probes)}, median "
                  f"{benchstats.median(probes):.4f} s "
                  f"({benchstats.PROBE_NOMINAL_S[kind]} s at the reference)")
    if bench.scalings:
        factors = [factor for _, _, factor in bench.scalings]
        print(f"  speed factors: {min(factors):.3f}-{max(factors):.3f}, "
              f"median {benchstats.median(factors):.3f}")
    print(f"  {'failed_frac':28s} {bench.failures.fraction:14.6f} fraction"
          f"  ({bench.failures.failed} of {bench.failures.attempted} ops)")
    for reason in bench.failures.reasons:
        print(f"  FAILED: {reason}")
    print("  digests: " + ", ".join(f"{key}={value}" for key, value
                                    in sorted(bench.digests.items())))


def check_checkout() -> None:
    needed = [ROOT / "src" / "repro" / "cli.py",
              ROOT / "examples" / "scenarios" / "ci-smoke.yaml",
              ROOT / "examples" / "scenarios" / "sab-ablation.yaml"]
    missing = [str(path.relative_to(ROOT)) for path in needed
               if not path.is_file()]
    if missing:
        raise BenchError("not a repository checkout; missing "
                         + ", ".join(missing))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running op and the daemon are
    # stopped and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_checkout()
        (ROOT / ".pifbench").mkdir(exist_ok=True)
        host = fingerprint()
        if args.workload != "all":
            bench, metrics = run_one(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
            record(bench, metrics, host)
            print_table(bench, metrics)
            print(json.dumps({"correct": bench.failures.failed == 0,
                              "attempted": bench.failures.attempted,
                              "failed": bench.failures.failed,
                              "metrics": metrics}))
            return 0 if bench.failures.failed == 0 else 1
        return run_all(args.seed, args.seconds, host)
    except BenchError as error:
        print(f"pifbench: {error}", file=sys.stderr)
        return 2


def run_all(seed: int, seconds: int, host: Dict[str, Any]) -> int:
    """Every workload untraced, then traced; prints both tables, the
    tracing overhead and the digest agreement between the two runs."""
    attempted = failed = 0
    combined: Dict[str, Any] = {}
    for workload in WORKLOADS:
        runs = {}
        for traced in (False, True):
            bench, metrics = run_one(workload, seed, seconds, traced)
            record(bench, metrics, host)
            print_table(bench, metrics)
            runs[traced] = bench
            attempted += bench.failures.attempted
            failed += bench.failures.failed
            for name, entry in metrics.items():
                combined[f"{workload}.{name}"] = entry
        overhead = runs[True].wall_s - runs[False].wall_s
        same = runs[True].digests == runs[False].digests
        print(f"  tracing overhead: {overhead:+.3f} s on wall_s "
              f"({runs[False].wall_s:.3f} s untraced); digests "
              f"{'match' if same else 'DIFFER'} between traced and "
              "untraced runs")
        attempted += 1
        failed += 0 if same else 1
        combined[f"{workload}.trace_overhead_s"] = {"value": overhead,
                                                    "unit": "s"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
