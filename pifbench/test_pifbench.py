"""Unit tests for the benchmark's own arithmetic and seeded inputs.

Run with ``python3 -m pytest pifbench``.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE / "hook"))

import benchlayers  # noqa: E402
import benchstats  # noqa: E402
import pytest  # noqa: E402


# -- tail percentile -----------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 21))
    random.Random(5).shuffle(values)
    tail = benchstats.tail(values)
    assert tail == benchstats.Tail(10, 50.0, 20, 10)
    assert sum(1 for v in values if v > tail.value) == 10


def test_tail_of_eleven_samples_is_the_minimum():
    tail = benchstats.tail([float(v) for v in range(11, 0, -1)])
    assert tail.value == 1.0
    assert tail.percentile == pytest.approx(100 / 11)
    assert tail.beyond == 10


def test_tail_of_a_large_run_is_a_high_percentile():
    tail = benchstats.tail([float(v) for v in range(1000)])
    assert (tail.value, tail.percentile) == (989.0, 99.0)


@pytest.mark.parametrize("workload", ["sweep-small", "serve"])
@pytest.mark.parametrize("seconds", [1, 10, 60])
def test_latency_tail_lies_well_above_the_median(workload, seconds):
    import run

    count = run.op_count(workload, seconds)
    tail = benchstats.tail([float(v) for v in range(count)])
    assert tail.beyond == benchstats.TAIL_BEYOND
    assert tail.percentile >= 70


def test_sweep_small_tail_is_a_local_transport_op():
    import run

    # A third of the ops use --transport local, the slowest: the tail
    # rank must fall among them, so a replica-fetch or lease regression
    # moves it.
    count = run.op_count("sweep-small", 10)
    assert count % 3 == 0
    assert count - benchstats.TAIL_BEYOND > 2 * count // 3


def test_sweep_small_resumes_rotate_through_the_transports():
    import run

    count = run.op_count("sweep-small", 10)
    resumed = run.resumed_ops("sweep-small", count)
    per_transport = [sum(1 for i in resumed if i % 3 == t) for t in range(3)]
    assert min(per_transport) >= 2
    assert max(per_transport) - min(per_transport) <= 1
    assert run.resumed_ops("figures", 3) == [0, 1, 2]


def test_tail_of_a_short_run_is_its_maximum():
    assert benchstats.tail([3.0, 1.0, 2.0]) == benchstats.Tail(3.0, 100.0,
                                                               3, 0)
    with pytest.raises(ValueError):
        benchstats.tail([])


# -- self time -----------------------------------------------------------------


def test_self_time_counts_overlapping_children_once_and_clips():
    children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0), (20.0, 21.0)]
    assert benchstats.covered((0.0, 10.0), children) == pytest.approx(4.0)
    assert benchstats.self_time((0.0, 10.0), children) == pytest.approx(6.0)
    assert benchstats.self_time((0.0, 10.0), []) == 10.0


def _span(span_id, name, start, end, pid, ppid, parent=None, **attrs):
    return {"kind": "span", "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "pid": pid, "ppid": ppid,
            "tid": 1, "op": "op", "attrs": attrs}


def _cross_process_spans():
    return [
        # parent process: a sweep that dispatches to a 2-worker pool
        _span("1.1", "scenarios.sweep", 0.0, 11.0, pid=1, ppid=0),
        _span("1.2", "pool.imap", 0.0, 10.0, pid=1, ppid=0, parent="1.1",
              jobs=2),
        _span("1.3", "scenarios.append", 5.5, 5.6, pid=1, ppid=0,
              parent="1.2", n=3),
        # two forked workers: root spans, parented by containment
        _span("2.1", "pool.task", 1.0, 5.0, pid=2, ppid=1),
        _span("2.2", "engine.walk", 2.0, 4.0, pid=2, ppid=1, parent="2.1",
              lanes=3, accesses=1000),
        _span("2.3", "trainplan.request", 2.5, 3.0, pid=2, ppid=1,
              parent="2.2"),
        _span("3.1", "pool.task", 2.0, 8.0, pid=3, ppid=1),
    ]


def test_root_spans_attach_to_the_innermost_span_of_the_parent_process():
    parents = benchlayers.resolve_parents(_cross_process_spans())
    assert parents["2.1"] == "1.2" and parents["3.1"] == "1.2"
    assert parents["2.3"] == "2.2" and parents["1.2"] == "1.1"
    assert "1.1" not in parents


def test_self_time_across_nested_and_cross_process_spans():
    spans = _cross_process_spans()
    selfs = benchlayers.self_times(spans, benchlayers.resolve_parents(spans))
    # dispatch: 10 s minus the union of [1, 5], [2, 8] and [5.5, 5.6]
    assert selfs["1.2"] == pytest.approx(3.0)
    assert selfs["1.1"] == pytest.approx(1.0)
    assert selfs["2.1"] == pytest.approx(2.0)
    assert selfs["2.2"] == pytest.approx(1.5)
    assert selfs["3.1"] == pytest.approx(6.0)


def test_layer_metrics_from_cross_process_spans():
    metrics = benchlayers.layer_metrics(_cross_process_spans(), {},
                                        setup=(-5.0, -1.0),
                                        timed=(0.0, 11.0))
    assert metrics["pool.tasks"] == 2
    assert metrics["pool.spinup_s"] == pytest.approx(1.0)
    assert metrics["pool.task_s"] == pytest.approx(10.0)
    assert metrics["pool.busy_frac"] == pytest.approx(0.5)
    assert metrics["engine.walk_s"] == pytest.approx(1.5)
    assert metrics["engine.lane_maccess_per_s"] == pytest.approx(
        3 * 1000 / 1e6 / 1.5)
    assert metrics["trainplan.requests"] == 1
    assert metrics["trainplan.reuse_ratio"] == 1.0
    assert metrics["scenarios.records"] == 3
    assert metrics["tracegen.generated_timed"] == 0
    named = {name for name, _, _ in benchlayers.LAYER_METRICS}
    assert named - {"traced.wall_s"} <= set(metrics)


# -- failures ------------------------------------------------------------------


def test_failed_frac_counts_each_failed_op_once():
    failures = benchstats.Failures()
    ops = [failures.attempt() for _ in range(4)]
    assert failures.check(ops[0], True, "fine")
    failures.fail(ops[1], "exit 1")
    assert not failures.check(ops[1], False, "digest mismatch")
    assert failures.attempted == 4
    assert failures.failed == 1
    assert failures.fraction == 0.25
    assert failures.reasons == ["exit 1", "digest mismatch"]
    assert benchstats.Failures().fraction == 0.0


# -- digests -------------------------------------------------------------------


def _records():
    return [{"hash": f"{i:064x}", "label": "pif", "kernel": "fast",
             "generator": "abc", "metrics": {"coverage": i / 10,
                                             "remaining_misses": 100 - i}}
            for i in range(6)]


def test_digest_ignores_order_and_provenance():
    records = _records()
    shuffled = list(reversed(records))
    for record in shuffled:
        record["kernel"] = "reference"
    assert benchstats.digest_records(shuffled) == \
        benchstats.digest_records(records)


def test_digest_check_catches_one_flipped_record(tmp_path):
    import run

    bench = run.Bench("sweep-small", 1, 10, False, tmp_path)
    flipped = _records()
    flipped[3]["metrics"]["remaining_misses"] += 1
    for records in (_records(), _records(), flipped, _records()):
        bench.check_digest(bench.failures.attempt(), "store",
                           benchstats.digest_records(records))
    assert bench.failures.attempted == 4
    assert bench.failures.failed == 1
    assert bench.failures.fraction == 0.25
    assert bench.failures.reasons[0].startswith("store: digest ")


# -- seeded inputs -------------------------------------------------------------


def test_seed_42_reproduces_the_checked_in_spec():
    import run
    import yaml

    scenarios = HERE.parent / "examples" / "scenarios"
    smoke = yaml.safe_load((scenarios / "ci-smoke.yaml").read_text())
    assert run.small_spec(42) == smoke
    assert run.small_spec(7) != smoke
    assert run.serve_specs(7) == run.serve_specs(7)
    assert len(run.serve_specs(7)) == 12


# -- host speed ----------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(benchstats.PROBES))
def test_speed_factor_scales_to_the_reference_probe_time(kind):
    nominal = benchstats.PROBE_NOMINAL_S[kind]
    assert benchstats.speed_factor([nominal], kind) == pytest.approx(1.0)
    assert benchstats.speed_factor([0.1, 0.3], kind) == pytest.approx(
        nominal / 0.2)
    # a host running at half speed: probes and ops take twice as long
    assert 2.0 * benchstats.speed_factor([2 * nominal], kind) == \
        pytest.approx(1.0)


def test_an_op_is_scaled_by_the_probes_on_either_side(monkeypatch,
                                                      tmp_path):
    import run

    nominal = benchstats.PROBE_NOMINAL_S["process"]
    probes = iter([0.30, 0.10, 0.20, 0.40, 0.40])
    monkeypatch.setitem(benchstats.PROBES, "process", lambda: next(probes))
    now = [0.0]
    monkeypatch.setattr(run, "clock", lambda: now[0])

    def op(seconds):
        now[0] += seconds
        return "done"

    bench = run.Bench("figures", 1, 10, False, tmp_path)
    assert bench.probed("a", lambda: op(2.0)) == ("done", 2.0,
                                                   pytest.approx(nominal / 0.2))
    # back to back: the probe after the first op is the one before this
    _, _, factor = bench.probed("b", lambda: op(1.0))
    assert factor == pytest.approx(nominal / 0.15)
    # after a pause, a fresh probe is taken before the op
    now[0] += run.PROBE_REUSE_S
    _, _, factor = bench.probed("c", lambda: op(1.0))
    assert factor == pytest.approx(nominal / 0.4)
    assert bench.probes == {"process": [0.30, 0.10, 0.20, 0.40, 0.40],
                            "interpreter": []}
    assert bench.scaled_s == pytest.approx(
        2.0 * nominal / 0.2 + 1.0 * nominal / 0.15 + 1.0 * nominal / 0.4)
    assert [what for what, _, _ in bench.scalings] == ["a", "b", "c"]


def test_figures_runs_cycle_through_distinct_trace_seeds():
    import run

    seeds = [run.figures_seeds(seed) for seed in range(1, 11)]
    assert all(len(set(s)) == run.FIGURES_SEEDS for s in seeds)
    assert len({seed for s in seeds for seed in s}) == 10 * run.FIGURES_SEEDS
    assert run.op_count("figures", 10) % run.FIGURES_SEEDS == 0
    assert run.op_count("figures", 1) == run.FIGURES_SEEDS
