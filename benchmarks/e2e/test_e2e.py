"""Self-tests of the end-to-end benchmark (outside the tier-1 test paths).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import pytest

import compare
import run as bench
import workloads
from layertrace import LayerTracer

SPEC = bench.load_spec()


def traced_slice(name: str, ops: int, seed: int = 7) -> dict:
    """One untraced and one traced cycle of the first ``ops`` steps."""
    return bench.measure(name, seed, seconds=0, trace=True, cycle_ops=ops)


def counter_names() -> list:
    return [m["name"] for m in SPEC["per_layer"]
            if not compare.TIMED.search(m["name"])]


def test_counters_repeat_exactly_across_traced_slices():
    first = traced_slice("transfer", 3)
    second = traced_slice("transfer", 3)
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in counter_names():
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["engine.events_per_op"] > 0
    assert first["model"] == second["model"]
    rows = compare.compare([first], [second], SPEC)
    assert not [r for r in rows if r["status"] in ("changed", "worse")]


def test_untraced_run_emits_every_end_to_end_metric_but_setup():
    record = bench.measure("transfer", 7, seconds=0, trace=False,
                           cycle_ops=3)
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert set(record["metrics"]) == declared - {"setup_s"}
    assert all(value > 0 for value in record["metrics"].values())


def test_extra_record_per_event_is_counted_and_flagged(monkeypatch):
    from repro.measure.trace import StepTrace
    from repro.soc.engine import Engine

    base = traced_slice("transfer", 3)
    dispatch = Engine._dispatch

    def dispatch_with_extra_record(engine, time_ns, handle):
        StepTrace("extra").record(time_ns, 1.0)
        return dispatch(engine, time_ns, handle)

    monkeypatch.setattr(Engine, "_dispatch", dispatch_with_extra_record)
    slowed = traced_slice("transfer", 3)
    events = base["metrics"]["engine.events_per_op"]
    assert slowed["metrics"]["engine.events_per_op"] == events
    assert (slowed["metrics"]["trace.records_per_op"]
            == base["metrics"]["trace.records_per_op"] + events)
    assert slowed["model"] == base["model"]
    rows = {r["metric"]: r["status"]
            for r in compare.compare([base], [slowed], SPEC)}
    assert rows["trace.records_per_op"] == "changed"
    assert rows["engine.events_per_op"] == "same"


def test_tampered_report_reference_fails_the_op(monkeypatch):
    build = workloads.Report.build

    def tampered(self, seed):
        ctx = build(self, seed)
        ctx.reference = ctx.reference.replace("2462 b/s", "2899 b/s")
        return ctx

    monkeypatch.setattr(workloads.Report, "build", tampered)
    record = bench.measure("report", 0, seconds=0, trace=False)
    assert record["failed"] == record["attempted"] == 1
    assert record["model"]["error_rate"] > 0


def test_warm_rerun_under_trace_hits_the_cache():
    from repro.mitigations.matrix import cells, sweep
    from repro.runner import ResultCache

    task = {"attacker": "plain_cores", "defender": "none"}
    original = cells.run_cell
    key = ResultCache(root="unused").key_for(original, task)
    with LayerTracer():
        assert sweep.run_cell is not original
        assert ResultCache(root="unused").key_for(sweep.run_cell, task) == key

    record = traced_slice("matrix_sweep", 2)
    assert record["failed"] == 0
    assert record["metrics"]["runner.cache_hit_ratio"] == 1.0
    assert record["metrics"]["runner.tasks_per_op"] == 63


def test_compare_gates_paired_ratios_and_exits_nonzero(tmp_path):
    def record(seed: int, p50: float, rerun: float = 30.0) -> dict:
        return {"workload": "transfer", "seed": seed, "trace": 0,
                "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"}},
                "gated": {"cached_rerun_ms": rerun},
                "model": {"error_rate": 0.0, "digest": "d"}}

    # Inputs make the seeds differ by 1.5x: far more than the gate, so
    # only a comparison seed by seed can see a 15 % slowdown.
    base = {s: 10.0 * 1.5 ** (s % 2) for s in range(6)}
    set_a = [record(s, base[s]) for s in range(6)]
    set_b = [record(s, base[s] * 1.15, rerun=30.0 * 1.15)
             for s in range(6)]
    rows = {r["metric"]: r["status"]
            for r in compare.compare(set_a, set_b, SPEC)}
    assert rows["op_p50_ms"] == "worse"
    assert rows["cached_rerun_ms"] == "worse"
    assert rows["model.digest"] == "same"
    noisy = [record(s, base[s] * (1.25 if s < 3 else 0.9)) for s in range(6)]
    rows = {r["metric"]: r["status"]
            for r in compare.compare(set_a, noisy, SPEC)}
    assert rows["op_p50_ms"] == "unresolved"
    assert rows["cached_rerun_ms"] == "same"

    paths = []
    for label, records in (("a", set_a), ("b", set_b)):
        path = tmp_path / f"{label}.json"
        path.write_text(compare.json.dumps(records))
        paths.append(str(path))
    assert compare.main([paths[0], "--", paths[1]]) == 1
    assert compare.main([paths[0], "--", paths[0]]) == 0


def test_seconds_must_be_the_declared_run_seconds():
    with pytest.raises(SystemExit) as exc:
        bench.main(["--workload", "transfer", "--seconds",
                    str(SPEC["run_seconds"] + 1)])
    assert exc.value.code == 2


def test_result_line_without_workload_names_every_workload():
    records = [{"workload": name, "correct": True, "attempted": 2,
                "failed": 0, "metrics": {"op_p50_ms": {"value": 1.0,
                                                      "unit": "ms"}}}
               for name in ("transfer", "report")]
    line = compare.json.loads(bench.result_line(records, prefixed=True))
    assert line["attempted"] == 4
    assert set(line["metrics"]) == {"transfer.op_p50_ms", "report.op_p50_ms"}


def test_compare_rejects_malformed_names(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(compare.json.dumps(
        {"workload": "transfer", "seed": 1, "trace": 0,
         "metrics": {"op p50": {"value": 1.0, "unit": "ms"}}}))
    assert compare.main([str(path)]) == 2


def test_hd_quantile_is_a_smooth_quantile():
    assert bench.hd_quantile([5.0], 0.9) == 5.0
    assert abs(bench.hd_quantile(list(range(101)), 0.5) - 50.0) < 1e-9
    # Two clusters split at the median: the plain median jumps by 8 when
    # one op crosses the gap, the Harrell-Davis estimate by under 1.
    low, high = [50.0] * 160, [58.0] * 160
    before = bench.hd_quantile(low + high, 0.5)
    after = bench.hd_quantile(low[1:] + high + [58.0], 0.5)
    assert 0 < after - before < 1.0


def test_verdict_grid_parser():
    document = ("## Headline grid\n\n| attacker | none | secure_mode |\n"
                "|---|---|---|\n| `plain_thread` | open (2667) | defeated |"
                "\n\nafter\n")
    assert workloads.parse_verdict_grid(document) == {
        ("plain_thread", "none"): ("open", "2667"),
        ("plain_thread", "secure_mode"): ("defeated", "")}
