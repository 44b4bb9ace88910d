"""compare.py verdicts."""

import compare


def _runs(workload, values, failed=0):
    return [{"workload": workload, "attempted": 1000, "failed": failed,
             "metrics": {"tuples_per_s": v, "latency_p50_ms": 4.0,
                         "latency_p95_ms": 6.0, "peak_rss_mb": 50.0,
                         "setup_s": 0.3}} for v in values]


def _row(rows, metric):
    return next(r for r in rows if r["metric"] == metric)


def test_same_runs_are_ok():
    old = _runs("handoff_b1", [100, 101, 99, 100, 102])
    rows = compare.compare(old, old)
    assert {r["verdict"] for r in rows} == {"ok"}
    assert _row(rows, "tuples_per_s")["ratio"] == 1.0


def test_a_drop_beyond_the_bound_is_worse():
    old = _runs("handoff_b1", [100, 101, 99, 100, 102])
    new = _runs("handoff_b1", [80, 81, 79, 80, 82])
    row = _row(compare.compare(old, new), "tuples_per_s")
    assert row["verdict"] == "worse" and abs(row["worse_by"] - 0.2) < 1e-9


def test_wide_spread_is_unresolved_unless_new_dominates():
    old = _runs("handoff_b1", [100, 140, 70, 120, 90])
    new = _runs("handoff_b1", [95, 135, 65, 125, 85])
    assert _row(compare.compare(old, new),
                "tuples_per_s")["verdict"] == "unresolved"
    faster = _runs("handoff_b1", [150, 190, 145, 170, 160])
    assert _row(compare.compare(old, faster),
                "tuples_per_s")["verdict"] == "ok"


def test_more_failed_tuples_is_flagged():
    old = _runs("handoff_b1", [100, 101, 99])
    new = _runs("handoff_b1", [100, 101, 99], failed=1)
    rows = compare.compare(old, new)
    assert _row(rows, "failed_share")["verdict"] == "worse"
    assert "more tuples failed" in compare.render(rows)
