"""The A/B ledger's summary (``scripts/ab.py``) on synthetic run records."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import ab  # noqa: E402


def record(workload, seed, side, wall, failed=0, trace=0):
    return {"workload": workload, "seed": seed, "side": side, "trace": trace,
            "failed": failed, "metrics": {"wall_s": wall}}


def test_summary_medians_iqr_and_lower_pairs():
    parent = [1.0, 1.2, 1.1, 1.4, 1.3]
    change = [0.9, 1.3, 1.0, 1.0, 1.2]
    runs = [record("w", s, "parent", v) for s, v in enumerate(parent, 1)]
    runs += [record("w", s, "change", v) for s, v in enumerate(change, 1)]
    runs.append(record("w", 9, "change", 0.1))  # no parent run: no pair
    # traced runs are listed apart and count for no pair or failure
    runs.append(record("w", 1, "change", 0.1, failed=3, trace=1))
    runs.append(record("w", 1, "parent", 0.2, trace=1))
    got = ab.summarize(runs, ["wall_s", "absent"])["w"]
    assert got["pairs"] == 5
    assert got["wall_s"] == {
        "parent_median": 1.2,
        "change_median": 1.0,
        "change_vs_parent": round(1.0 / 1.2 - 1, 4),
        "parent_iqr": 0.2,  # inclusive quartiles 1.1 and 1.3
        "change_lower_in_pairs": 4,
    }
    assert got["failed"] == {"parent": 0, "change": 0}
    assert got["per_layer_traced"] == {
        "change": {"wall_s": 0.1, "seed": 1},
        "parent": {"wall_s": 0.2, "seed": 1}}
    assert "absent" not in got


def test_summary_counts_failures_and_keeps_workloads_apart():
    runs = [record("a", 1, "parent", 2.0), record("a", 1, "change", 2.5, 1),
            record("b", 1, "parent", 1.0), record("b", 1, "change", 1.0)]
    got = ab.summarize(runs, ["wall_s"])
    assert list(got) == ["a", "b"]
    assert got["a"]["failed"] == {"parent": 0, "change": 1}
    assert got["a"]["wall_s"]["change_lower_in_pairs"] == 0
    assert got["a"]["wall_s"]["parent_iqr"] == 0.0
    assert got["b"]["wall_s"]["change_vs_parent"] == 0.0


def test_seeds_and_running_order():
    assert ab.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert ab.order_of(1) == ("parent", "change")
    assert ab.order_of(2) == ("change", "parent")


def test_parse_run_reads_the_last_json_line():
    out = "\n".join([
        "workload w seed 1 trace 0",
        'env {"python": "3.11.7", "nproc": 2, "src_sha256": "ab"}',
        'notes {"repetitions": {"p": 3}}',
        "metric wall_s 1 s",
        '{"correct": true, "attempted": 4, "failed": 0, "metrics": '
        '{"wall_s": {"value": 1.5, "unit": "s"}}}',
    ])
    assert ab.parse_run(out) == {
        "environment": {"python": "3.11.7", "nproc": 2},
        "src_sha256": "ab", "correct": True, "attempted": 4, "failed": 0,
        "repetitions": {"p": 3}, "metrics": {"wall_s": 1.5}}
