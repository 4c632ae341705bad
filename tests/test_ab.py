"""The A/B ledger's summary (``scripts/ab.py``) on synthetic run records
and on the committed ledgers."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import ab  # noqa: E402

#: the end-to-end metrics every ledger summarizes
END_TO_END = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
#: the top-level keys of a ledger that ``ab.main`` writes
LEDGER_KEYS = {"change", "parent", "parent_src_sha256", "change_src_sha256",
               "src_sha256_method", "command", "method", "environment",
               "summary", "runs"}
LEDGERS = sorted(path for path in ROOT.glob("BENCH_*.json")
                 if set(json.loads(path.read_text())) == LEDGER_KEYS)


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


def test_committed_ledgers_are_found():
    assert {"BENCH_oracle_frame.json", "BENCH_oracle_rows.json",
            "BENCH_oracle_overlaps.json"} <= {path.name for path in LEDGERS}


@pytest.mark.parametrize("path", LEDGERS, ids=[p.name for p in LEDGERS])
def test_committed_ledger_summary_is_its_runs_summary(path):
    ledger = json.loads(path.read_text())
    assert ledger["summary"] == ab.summarize(ledger["runs"], END_TO_END)


def test_summary_reproduces_the_oracle_closure_ledger():
    """The ledger written before ``ab.py`` existed, by the same method;
    it lists its traced run apart, so ``per_layer_traced`` is left out."""
    ledger = json.loads((ROOT / "BENCH_oracle_closure.json").read_text())
    got = ab.summarize(ledger["runs"], END_TO_END)
    for entry in got.values():
        entry.pop("per_layer_traced", None)
    assert got == ledger["summary"]
