"""A/B ledger: run the benchmark on a parent tree and a change tree in
alternating pairs and write the runs and their summary as ``BENCH_<tag>.json``.

Each tree is a clean source checkout (``src/``, ``perfbench/``,
``BENCHMARK.json``).  For every workload and seed, both trees run
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``,
with S the ``run_seconds`` of ``BENCHMARK.json``, one after the other;
the parent runs first on odd seeds and the change on even seeds, so
neither side always meets the machine first.  The summary
gives, per workload and end-to-end metric, the median of each side, the
change's relative move, the interquartile range of the parent's runs and
in how many pairs the change was lower.  Every run made is listed.

    python3 scripts/ab.py --parent ../parent --change ../change \\
        --workload pbw-sweep --seeds 1-10 --out BENCH_tag.json \\
        --change-text "what the change does"

``--traced-seed N`` adds one ``--trace 1`` run per side at seed N, whose
per-layer metrics the summary lists apart from the pairs.  With
``--resume`` an existing ledger at ``--out`` keeps its runs, and only
the missing (workload, seed, side) runs are made, so several workloads or
an interrupted round can fill one ledger.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SRC_SHA256_METHOD = ("sha256 over src/skewchain/*.py in name order, each as "
                     "file name, a NUL byte, then the file bytes")
METHOD = ("parent and change run from clean copies of their trees (src, "
          "perfbench, BENCHMARK.json), one after the other per seed; the "
          "parent runs first on odd seeds, the change first on even seeds. "
          "Every run made is listed.")


def src_sha256(tree: Path) -> str:
    """The sha256 of ``src/skewchain/*.py`` as ``SRC_SHA256_METHOD`` says."""
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "skewchain").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_seeds(text: str) -> list:
    """``"1-10"`` or ``"1,3,5"`` (or a mix) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def order_of(seed: int) -> tuple:
    """The sides of one pair in running order."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def parse_run(stdout: str) -> dict:
    """The record fields of one ``perfbench/run.py`` output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = notes = {}
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("notes "):
            notes = json.loads(line[6:])
    return {
        "environment": {"python": env.get("python"),
                        "nproc": env.get("nproc")},
        "src_sha256": env.get("src_sha256"),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "repetitions": notes.get("repetitions"),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_one(tree: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def iqr(values) -> float:
    """Q3 - Q1 with inclusive quartiles (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(runs: list, metrics: list) -> dict:
    """Per workload: pairs, and per metric the medians, the change's
    relative move, the parent IQR and the pairs where the change is lower.
    Only untraced seeds with a run on both sides count as pairs; a traced
    run's per-layer metrics are listed under ``per_layer_traced``."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload and r.get("trace", 0) == 0:
                side[r["side"]][r["seed"]] = r
        seeds = sorted(set(side["parent"]) & set(side["change"]))
        par = [side["parent"][s] for s in seeds]
        chg = [side["change"][s] for s in seeds]
        entry = {"pairs": len(seeds)}
        for name in metrics:
            if not par or name not in par[0]["metrics"]:
                continue
            p = [r["metrics"][name] for r in par]
            c = [r["metrics"][name] for r in chg]
            pm, cm = statistics.median(p), statistics.median(c)
            entry[name] = {
                "parent_median": round(pm, 6),
                "change_median": round(cm, 6),
                "change_vs_parent": round(cm / pm - 1, 4) if pm else None,
                "parent_iqr": round(iqr(p), 6),
                "change_lower_in_pairs": sum(b < a for a, b in zip(p, c)),
            }
        entry["failed"] = {"parent": sum(r["failed"] for r in par),
                           "change": sum(r["failed"] for r in chg)}
        traced = {r["side"]: r for r in runs
                  if r["workload"] == workload and r.get("trace", 0) == 1}
        if traced:
            entry["per_layer_traced"] = {
                side: dict(r["metrics"], seed=r["seed"])
                for side, r in sorted(traced.items())}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--change-text", default="")
    ap.add_argument("--parent-rev", default="")
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--traced-seed", type=int,
                    help="after the pairs, one traced run per side "
                         "(per-layer metrics) at this seed")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ledger = {}
    if args.resume and args.out.exists():
        ledger = json.loads(args.out.read_text())
    runs = ledger.get("runs", [])
    done = {(r["workload"], r["seed"], r["side"], r.get("trace", 0))
            for r in runs}
    plan = [(w, seed, 0) for w in args.workload for seed in args.seeds]
    if args.traced_seed is not None:
        plan += [(w, args.traced_seed, 1) for w in args.workload]
    for workload, seed, trace in plan:
        for position, side in enumerate(order_of(seed), 1):
            if (workload, seed, side, trace) in done:
                continue
            record = {"workload": workload, "seed": seed, "side": side,
                      "position_in_pair": position, "trace": trace}
            record.update(run_one(trees[side], workload, seed, seconds,
                                  trace))
            environment = record.pop("environment")
            runs.append(record)
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"wall_s {record['metrics'].get('wall_s')}", flush=True)
            ledger.update({
                "change": args.change_text or ledger.get("change", ""),
                "parent": args.parent_rev or ledger.get("parent", ""),
                "parent_src_sha256": src_sha256(trees["parent"]),
                "change_src_sha256": src_sha256(trees["change"]),
                "src_sha256_method": SRC_SHA256_METHOD,
                "command": "python3 perfbench/run.py --workload W --seed N "
                           f"--seconds {seconds:g} --trace T",
                "method": METHOD,
                "environment": environment,
                "summary": summarize(runs, metrics),
                "runs": runs,
            })
            # written after every run, so an interrupted round keeps what
            # it measured
            args.out.write_text(json.dumps(ledger, indent=1,
                                           ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
