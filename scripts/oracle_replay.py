"""Replay the PBW deciders on the benchmark's PBW tables and hash their reports.

For seeds 1 and 2, every table of the ``pbw-sweep`` and ``pbw-oracle``
workloads of ``perfbench/workloads.py`` (read, never changed) is decided
by ``pbw.oracle_pbw`` with the full rank and with early exit, by
``pbw.check_five`` and by ``pbw.check_cohomological``.  The canonical
JSON of every report of one decider, in order, goes into one sha256 per
decider.  A change to a decider's internals must leave its hash as it
is: run the script on the parent tree and on the change and compare the
lines it prints.  The first line, the oracle's, has the form it had
before the condition deciders were added.

    python3 scripts/oracle_replay.py [TREE]

TREE is a source checkout (default: the one holding this script); its
``src`` and ``perfbench`` are the code imported, so the same script
replays any tree.  Algebras are kept as the workloads keep them: one per
config for ``pbw-sweep``, whose tables then meet a warm oracle frame and
warm splitting caches, and one per table for ``pbw-oracle``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

SEEDS = (1, 2)


def main(argv) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from skewchain import pbw, serialize
    import workloads

    hashes = {name: hashlib.sha256()
              for name in ("oracle", "five_conditions", "cohomological")}
    counts = dict.fromkeys(hashes, 0)

    def add(name, report):
        hashes[name].update(
            serialize.canonical_json(report.to_json_dict()).encode())
        counts[name] += 1

    def decide(cfg, params):
        alg = cfg.algebra
        for early in (False, True):
            add("oracle", pbw.oracle_pbw(alg, params, early_exit=early))
        add("five_conditions", pbw.check_five(alg, params))
        add("cohomological", pbw.check_cohomological(
            alg, params, cfg.budgets["j_max"]))

    for seed in SEEDS:
        for _label, (text, blocks) in workloads.PBWSweep.generate(seed):
            cfg = workloads.build(text)
            for block in blocks:
                decide(cfg, serialize.params_from_config(cfg.algebra, block))
        for _label, part in workloads.PBWOracle.generate(seed):
            for text, _five in part:
                cfg = workloads.build(text)
                decide(cfg, cfg.params)
    print(f"reports {counts['oracle']} sha256 {hashes['oracle'].hexdigest()}")
    for name in ("five_conditions", "cohomological"):
        print(f"{name} reports {counts[name]} sha256 "
              f"{hashes[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
