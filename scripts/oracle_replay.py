"""Replay the PBW oracle on the benchmark's PBW tables and hash its reports.

For seeds 1 and 2, every table of the ``pbw-sweep`` and ``pbw-oracle``
workloads of ``perfbench/workloads.py`` (read, never changed) is decided
by ``pbw.oracle_pbw`` with the full rank and with early exit.  The
canonical JSON of every report, in order, goes into one sha256.  A change
to the oracle's internals must leave the hash as it is: run the script on
the parent tree and on the change and compare the two lines it prints.

    python3 scripts/oracle_replay.py [TREE]

TREE is a source checkout (default: the one holding this script); its
``src`` and ``perfbench`` are the code imported, so the same script
replays any tree.  Algebras are kept as the workloads keep them: one per
config for ``pbw-sweep``, whose tables then meet a warm oracle frame, and
one per table for ``pbw-oracle``.
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

    h = hashlib.sha256()
    count = 0

    def decide(alg, params):
        nonlocal count
        for early in (False, True):
            report = pbw.oracle_pbw(alg, params, early_exit=early)
            h.update(serialize.canonical_json(report.to_json_dict()).encode())
            count += 1

    for seed in SEEDS:
        for _label, (text, blocks) in workloads.PBWSweep.generate(seed):
            alg = workloads.build(text).algebra
            for block in blocks:
                decide(alg, serialize.params_from_config(alg, block))
        for _label, part in workloads.PBWOracle.generate(seed):
            for text, _five in part:
                cfg = workloads.build(text)
                decide(cfg.algebra, cfg.params)
    print(f"reports {count} sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
