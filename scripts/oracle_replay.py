"""Replay the benchmark's inputs through the deciders, ``verify`` and ``apply``
and hash their reports.

For seeds 1 and 2, every table of the ``pbw-sweep`` and ``pbw-oracle``
workloads of ``perfbench/workloads.py`` (read, never changed) is decided
by ``pbw.oracle_pbw`` with the full rank and with early exit, by
``pbw.check_five`` and by ``pbw.check_cohomological``.  The configs of the
``verify`` workload are run through ``cli.run_verify`` (suite ``all``),
and every input of the ``splitting`` workload goes through the JSON codec
to ``cli.run_apply`` of each map defined on it and of ``diff``.  The
canonical JSON of every report of one kind, in order, goes into one
sha256 per kind.  A change to the internals must leave each hash as it
is: run the script on the parent tree and on the change and compare the
lines it prints.  The first line, the oracle's, has the form it had
before the condition deciders were added.

    python3 scripts/oracle_replay.py [TREE]

TREE is a source checkout (default: the one holding this script); its
``src`` and ``perfbench`` are the code imported, so the same script
replays any tree.  No bytecode is written under them.  Algebras are kept
as the workloads keep them: one per config for ``pbw-sweep``,
``verify`` and ``splitting``, whose tables and inputs then meet warm
caches, and one per table for ``pbw-oracle``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

SEEDS = (1, 2)


def main(argv) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from skewchain import cli, complexes, pbw, serialize
    import workloads

    kinds = ("oracle", "five_conditions", "cohomological", "verify", "apply")
    hashes = {name: hashlib.sha256() for name in kinds}
    counts = dict.fromkeys(hashes, 0)

    def add(name, doc):
        hashes[name].update(serialize.canonical_json(doc).encode())
        counts[name] += 1

    def decide(cfg, params):
        alg = cfg.algebra
        for early in (False, True):
            add("oracle",
                pbw.oracle_pbw(alg, params, early_exit=early).to_json_dict())
        add("five_conditions", pbw.check_five(alg, params).to_json_dict())
        add("cohomological", pbw.check_cohomological(
            alg, params, cfg.budgets["j_max"]).to_json_dict())

    def apply_all(cfg, tag, slots):
        family = f"twisted_{tag[3]}" if tag[0] == "twisted" else tag[0]
        doc = serialize.element_to_json(
            complexes.ChainElement.basis(cfg.algebra, tag, slots))
        for name in cli.MAP_NAMES:
            if name == "diff" or cli.MAP_DOMAINS[name] == family:
                add("apply", cli.run_apply(cfg, name, doc)[0])

    for seed in SEEDS:
        for _label, (text, blocks) in workloads.PBWSweep.generate(seed):
            cfg = workloads.build(text)
            for block in blocks:
                decide(cfg, serialize.params_from_config(cfg.algebra, block))
        for _label, part in workloads.PBWOracle.generate(seed):
            for text, _five in part:
                cfg = workloads.build(text)
                decide(cfg, cfg.params)
    for seed in SEEDS:
        for _label, part in workloads.Verify.generate(seed):
            for _label, cfg in workloads.Verify.setup(part):
                add("verify", cli.run_verify(cfg, "all")[0])
        for _label, part in workloads.Splitting.generate(seed):
            for cfg, ops in workloads.Splitting.setup(part):
                for tag, slots in ops:
                    apply_all(cfg, tag, slots)
    print(f"reports {counts['oracle']} sha256 {hashes['oracle'].hexdigest()}")
    for name in kinds[1:]:
        print(f"{name} reports {counts[name]} sha256 "
              f"{hashes[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
