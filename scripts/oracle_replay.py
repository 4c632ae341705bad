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
before the condition deciders were added.  Each kind is one function of
``KINDS``, which yields its reports in order, so ``digest`` can hash one
kind alone: ``tests/test_oracle_replay.py`` pins the ``verify`` and
``apply`` kinds that way.

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


def _tables(seed):
    """(config, params) of every ``pbw-sweep`` and ``pbw-oracle`` table of
    a seed: one algebra per ``pbw-sweep`` config, one per ``pbw-oracle``
    table."""
    from skewchain import serialize
    import workloads

    for _label, (text, blocks) in workloads.PBWSweep.generate(seed):
        cfg = workloads.build(text)
        for block in blocks:
            yield cfg, serialize.params_from_config(cfg.algebra, block)
    for _label, part in workloads.PBWOracle.generate(seed):
        for text, _five in part:
            cfg = workloads.build(text)
            yield cfg, cfg.params


def oracle_reports(seeds=SEEDS):
    """``pbw.oracle_pbw`` on every table, with the full rank and with
    early exit."""
    from skewchain import pbw

    for seed in seeds:
        for cfg, params in _tables(seed):
            for early in (False, True):
                yield pbw.oracle_pbw(cfg.algebra, params,
                                     early_exit=early).to_json_dict()


def five_conditions_reports(seeds=SEEDS):
    """``pbw.check_five`` on every table."""
    from skewchain import pbw

    for seed in seeds:
        for cfg, params in _tables(seed):
            yield pbw.check_five(cfg.algebra, params).to_json_dict()


def cohomological_reports(seeds=SEEDS):
    """``pbw.check_cohomological`` on every table."""
    from skewchain import pbw

    for seed in seeds:
        for cfg, params in _tables(seed):
            yield pbw.check_cohomological(
                cfg.algebra, params, cfg.budgets["j_max"]).to_json_dict()


def verify_reports(seeds=SEEDS):
    """``cli.run_verify`` (suite ``all``) on every ``verify`` config."""
    from skewchain import cli
    import workloads

    for seed in seeds:
        for _label, part in workloads.Verify.generate(seed):
            for _label, cfg in workloads.Verify.setup(part):
                yield cli.run_verify(cfg, "all")[0]


def apply_reports(seeds=SEEDS):
    """``cli.run_apply`` of ``diff`` and of each map defined on every
    ``splitting`` input, sent through the JSON codec."""
    from skewchain import cli, complexes, serialize
    import workloads

    for seed in seeds:
        for _label, part in workloads.Splitting.generate(seed):
            for cfg, ops in workloads.Splitting.setup(part):
                for tag, slots in ops:
                    family = (f"twisted_{tag[3]}" if tag[0] == "twisted"
                              else tag[0])
                    x = complexes.ChainElement.basis(cfg.algebra, tag, slots)
                    doc = serialize.element_to_json(tag, x)
                    for name in cli.MAP_NAMES:
                        if name == "diff" or cli.MAP_DOMAINS[name] == family:
                            yield cli.run_apply(cfg, name, doc)[0]


#: Each report kind, in the order of the printed lines.
KINDS = {"oracle": oracle_reports,
         "five_conditions": five_conditions_reports,
         "cohomological": cohomological_reports,
         "verify": verify_reports,
         "apply": apply_reports}


def digest(reports) -> tuple:
    """The count of the reports and the sha256 of their canonical JSON."""
    from skewchain import serialize

    h = hashlib.sha256()
    count = 0
    for doc in reports:
        h.update(serialize.canonical_json(doc).encode())
        count += 1
    return count, h.hexdigest()


def main(argv) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    for kind, reports in KINDS.items():
        count, sha = digest(reports())
        label = "reports" if kind == "oracle" else f"{kind} reports"
        print(f"{label} {count} sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
