"""The four benchmark workloads: seeded inputs, set-up, and checked operations.

A workload's ``generate(seed)`` turns the seed into plain inputs before
anything is timed: JSON config documents (as text) and descriptions of what
to decide.  ``run.py`` calls it in a child process, so that the memory it
uses does not count in the timed process's peak.  The inputs come in parts,
one per config document, and ``run.py`` times each part on its own.  The
sizes are class attributes; the self-test shrinks them.  ``setup`` parses a part's documents and builds its algebras, the
way one ``skewchain`` invocation starts, so every set-up starts with cold
caches.  ``operations`` then yields one callable per input to decide; each
returns ``(ok, record)``: whether its result checks out, and a JSON-able
record of the result that ``run.py`` compares with the records pinned in
``pins.json``.  All calls into the program go through module attributes
(``chainmaps.pi``, ``cli.run_verify``, ...) so that the traced run's
patched bindings are the ones called.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

from skewchain import chainmaps, cli, complexes, pbw, serialize

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def config_doc(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def build(text: str) -> serialize.RunConfig:
    """Parse one config document, as ``RunConfig.from_file`` does."""
    return serialize.RunConfig.from_dict(json.loads(text))


def clear_module_memos() -> None:
    """Empty the program's module-level memos, as a fresh process has them.

    The algebras' own caches start empty with every set-up; this is the
    one memo that outlives them.
    """
    chainmaps._SHUFFLE_MEMO.clear()


class Workload:
    """Holds a workload's generated parts: ``[(label, part), ...]``."""

    def __init__(self, parts: list):
        self.parts = parts


class Verify(Workload):
    """``skewchain verify all`` on three configs; one operation per config.

    ``swap_q`` runs at the default budgets, so its exhaustive bases reach
    bar degree 3.  The two N = 3 configs stop at bar degree 2: at degree 3
    they take 5 and 12 s, too long to repeat within one run.  The
    seed drives the budgets' ``seed``, hence the sampled inputs.  The
    ``checked`` count of every check depends only on the budgets, so the
    records are pinned for every seed.
    """

    name = "verify"
    RUNS = (
        ("swap_q", {}),
        ("v4_gf2", {"max_poly_degree": 1, "max_bar_degree": 2}),
        ("s3_perm_q", {"max_poly_degree": 1, "max_bar_degree": 2}),
    )

    @classmethod
    def generate(cls, seed: int) -> list:
        parts = []
        for label, budgets in cls.RUNS:
            doc = config_doc(label)
            doc["budgets"] = dict(budgets, seed=seed)
            parts.append((label, (label, json.dumps(doc))))
        return parts

    @staticmethod
    def setup(part):
        label, text = part
        return [(label, build(text))]

    def operations(self, state):
        for label, cfg in state:
            yield functools.partial(self._decide, label, cfg)

    @staticmethod
    def _decide(label, cfg):
        report, code = cli.run_verify(cfg, "all")
        serialize.canonical_json(report)
        checked = {c["name"]: c["checked"] for c in report["checks"]}
        return code == cli.EXIT_PASS and report["passed"], [label, checked]

    @staticmethod
    def algebras(state):
        return [cfg.algebra for _label, cfg in state]


class Splitting(Workload):
    """Random non-free inputs through the Koszul splitting ``pi``/``iota``.

    Per algebra, half of the inputs are ``barskew`` elements, ``BARSKEW``
    of each bar degree, and half ``twisted(koszul)`` elements, ``TWISTED``
    of each bidegree (i, j) with i + j <= 3.  The numbers are fixed, so the
    seed moves the slots and the order but not the mix.  ``barskew``
    inputs of bar degree 3 are 5% of the inputs, not a third: one costs
    1 ms to 300 ms depending on how many new ``pi`` values and grade blocks
    it needs, which the seed decides, so with bar degrees 1 to 3 equally
    often the 90th percentile falls among them and follows the seed
    (spread 0.28 over five seeds, against about 0.05 at 5%).

    The ``barskew`` inputs of bar degree 2 and 3 are drawn from
    ``FIXED_SEED``, the same for every run; the seed draws the others and
    the order of all.  These inputs need nearly all the new ``pi`` values,
    hence the dense solves: drawn from the run's seed, the ``v4_gf2``
    solves took 0.3 to 2.1 s, and ``wall_s`` and ``op_p90_ms`` followed
    the seed (spreads 0.21 and 0.16 over five seeds).  Drawn once, every
    run makes the same 276 solves and factors the same grade blocks.
    Results are checked by identities only: a change may legitimately
    alter ``pi`` by a boundary.
    """

    name = "splitting"
    CONFIGS = ("s3_perm_q", "z3_cycle_q", "v4_gf2")
    BARSKEW = {1: 45, 2: 45, 3: 10}
    TWISTED = 10
    POLY_DEGREE = 2
    #: Bar degrees whose ``barskew`` inputs are drawn from ``FIXED_SEED``.
    FIXED_BAR_DEGREES = (2, 3)
    FIXED_SEED = 0

    @classmethod
    def generate(cls, seed: int) -> list:
        rng = random.Random(seed)
        parts = []
        for name in cls.CONFIGS:
            text = json.dumps(config_doc(name))
            alg = build(text).algebra
            shapes = [("twisted", n - j, j, "koszul")
                      for n in range(4) for j in range(min(n, alg.nvars) + 1)]
            shapes *= cls.TWISTED
            for n, count in cls.BARSKEW.items():
                shapes += [("barskew", n)] * count
            rng.shuffle(shapes)
            fixed_rng = random.Random(cls.FIXED_SEED)
            fixed = {n: iter([cls._slots(alg, ("barskew", n), fixed_rng)
                              for _ in range(cls.BARSKEW[n])])
                     for n in cls.FIXED_BAR_DEGREES}
            parts.append((name, (text, [
                (tag, next(fixed[tag[1]]) if tag[0] == "barskew"
                 and tag[1] in fixed else cls._slots(alg, tag, rng))
                for tag in shapes])))
        return parts

    @classmethod
    def _slots(cls, alg, tag, rng):
        if tag[0] == "barskew":
            return complexes.random_barskew_slots(
                alg, tag[1], cls.POLY_DEGREE, rng, free=False)
        _kind, i, j, dkind = tag
        return complexes.random_twisted_slots(
            alg, i, j, dkind, cls.POLY_DEGREE, rng, free=False)

    @staticmethod
    def setup(part):
        text, ops = part
        return [(build(text), ops)]

    def operations(self, state):
        for cfg, ops in state:
            for tag, slots in ops:
                yield functools.partial(self._check, cfg.algebra, tag, slots)

    @staticmethod
    def _check(alg, tag, slots):
        x = complexes.ChainElement.basis(alg, tag, slots)
        if tag[0] == "barskew":
            ok = complexes.diff(chainmaps.pi(x)) == chainmaps.pi(
                complexes.diff(x))
        else:
            ok = chainmaps.pi(chainmaps.iota(x)) == complexes.as_vector(x)
        return ok, None

    @staticmethod
    def algebras(state):
        return [cfg.algebra for cfg, _ops in state]


def _full_tables(text: str, count: int, rng) -> list:
    """``count`` tables with every kappa and lambda entry of full support.

    Every coefficient is a seeded +-1, so kappa and lambda are both nonzero
    and the tables differ only in signs (over GF(2), not at all).
    """
    alg = build(text).algebra
    nv, order = alg.nvars, alg.group.order

    def ga():
        return {g: rng.choice((1, -1)) for g in range(order)}

    return [serialize.params_to_config(pbw.PBWParams(
        alg,
        {(i, j): ga() for i in range(nv) for j in range(i + 1, nv)},
        {(g, i): ga() for g in range(1, order) for i in range(nv)}))
        for _ in range(count)]


class PBWSweep(Workload):
    """The criterion-5 sweep: ``pbw.check_all`` on seeded random tables.

    Each algebra is built once per set-up and decides all of its tables, so
    the splitting image caches stay warm across tables.  An operation fails
    when the three deciders disagree; its record is the verdict.

    A PBW table costs 10 to 20 times a non-PBW one, which the oracle's
    early exit rejects quickly, so the number of PBW tables among a
    config's ``TABLES`` sets most of its time.  Left to the draw, it moved
    ``wall_s`` by up to 1.5x between seeds (spread 0.09 over ten seeds).
    So the draws are stratified: ``PBW_SHARE`` of each config's tables are
    PBW, by ``check_five`` at generation, and the rest are not; each is the
    first of its kind that ``PBWParams.random`` draws.  The shares are
    those of 2000 ``PBWParams.random`` draws per config.
    """

    name = "pbw-sweep"
    CONFIGS = ("swap_q", "swap_gf2", "z3_unipotent_gf3", "s3_refl_q",
               "v4_gf2")
    TABLES = 200
    PBW_SHARE = {"swap_q": 0.20, "swap_gf2": 0.52, "z3_unipotent_gf3": 0.25,
                 "s3_refl_q": 0.075, "v4_gf2": 0.075}

    @classmethod
    def generate(cls, seed: int) -> list:
        rng = random.Random(seed)
        parts = []
        for name in cls.CONFIGS:
            text = json.dumps(config_doc(name))
            alg = build(text).algebra
            pbw_tables = round(cls.TABLES * cls.PBW_SHARE[name])
            wanted = {True: pbw_tables, False: cls.TABLES - pbw_tables}
            tables = []
            while wanted[True] or wanted[False]:
                params = pbw.PBWParams.random(alg, rng)
                verdict = pbw.check_five(alg, params).verdict
                if wanted[verdict]:
                    wanted[verdict] -= 1
                    tables.append(serialize.params_to_config(params))
            parts.append((name, (text, tables)))
        return parts

    @staticmethod
    def setup(part):
        text, blocks = part
        cfg = build(text)
        return [(cfg, [serialize.params_from_config(cfg.algebra, b)
                       for b in blocks])]

    def operations(self, state):
        for cfg, tables in state:
            for params in tables:
                yield functools.partial(self._decide, cfg, params)

    @staticmethod
    def _decide(cfg, params):
        reports, agree = pbw.check_all(cfg.algebra, params,
                                       j_max=cfg.budgets["j_max"])
        return agree, reports["five_conditions"].verdict

    @staticmethod
    def algebras(state):
        return [cfg.algebra for cfg, _tables in state]


class PBWOracle(Workload):
    """``skewchain pbw oracle`` per table: the full rank, no early exit.

    ``COUNTS`` tables per config.  Ordered by cost: ``swap_gf2`` and
    ``swap_q`` (about 2 ms), ``z3_unipotent_gf3`` (about 14 ms),
    ``v4_gf2`` (about 150 ms), the largest mod-p rank, and ``z4_rot_q``
    (Z/4 rotating Q^2, 0.2 to 0.6 s), where ``IncrementalRank.insert`` over
    fractions does most of the work.  The counts put each percentile in
    the middle of one config's tables, not on the edge between two: the
    median falls among the 70 ``z3_unipotent_gf3`` tables (ranks 16 to 85
    of 100) and the 90th percentile among the 12 ``v4_gf2`` tables (ranks
    86 to 97).  With 25 tables on each mod-p config the median fell on the
    third or fourth cheapest ``z3_unipotent_gf3`` table and followed the
    seed.  The counts also keep a pass short enough that a 30 s run holds
    several on a slow machine.  ``s3_refl_q`` tables exercise the Q path
    too but cost 8 to 16 s each: too long and too uneven to time steadily
    within one run.

    Every kappa and lambda entry of every table is nonzero, with a seeded
    sign: the oracle's cost follows the table's support, so on
    ``PBWParams.random`` tables, whose support varies, the percentiles
    followed the seed (spread 0.38 for the median over five seeds).  The
    signs still move the cost of a Q table (0.4 to 0.6 s), and the three
    Q tables are a third of ``wall_s``, so they are drawn from
    ``FIXED_SEED``, the same for every run; the seed draws the mod-p
    tables.  Each config document is parsed in set-up, one algebra per
    table, as one CLI invocation per table would.  Every oracle verdict is
    checked against ``check_five``, computed before timing on a separately
    built algebra; the record is the verdict and the dimension.
    """

    name = "pbw-oracle"
    COUNTS = {"swap_q": 8, "swap_gf2": 7, "z3_unipotent_gf3": 70,
              "v4_gf2": 12, "z4_rot_q": 3}
    #: Configs whose tables are drawn from ``FIXED_SEED``.
    FIXED_CONFIGS = ("z4_rot_q",)
    FIXED_SEED = 0

    @classmethod
    def generate(cls, seed: int) -> list:
        rng = random.Random(seed)
        return [(name, cls._with_reference(name, _full_tables(
                    json.dumps(config_doc(name)), count,
                    random.Random(cls.FIXED_SEED)
                    if name in cls.FIXED_CONFIGS else rng)))
                for name, count in cls.COUNTS.items()]

    @staticmethod
    def _with_reference(name, blocks):
        out = []
        for block in blocks:
            text = json.dumps(dict(config_doc(name), params=block))
            cfg = build(text)
            out.append((text, pbw.check_five(cfg.algebra, cfg.params).verdict))
        return out

    @staticmethod
    def setup(part):
        return [(build(text), five) for text, five in part]

    def operations(self, state):
        for cfg, five in state:
            yield functools.partial(self._decide, cfg, five)

    @staticmethod
    def _decide(cfg, five):
        report, code = cli.run_pbw(cfg, "oracle")
        serialize.canonical_json(report)
        verdict = report["verdict"]
        ok = verdict == five and code == (
            cli.EXIT_PASS if verdict else cli.EXIT_FAIL)
        return ok, [verdict, report["reports"]["oracle"]["extras"]["dimension"]]

    @staticmethod
    def algebras(state):
        return [cfg.algebra for cfg, _five in state]


WORKLOADS = {w.name: w for w in (Verify, Splitting, PBWSweep, PBWOracle)}
