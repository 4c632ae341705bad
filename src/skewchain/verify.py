"""The invariant checks behind ``skewchain verify`` and the acceptance tests.

A check gives one record ``{"name", "checked", "passed", "failures"}`` that
keeps its first :data:`MAX_WITNESSES` failure witnesses, each naming the
input that broke the identity.  A check over free generators is a row of
:data:`ROWS`; :func:`check_family` runs a family's rows in one pass, which
applies each stage chain to an input once, so ``d x``, ``awg x`` and
``pi x`` serve every row that reads them.  The other checks are generator
bodies on random inputs.
"""

from __future__ import annotations

import functools
import random
from math import comb, prod
from typing import NamedTuple

from . import chainmaps, complexes
from .complexes import (
    ChainElement,
    bimodule_act,
    diff,
    free_terms,
    homological_degree,
    layout,
    random_barskew_slots,
    random_twisted_slots,
    term_s_degree,
    wedge_degree,
)
from .chainmaps import MAPS, DegreeOutOfRange, awg, ezg
from .polynomials import var_exp
from .skew import SkewAlgebra

#: Failure witnesses kept per check.
MAX_WITNESSES = 5

#: Terms of a chain-map defect rendered in its failure witness.
MAX_DEFECT_TERMS = 5

#: Inputs one check may run on; a run past it is refused before any check.
MAX_CHECK_INPUTS = 10 ** 6


# -- inputs ----------------------------------------------------------------

def _tags(family: str, n: int):
    """The tags of a family in degree n: if twisted, each bidegree."""
    if not family.startswith("twisted"):
        return [(family, n)]
    return (("twisted", i, n - i, family.split("_")[1]) for i in range(n + 1))


def free_basis(alg: SkewAlgebra, family: str, n: int, dmax: int):
    """(tag, slots) of every free generator of a family in degree n: outer
    slots are units and bar letters have polynomial degree 1..dmax."""
    return ((tag, slots) for tag in _tags(family, n)
            for slots in free_terms(alg, tag, dmax))


def random_term(alg: SkewAlgebra, family: str, n: int, dmax: int, rng,
                free: bool = True):
    """A random basis term (tag, slots) of one family in degree n.

    A twisted family draws the bidegree first, and a Koszul term has degree
    min(n, N).  Likewise, where the trivial group leaves no group letter or
    N = 0 no S letter, a term has the largest degree up to n that has
    terms: a twisted term of the trivial group has bidegree (0, j).
    Barskew and twisted terms draw their outer slots only when ``free`` is
    false; bar and Koszul terms of S always draw them.
    """
    no_g, no_s = alg.group.order == 1, not alg.nvars
    if family == "barskew":
        n = 0 if no_g and no_s else n
        return ("barskew", n), random_barskew_slots(alg, n, dmax, rng, free)
    outer = alg.monomials_up_to(dmax)
    if family == "bars":
        n = 0 if no_s else n
        letters = alg.monomials_up_to(dmax, include_unit=False)
        m0 = rng.choice(outer)
        mids = tuple(rng.choice(letters) for _ in range(n))
        return ("bars", n), (m0,) + mids + (rng.choice(outer),)
    if family == "koszul":
        j = min(n, alg.nvars)
        m0 = rng.choice(outer)
        w = rng.choice(alg.wedges(j))
        return ("koszul", j), (m0, w, rng.choice(outer))
    dkind = family.split("_")[1]
    top = n if dkind == "bar" and not no_s else min(n, alg.nvars)
    j = rng.randrange(top + 1)
    if no_g:
        n = j = top
    return (("twisted", n - j, j, dkind),
            random_twisted_slots(alg, n - j, j, dkind, dmax, rng, free))


def _random_twisted(alg, budgets, rng, max_total):
    """A twisted term of total degree <= max_total with random outer slots."""
    n = rng.randrange(max_total + 1)
    family = rng.choice(("twisted_bar", "twisted_koszul"))
    return random_term(alg, family, n, budgets["max_poly_degree"], rng,
                       free=False)


def _random_skew_pair(alg, rng):
    """A random basis element (m, g) of S ⋊ G with deg m <= 1."""
    mono = rng.choice(alg.monomials_up_to(1))
    return {(mono, rng.randrange(alg.group.order)): 1}


# -- records ---------------------------------------------------------------

def _slots_json(slots) -> list:
    """Slots as JSON lists (nested tuples become nested lists)."""
    return [_slots_json(v) if isinstance(v, tuple) else v for v in slots]


def _witness(tag, slots) -> dict:
    return {"tag": list(tag), "input": _slots_json(slots)}


def _record(name, checked, failures) -> dict:
    return {"name": name, "checked": checked, "passed": not failures,
            "failures": failures}


def _check(body, witness=_witness, draws="samples"):
    """A check from a generator of ``(ok, *args)`` tuples, one per input,
    named after it; a kept failure's witness is ``witness(*args)``.  The
    body draws ``budgets[draws]`` inputs, or one if ``draws`` is None."""
    @functools.wraps(body)
    def check(alg, budgets, rng):
        checked, failures = 0, []
        for ok, *args in body(alg, budgets, rng):
            checked += 1
            if not ok and len(failures) < MAX_WITNESSES:
                failures.append(witness(*args))
        return _record(body.__name__, checked, failures)
    check.draws = draws
    return check


# -- checks on random inputs ----------------------------------------------

@functools.partial(_check, draws="degree4_samples")
def d2_random_degree4(alg, budgets, rng):
    """d² = 0 on random degree-4 terms with random outer slots."""
    for _ in range(budgets["degree4_samples"]):
        family = rng.choice(("barskew", "twisted_bar", "twisted_koszul"))
        tag, slots = random_term(alg, family, 4, budgets["max_poly_degree"],
                                 rng, free=False)
        x = ChainElement.basis(alg, tag, slots)
        yield diff(diff(x)).is_zero(), tag, slots


@_check
def bimodule_axioms(alg, budgets, rng):
    """(a1 a2)x = a1(a2 x), x(b1 b2) = (x b1)b2 and (a x)b = a(x b)."""
    for _ in range(budgets["samples"]):
        tag, slots = _random_twisted(alg, budgets, rng, 2)
        x = ChainElement.basis(alg, tag, slots)
        a1, a2, b1, b2 = (_random_skew_pair(alg, rng) for _ in range(4))
        left_ok = bimodule_act(alg.mul(a1, a2), x, None) == \
            bimodule_act(a1, bimodule_act(a2, x, None), None)
        right_ok = bimodule_act(None, x, alg.mul(b1, b2)) == \
            bimodule_act(None, bimodule_act(None, x, b1), b2)
        two_ok = bimodule_act(None, bimodule_act(a1, x, None), b1) == \
            bimodule_act(a1, bimodule_act(None, x, b1), None)
        yield left_ok and right_ok and two_ok, tag, slots


@_check
def diff_commutes_with_action(alg, budgets, rng):
    """d(a x b) = a d(x) b."""
    for _ in range(budgets["samples"]):
        tag, slots = _random_twisted(alg, budgets, rng, 3)
        x = ChainElement.basis(alg, tag, slots)
        a, b = _random_skew_pair(alg, rng), _random_skew_pair(alg, rng)
        yield (diff(bimodule_act(a, x, b)) == bimodule_act(a, diff(x), b),
               tag, slots)


@functools.partial(
    _check, witness=lambda tag, slots, g: dict(_witness(tag, slots), g=g))
def group_scalar_compat(alg, budgets, rng):
    """g (s x) = (^g s)(g x) for s in S."""
    for _ in range(budgets["samples"]):
        tag, slots = _random_twisted(alg, budgets, rng, 2)
        x = ChainElement.basis(alg, tag, slots)
        g = rng.randrange(alg.group.order)
        s = {(rng.choice(alg.monomials_up_to(budgets["max_poly_degree"])),
              0): 1}
        ge = {(alg.zero_exp, g): 1}
        lhs = bimodule_act(ge, bimodule_act(s, x, None), None)
        gs = {(m, 0): c for (m, _h), c in alg.mul(ge, s).items()}
        rhs = bimodule_act(gs, bimodule_act(ge, x, None), None)
        yield lhs == rhs, tag, slots, g


@functools.partial(_check, draws=None)
def splitting_worked_degree2(alg, budgets, rng):
    """awg(ezg((1 ⊗ g ⊗ 1) ⊗ (1 ⊗ x_0 ⊗ 1))) reproduces the input."""
    if alg.group.order > 1 and alg.nvars > 0:
        tag = ("twisted", 1, 1, "bar")
        slots = (0, 1, 0, alg.zero_exp, var_exp(alg.nvars, 0), alg.zero_exp)
        x = ChainElement.basis(alg, tag, slots)
        yield awg(ezg(x)) == x, tag, slots


# -- rows: the checks over enumerated free generators ----------------------

class Row(NamedTuple):
    """A check over the free generators x of a family: that its stages
    (names of :mod:`.chainmaps` maps or ``"diff"``, first to last) send x to 0
    (kind ``zero``) or to x (``identity``), keep its S-degree (``graded``)
    or commute with d (``commutes``, also on seeded samples).  ``degrees``
    maps ``max_bar_degree`` to the degrees of x (0 through it by default;
    :func:`check_family` takes the degrees themselves), and an ``outer``
    row also varies the outer coefficients of x."""

    family: str
    stages: tuple
    kind: str
    degrees: object = lambda top: range(top + 1)
    outer: bool = False
    witness: object = _witness


#: Each check over enumerated inputs, by name.
ROWS = {
    # d² = 0; the group-bar and Koszul rows vary the outer coefficients too
    **{f"d2_{family}": Row(family, ("diff", "diff"), "zero",
                           lambda top: range(2, top + 1),
                           outer=family in ("barg", "koszul"))
       for family in ("barskew", "barg", "bars", "koszul", "twisted_bar",
                      "twisted_koszul")},
    **{f"chainmap_{name}": Row(domain, stages, "commutes")
       for name, (domain, stages) in MAPS.items()},
    # AW ∘ EZ = id through total degree 4, π ∘ ι = id through 3
    "awg_ezg_identity": Row("twisted_bar", ("ezg", "awg"), "identity",
                            lambda top: range(5)),
    "pi_iota_identity": Row("twisted_koszul", MAPS["iota"][1] + MAPS["pi"][1],
                            "identity", lambda top: range(min(3, top) + 1)),
    "pi_s_iota_s_identity": Row(
        "koszul", ("iota_s", "pi_s"), "identity",
        witness=lambda tag, slots: {"tag": list(tag),
                                    "wedge": list(slots[1])}),
    "iota_graded": Row("twisted_koszul", MAPS["iota"][1], "graded",
                       lambda top: range(min(3, top) + 1)),
    "pi_graded": Row("barskew", MAPS["pi"][1], "graded"),
}


def _defect_witness(tag, slots, lhs, rhs) -> dict:
    """The witness of d f(x) = lhs != rhs = f(d x): the input, its degree,
    and the defect lhs - rhs, as its term count and its first
    MAX_DEFECT_TERMS terms, by tag and then slots, as
    ``(c)*tag(args)(slots)``, with ``+N more`` when there are more."""
    defect = ChainElement(lhs.alg)
    defect.add_scaled(lhs)
    defect.add_scaled(rhs, lhs.alg.field.from_int(-1))
    fmt = lhs.alg.field.format
    terms = sorted((otag, s, c) for otag, part in defect.parts.items()
                   for s, c in part.items())
    shown = " + ".join(
        f"({fmt(c)})*{t[0]}({','.join(map(str, t[1:]))})"
        + repr(s).replace(" ", "") for t, s, c in terms[:MAX_DEFECT_TERMS])
    rest = len(terms) - MAX_DEFECT_TERMS
    return dict(_witness(tag, slots), degree=homological_degree(tag),
                defect_terms=len(terms),
                defect=shown + f" +{rest} more" if rest > 0 else shown)


def _holds(kind, tag, slots, fx, gx) -> bool:
    """Whether a row holds on (tag, slots), given its two chains' images."""
    if kind == "zero":
        return fx.is_zero()
    if kind == "graded":  # every term of f x has the S-degree of x
        want = term_s_degree(fx.alg, tag, slots)
        return all(term_s_degree(fx.alg, otag, s) == want
                   for otag, part in fx.parts.items() for s in part)
    return fx == gx


def check_family(alg, family, rows, max_poly_deg, samples=0,
                 sample_degree=4, seed=0) -> dict:
    """Run the rows (name -> :class:`Row`) of one family in one pass.

    The inputs are the family's free generators in the rows' degrees, each
    with every pair (a, b) of outer coefficients for an ``outer`` row (the
    unit pair is the generator), then ``samples`` random terms of
    ``sample_degree`` from an rng seeded by ``seed`` for ``commutes`` rows.
    Each stage chain, and so each prefix of one, is applied once per
    distinct input: a sample that is also an enumerated input is run with
    it, and a sample drawn again repeats its first outcome, which is held
    until the pass ends.  A draw counts as an input however often it
    repeats.  Returns each row's (inputs checked, witnesses of its first
    MAX_WITNESSES failures); a ``commutes`` witness has the defect."""
    # the two chains a row compares: f x and x, or d f x and f d x
    reads = {name: ((row.stages + ("diff",), ("diff",) + row.stages)
                    if row.kind == "commutes" else (row.stages, ()))
             for name, row in rows.items()}
    checked, failures = dict.fromkeys(rows, 0), {name: [] for name in rows}

    @functools.lru_cache(maxsize=None)
    def plan(names):
        # (chain, prefix, last stage) of each chain the rows read and of its
        # prefixes, shorter first; stages are looked up in this pass
        chains = sorted(dict.fromkeys(c[:k] for name in names
                                      for c in reads[name]
                                      for k in range(1, len(c) + 1)), key=len)
        return [(c, c[:-1], getattr(complexes if c[-1] == "diff"
                                    else chainmaps, c[-1])) for c in chains]

    def run(tag, slots, names):
        # each row's outcome on (tag, slots): the witness of its failure, or
        # None if it holds or already keeps MAX_WITNESSES
        images = {(): ChainElement.basis(alg, tag, slots)}
        for chain, prefix, stage in plan(names):
            images[chain] = stage(images[prefix])
        outcome = []
        for name in names:
            row, (f, g) = rows[name], reads[name]
            fx, gx = images[f], images[g]
            outcome.append(
                None if len(failures[name]) >= MAX_WITNESSES
                or _holds(row.kind, tag, slots, fx, gx)
                else row.witness(tag, slots) if row.kind != "commutes"
                else _defect_witness(tag, slots, fx, gx))
        return outcome

    def count(names, outcome):
        for name, witness in zip(names, outcome):
            checked[name] += 1
            if witness is not None and len(failures[name]) < MAX_WITNESSES:
                failures[name].append(witness)

    sampled = tuple(k for k, row in rows.items() if row.kind == "commutes")
    rng = random.Random(seed)
    distinct = {}  # each sample (tag, slots), as first drawn
    draws = [distinct.setdefault(term, term) for term in (
        random_term(alg, family, sample_degree, max_poly_deg, rng)
        for _ in range(samples if sampled else 0))]
    outcomes = dict.fromkeys(distinct)  # of the sampled rows, once run
    pool = (range(alg.group.order) if family == "barg"
            else alg.monomials_up_to(max_poly_deg))
    for n in sorted(set().union(*(row.degrees for row in rows.values()))):
        here = tuple(name for name, row in rows.items() if n in row.degrees)
        outer = tuple(name for name in here if rows[name].outer)
        for tag, free in free_basis(alg, family, n, max_poly_deg):
            for slots in ([(a,) + free[1:-1] + (b,) for a in pool
                           for b in pool] if outer else [free]):
                names = here if slots == free else outer
                if not (outcomes and (tag, slots) in outcomes):
                    count(names, run(tag, slots, names))
                    continue
                both = tuple(dict.fromkeys(names + sampled))
                outcome = dict(zip(both, run(tag, slots, both)))
                count(names, [outcome[name] for name in names])
                outcomes[tag, slots] = [outcome[name] for name in sampled]
    for term in draws:
        if outcomes[term] is None:
            outcomes[term] = run(*term, sampled)
        count(sampled, outcomes[term])
    return {name: (checked[name], failures[name]) for name in rows}


def verify_chainmap(alg: SkewAlgebra, name: str, degrees=(0, 1, 2, 3),
                    max_poly_deg: int = 2, samples: int = 0,
                    sample_degree: int = 4, seed: int = 0):
    """Check d ∘ f = f ∘ d for the named map of :data:`MAPS` on enumerated
    free bases plus random samples.  Returns a report dict with the number
    of inputs checked and up to MAX_WITNESSES counterexamples."""
    if name not in MAPS:
        raise ValueError(f"unknown map {name!r}")
    checked, failures = check_family(
        alg, MAPS[name][0], {name: Row(None, MAPS[name][1], "commutes",
                                       degrees)},
        max_poly_deg, samples, sample_degree, seed)[name]
    return {"map": name, "degrees": list(degrees), "checked": checked,
            "failures": failures}


def run_rows(alg: SkewAlgebra, budgets: dict, names) -> dict:
    """name -> record of each named row, from one :func:`check_family` pass
    per family; each family draws its samples from its own stream."""
    families, results = {}, {}
    for name in names:
        row = ROWS[name]
        families.setdefault(row.family, {})[name] = row._replace(
            degrees=row.degrees(budgets["max_bar_degree"]))
    for family, rows in families.items():
        results.update(check_family(
            alg, family, rows, budgets["max_poly_degree"],
            budgets["degree4_samples"], 4, budgets["seed"]))
    return {name: _record(name, *results[name]) for name in names}


# -- suites ----------------------------------------------------------------

#: suite name -> its checks in report order: names of rows, and bodies.
SUITES = {
    "complexes": (*(name for name, row in ROWS.items() if row.kind == "zero"),
                  d2_random_degree4, bimodule_axioms,
                  diff_commutes_with_action, group_scalar_compat),
    "chainmaps": tuple(f"chainmap_{name}" for name in MAPS),
    "splitting": ("awg_ezg_identity", splitting_worked_degree2,
                  "pi_iota_identity", "pi_s_iota_s_identity", "iota_graded",
                  "pi_graded"),
}


def input_count(alg: SkewAlgebra, budgets: dict, check) -> int:
    """How many inputs a check of :data:`SUITES` runs on, by formula: a bar
    run of length k has pool**k letters and a wedge slot C(N, j).  No pool
    is built, and a row's count stops once it, or the number of tags the
    row visits, is past MAX_CHECK_INPUTS."""
    if check not in ROWS:
        return budgets[check.draws] if check.draws else 1
    row, dmax, order = ROWS[check], budgets["max_poly_degree"], alg.group.order
    monomials = comb(alg.nvars + dmax, dmax)  # of degree <= dmax
    pools = {"pair": monomials * order - 1, "group": order - 1,
             "exp": monomials - 1}
    pairs = ({"barg": order, "koszul": monomials}[row.family] ** 2
             if row.outer else 1)  # of outer coefficients
    count = budgets["degree4_samples"] if row.kind == "commutes" else 0
    tags = (tag for n in row.degrees(budgets["max_bar_degree"])
            for tag in _tags(row.family, n))
    for visited, tag in enumerate(tags):
        if max(count, visited) > MAX_CHECK_INPUTS:
            return max(count, visited)
        count += pairs * prod(
            comb(alg.nvars, wedge_degree(tag)) if kind == "wedge"
            else pools[kind] ** k if bar else 1
            for kind, bar, k in layout(tag).runs)
    return count


def run_suites(alg: SkewAlgebra, budgets: dict, suite: str) -> list:
    """The records of one suite, or of all three for ``"all"``: the rows of
    all of them in one pass per family, then each suite's bodies on one rng
    seeded by ``budgets["seed"]``.  Refuses an oversized run up front."""
    suites = tuple(SUITES) if suite == "all" else (suite,)
    checks = [check for name in suites for check in SUITES[name]]
    for check in checks:
        if input_count(alg, budgets, check) > MAX_CHECK_INPUTS:
            raise DegreeOutOfRange(
                f"{getattr(check, '__name__', check)} would check more than "
                f"{MAX_CHECK_INPUTS} inputs; lower the degree budgets")
    rows = run_rows(alg, budgets, [c for c in checks if c in ROWS])
    rngs = {name: random.Random(budgets["seed"]) for name in suites}
    return [rows[c] if c in ROWS else c(alg, budgets, rngs[name])
            for name in suites for c in SUITES[name]]
