"""The invariant checks behind ``skewchain verify`` and the acceptance tests.

A check is a function ``check(alg, budgets, rng)`` returning one record
``{"name", "checked", "passed", "failures"}`` that keeps the first
:data:`MAX_WITNESSES` failure witnesses, each naming the input that broke
the identity.  A suite runs its checks in a fixed order and passes them one
rng seeded by ``budgets["seed"]``.  Every input comes from
:func:`free_basis` or :func:`random_term`.
"""

from __future__ import annotations

import functools
import itertools
import random

from .complexes import (
    ChainElement,
    bimodule_act,
    diff,
    free_terms,
    homological_degree,
    random_barskew_slots,
    random_twisted_slots,
    term_s_degree,
    term_sort_key,
)
from .chainmaps import (
    MAP_DOMAINS,
    awg,
    ezg,
    iota,
    iota_s,
    map_by_name,
    pi,
    pi_s,
)
from .polynomials import var_exp
from .skew import SkewAlgebra

#: Failure witnesses kept per check.
MAX_WITNESSES = 5

#: Terms of a chain-map defect rendered in its failure witness.
MAX_DEFECT_TERMS = 5


# -- inputs ----------------------------------------------------------------

def free_basis(alg: SkewAlgebra, family: str, n: int, dmax: int):
    """(tag, slots) of every free generator of one family in degree n.

    Outer slots are units and bar letters have polynomial degree 1..dmax.
    A twisted family runs over every bidegree (i, n - i).
    """
    if family.startswith("twisted"):
        dkind = family.split("_")[1]
        tags = [("twisted", i, n - i, dkind) for i in range(n + 1)]
    else:
        tags = [(family, n)]
    for tag in tags:
        for slots in free_terms(alg, tag, dmax):
            yield tag, slots


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
        w = rng.choice(list(itertools.combinations(range(alg.nvars), j)))
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


def _record(name, results) -> dict:
    """The record of a stream of (ok, witness) pairs, one per input."""
    checked, failures = 0, []
    for ok, witness in results:
        checked += 1
        if not ok and len(failures) < MAX_WITNESSES:
            failures.append(witness)
    return {"name": name, "checked": checked, "passed": not failures,
            "failures": failures}


def _check(body):
    """A check from a generator of (ok, witness) pairs, named after it."""
    @functools.wraps(body)
    def check(alg, budgets, rng):
        return _record(body.__name__, body(alg, budgets, rng))
    return check


# -- the complexes suite ---------------------------------------------------

def _d2_family(family):
    # The group-bar and Koszul checks also run over every pair of outer
    # coefficients, not just the units.
    def body(alg, budgets, rng):
        dmax = budgets["max_poly_degree"]
        outer = {"barg": range(alg.group.order),
                 "koszul": alg.monomials_up_to(dmax)}.get(family)
        for n in range(2, budgets["max_bar_degree"] + 1):
            for tag, free in free_basis(alg, family, n, dmax):
                variants = [free] if outer is None else [
                    (a,) + free[1:-1] + (b,) for a in outer for b in outer]
                for slots in variants:
                    x = ChainElement.basis(alg, tag, slots)
                    yield diff(diff(x)).is_zero(), _witness(tag, slots)

    body.__name__ = f"d2_{family}"
    return _check(body)


#: d² = 0 on each family in bar degrees 2..max_bar_degree.
D2_CHECKS = tuple(_d2_family(family) for family in (
    "barskew", "barg", "bars", "koszul", "twisted_bar", "twisted_koszul"))


@_check
def d2_random_degree4(alg, budgets, rng):
    """d² = 0 on random degree-4 terms with random outer slots."""
    for _ in range(budgets["degree4_samples"]):
        family = rng.choice(("barskew", "twisted_bar", "twisted_koszul"))
        tag, slots = random_term(alg, family, 4, budgets["max_poly_degree"],
                                 rng, free=False)
        x = ChainElement.basis(alg, tag, slots)
        yield diff(diff(x)).is_zero(), _witness(tag, slots)


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
        yield left_ok and right_ok and two_ok, _witness(tag, slots)


@_check
def diff_commutes_with_action(alg, budgets, rng):
    """d(a x b) = a d(x) b."""
    for _ in range(budgets["samples"]):
        tag, slots = _random_twisted(alg, budgets, rng, 3)
        x = ChainElement.basis(alg, tag, slots)
        a, b = _random_skew_pair(alg, rng), _random_skew_pair(alg, rng)
        yield (diff(bimodule_act(a, x, b)) == bimodule_act(a, diff(x), b),
               _witness(tag, slots))


@_check
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
        yield lhs == rhs, dict(_witness(tag, slots), g=g)


# -- the chainmaps suite ---------------------------------------------------

def _render_defect(defect: ChainElement) -> str:
    """The first MAX_DEFECT_TERMS terms of a defect, by tag and then
    :func:`term_sort_key`, as ``(c)*tag(args)(slots)``, with ``+N more``
    when there are more."""
    fmt = defect.alg.field.format
    terms = sorted(((tag, slots, c) for tag, part in defect.parts.items()
                    for slots, c in part.items()),
                   key=lambda t: (t[0], term_sort_key(t[1])))
    shown = " + ".join(
        f"({fmt(c)})*{tag[0]}({','.join(map(str, tag[1:]))})"
        + repr(slots).replace(" ", "")
        for tag, slots, c in terms[:MAX_DEFECT_TERMS])
    rest = len(terms) - MAX_DEFECT_TERMS
    return shown + f" +{rest} more" if rest > 0 else shown


def _commutes(alg, fn, inputs):
    """(d f(x) == f(d x), witness) for each (tag, slots) input.

    A failure's witness carries the defect d f(x) - f(d x): its term count
    and a rendering of its first terms.
    """
    for tag, slots in inputs:
        x = ChainElement.basis(alg, tag, slots)
        lhs, rhs = diff(fn(x)), fn(diff(x))
        if lhs == rhs:
            yield True, None
            continue
        defect = lhs
        defect.add_scaled(rhs, alg.field.from_int(-1))
        yield False, dict(
            _witness(tag, slots), degree=homological_degree(tag),
            defect_terms=sum(map(len, defect.parts.values())),
            defect=_render_defect(defect))


def verify_chainmap(
    alg: SkewAlgebra,
    name: str,
    degrees=(0, 1, 2, 3),
    max_poly_deg: int = 2,
    samples: int = 0,
    sample_degree: int = 4,
    seed: int = 0,
    map_fn=None,
):
    """Check d ∘ f = f ∘ d on enumerated free bases plus random samples.

    ``f`` is the named map, or ``map_fn``.  Returns a report dict with the
    number of inputs checked and up to MAX_WITNESSES counterexamples.
    """
    if name not in MAP_DOMAINS:
        raise ValueError(f"unknown map {name!r}")
    fn = map_fn if map_fn is not None else map_by_name(name)
    family = MAP_DOMAINS[name]
    rng = random.Random(seed)
    inputs = itertools.chain(
        (term for n in degrees
         for term in free_basis(alg, family, n, max_poly_deg)),
        (random_term(alg, family, sample_degree, max_poly_deg, rng)
         for _ in range(samples)),
    )
    rec = _record(name, _commutes(alg, fn, inputs))
    return {"map": name, "degrees": list(degrees),
            "checked": rec["checked"], "failures": rec["failures"]}


def _chainmap_check(name):
    def check(alg, budgets, rng):
        # Each map draws its samples from its own stream seeded by ``seed``,
        # as verify_chainmap does, so they do not depend on the maps checked
        # before it.
        rep = verify_chainmap(
            alg,
            name,
            degrees=tuple(range(budgets["max_bar_degree"] + 1)),
            max_poly_deg=budgets["max_poly_degree"],
            samples=budgets["degree4_samples"],
            sample_degree=4,
            seed=budgets["seed"],
        )
        return {"name": f"chainmap_{name}", "checked": rep["checked"],
                "passed": not rep["failures"], "failures": rep["failures"]}
    return check


# -- the splitting suite ---------------------------------------------------

def _generators(alg, budgets, family, degrees):
    """(tag, slots, basis element) of each free generator in the degrees."""
    for n in degrees:
        for tag, slots in free_basis(alg, family, n,
                                     budgets["max_poly_degree"]):
            yield tag, slots, ChainElement.basis(alg, tag, slots)


def _graded(tag, slots, image) -> bool:
    """Every term of the image has the S-degree of the basis term."""
    want = term_s_degree(image.alg, tag, slots)
    return all(term_s_degree(image.alg, otag, s) == want
               for otag, part in image.parts.items() for s in part)


@_check
def awg_ezg_identity(alg, budgets, rng):
    """AW ∘ EZ = id on twisted(bar) generators through total degree 4."""
    for tag, slots, x in _generators(alg, budgets, "twisted_bar", range(5)):
        yield awg(ezg(x)) == x, _witness(tag, slots)


@_check
def splitting_worked_degree2(alg, budgets, rng):
    """awg(ezg((1 ⊗ g ⊗ 1) ⊗ (1 ⊗ x_0 ⊗ 1))) reproduces the input."""
    if alg.group.order > 1 and alg.nvars > 0:
        tag = ("twisted", 1, 1, "bar")
        slots = (0, 1, 0, alg.zero_exp, var_exp(alg.nvars, 0), alg.zero_exp)
        x = ChainElement.basis(alg, tag, slots)
        yield awg(ezg(x)) == x, _witness(tag, slots)


@_check
def pi_iota_identity(alg, budgets, rng):
    """π ∘ ι = id on twisted(koszul) generators through total degree 3."""
    degrees = range(min(3, budgets["max_bar_degree"]) + 1)
    for tag, slots, x in _generators(alg, budgets, "twisted_koszul", degrees):
        yield pi(iota(x)) == x, _witness(tag, slots)


@_check
def pi_s_iota_s_identity(alg, budgets, rng):
    """π_S ∘ ι_S = id on the Koszul generators 1 ⊗ w ⊗ 1."""
    degrees = range(budgets["max_bar_degree"] + 1)
    for tag, slots, x in _generators(alg, budgets, "koszul", degrees):
        yield (pi_s(iota_s(x)) == x,
               {"tag": list(tag), "wedge": list(slots[1])})


@_check
def iota_graded(alg, budgets, rng):
    """ι keeps the S-degree of twisted(koszul) generators."""
    degrees = range(min(3, budgets["max_bar_degree"]) + 1)
    for tag, slots, x in _generators(alg, budgets, "twisted_koszul", degrees):
        yield _graded(tag, slots, iota(x)), _witness(tag, slots)


@_check
def pi_graded(alg, budgets, rng):
    """π keeps the S-degree of barskew generators."""
    degrees = range(budgets["max_bar_degree"] + 1)
    for tag, slots, x in _generators(alg, budgets, "barskew", degrees):
        yield _graded(tag, slots, pi(x)), _witness(tag, slots)


# -- suites ----------------------------------------------------------------

#: suite name -> its checks, in report order.
SUITES = {
    "complexes": D2_CHECKS + (d2_random_degree4, bimodule_axioms,
                              diff_commutes_with_action, group_scalar_compat),
    "chainmaps": tuple(_chainmap_check(name) for name in MAP_DOMAINS),
    "splitting": (awg_ezg_identity, splitting_worked_degree2,
                  pi_iota_identity, pi_s_iota_s_identity, iota_graded,
                  pi_graded),
}


def run_suites(alg: SkewAlgebra, budgets: dict, suite: str) -> list:
    """The records of one suite's checks, or of all three for ``"all"``."""
    records = []
    for name in SUITES if suite == "all" else (suite,):
        rng = random.Random(budgets["seed"])
        records += [check(alg, budgets, rng) for check in SUITES[name]]
    return records
