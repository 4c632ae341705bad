"""Deciding the PBW property of quadratic deformations of S(V) ⋊ G.

A deformation is determined by two parameter maps

* kappa : Λ²V -> kG, stored on wedge pairs (i, j), i < j, and
* lambda : kG ⊗ V -> kG, stored on pairs (group element, variable),

defining the filtered algebra with relations x_j x_i = x_i x_j -
kappa(x_i ∧ x_j) and g x = (^g x) g + lambda(g, x).  The deformation has
the PBW property when the associated graded algebra is all of S(V) ⋊ G —
no collapse of the monomial basis.

Three independent deciders are implemented and must agree:

* :func:`check_five` — the five closed-form conditions on (kappa, lambda)
  coming from resolving the rewriting-system ambiguities, evaluated on
  group elements and basis vectors (each condition is multilinear, so
  basis tuples suffice);
* :func:`check_cohomological` — the deformation-theoretic form: transport
  lambda and kappa to cochains mu1, mu2 on the bar resolution through the
  splitting maps and test d*(mu1) = 0, mu1∘mu1 = d*(mu2) and
  mu1∘mu2 + mu2∘mu1 = 0 on the section images of the twisted-product
  bases.  The middle condition is the circle-product form, which is used
  in every characteristic: in characteristic 2 the bracket form
  [mu1, mu1] = 2 d*(mu2) is identically 0 = 0 and carries no information,
  while the circle form keeps the intended equivalence (it doubles to the
  bracket form whenever 2 is invertible);
* :func:`oracle_pbw` — a model-free rewriting oracle: span the words of
  filtration degree <= 3 in the free product of T(V) and kG, impose all
  ideal elements a·r·b at that degree, and compare the quotient dimension
  against |G|·C(N+3, 3).

Scalars follow the field conventions of :mod:`skewchain.fields`; group
elements are table indices with 0 the identity; variables are 0-based.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .chainmaps import DegreeOutOfRange, iota, pi
from .cochains import Cochain, Expansion, circle, transport_up
from .complexes import (
    ChainElement,
    diff,
    free_slots,
    free_terms,
)
from .fields import (
    SetupError,
    scaled_pairs,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)
from .linalg import IncrementalRank
from .polynomials import var_exp, var_names
from .skew import SkewAlgebra


#: The filtration degree of the oracle's word span: degree 3 carries every
#: overlap of two quadratic relations.
ORACLE_DEGREE = 3


class MissingParams(SetupError):
    """Raised when a PBW question is posed without parameter maps."""


class SearchSpaceTooLarge(SetupError):
    """Raised when an enumeration request exceeds its configured cap."""


class PBWParams:
    """The pair (kappa, lambda) defining a quadratic deformation.

    ``kappa`` maps wedge pairs (i, j) with i < j to group-algebra dicts
    {g: scalar}; ``lambda`` maps (g, i) pairs likewise.  Zero values are
    dropped on construction.
    """

    __slots__ = ("alg", "kappa", "lam")

    def __init__(self, alg: SkewAlgebra, kappa=None, lam=None):
        self.alg = alg
        nv = alg.nvars
        order = alg.group.order
        self.kappa = {}
        for (i, j), val in (kappa or {}).items():
            if not (0 <= i < j < nv):
                raise ValueError(f"kappa index pair {(i, j)} out of range")
            val = {g: c for g, c in val.items() if c != 0}
            for g in val:
                if not 0 <= g < order:
                    raise ValueError(f"kappa group index {g} out of range")
            if val:
                self.kappa[(i, j)] = val
        self.lam = {}
        for (g, i), val in (lam or {}).items():
            if not 0 <= i < nv:
                raise ValueError(f"lambda variable index {i} out of range")
            if not 0 <= g < order:
                raise ValueError(f"lambda group index {g} out of range")
            val = {h: c for h, c in val.items() if c != 0}
            for h in val:
                if not 0 <= h < order:
                    raise ValueError(f"lambda value index {h} out of range")
            if val:
                self.lam[(g, i)] = val

    @classmethod
    def zero(cls, alg) -> "PBWParams":
        return cls(alg)

    def is_zero(self) -> bool:
        return not self.kappa and not self.lam

    def kappa_wedge(self, i: int, j: int) -> dict:
        """kappa on the ordered wedge (i, j), i < j."""
        return self.kappa.get((i, j), {})

    def kappa_eval(self, i: int, j: int) -> dict:
        """kappa on x_i ∧ x_j for arbitrary index order (antisymmetric)."""
        if i == j:
            return {}
        if i < j:
            return self.kappa.get((i, j), {})
        return vec_neg(self.alg.field, self.kappa.get((j, i), {}))

    def kappa_bilinear(self, u: dict, v: dict) -> dict:
        """kappa on a pair of linear forms (dicts {var index: scalar})."""
        f = self.alg.field
        return f.accumulate({}, ((g, f.mul(f.mul(a, b), c))
                                 for i, a in u.items() for j, b in v.items()
                                 for g, c in self.kappa_eval(i, j).items()))

    def lam_of(self, g: int, i: int) -> dict:
        return self.lam.get((g, i), {})

    def lam_linear(self, g: int, v: dict) -> dict:
        """lambda(g, -) on a linear form v = {var index: scalar}."""
        f = self.alg.field
        return f.accumulate({}, ((h, f.mul(c, ch)) for i, c in v.items()
                                 for h, ch in self.lam_of(g, i).items()))

    def lam_ga(self, a: dict, i: int) -> dict:
        """lambda extended linearly over kG in its first argument."""
        f = self.alg.field
        return f.accumulate({}, ((h, f.mul(c, ch)) for g, c in a.items()
                                 for h, ch in self.lam_of(g, i).items()))

    def identity_lambda_rows(self):
        """Variable indices i with lambda(1, x_i) nonzero."""
        return sorted(i for (g, i) in self.lam if g == 0)

    def without_identity_lambda(self) -> "PBWParams":
        lam = {(g, i): v for (g, i), v in self.lam.items() if g != 0}
        return PBWParams(self.alg, self.kappa, lam)

    @classmethod
    def random(cls, alg, rng) -> "PBWParams":
        """A seeded random parameter table, biased toward small support.

        About a quarter of draws set lambda = 0, a quarter kappa = 0, and
        lambda(1, -) is nonzero only in a small fraction of draws (such
        tables can never be PBW and exercise the failure paths).
        """
        f = alg.field
        nv = alg.nvars
        order = alg.group.order
        coeffs = (0, 0, 0, 1, -1, 1, -1, 2, -2)

        def ga_random():
            out = {}
            for g in range(order):
                c = f.from_int(rng.choice(coeffs))
                if c != 0 and rng.random() < 0.6:
                    out[g] = c
            return out

        kappa = {}
        if rng.random() >= 0.25:
            for i in range(nv):
                for j in range(i + 1, nv):
                    kappa[(i, j)] = ga_random()
        lam = {}
        if rng.random() >= 0.25:
            allow_identity = rng.random() < 0.05
            for g in range(0 if allow_identity else 1, order):
                for i in range(nv):
                    lam[(g, i)] = ga_random()
        return cls(alg, kappa, lam)


class PBWReport:
    """The outcome of one decision method.

    ``per_condition`` is a list of five {"condition", "holds", "witness"}
    dicts for the condition-based methods and None for the oracle;
    ``extras`` carries method-specific data (oracle dimensions, checked
    counts).
    """

    __slots__ = ("method", "verdict", "per_condition", "extras")

    def __init__(self, method, verdict, per_condition=None, extras=None):
        self.method = method
        self.verdict = verdict
        self.per_condition = per_condition
        self.extras = extras or {}

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "verdict": self.verdict,
            "per_condition": self.per_condition,
            "extras": self.extras,
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"PBWReport({self.method}, verdict={self.verdict})"


def _condition(number: int, names: tuple, fmt, cases) -> dict:
    """The report entry of one condition: its first failing case, if any.

    ``cases`` yields ``(defect, values)`` pairs in scan order.  The scan
    stops at the first nonzero defect, whose witness maps ``names`` to
    ``values`` and ``"defect"`` to ``fmt(defect)``; the witness is built
    for that case only.
    """
    for defect, values in cases:
        if defect:
            witness = dict(zip(names, values))
            witness["defect"] = fmt(defect)
            return {"condition": number, "holds": False, "witness": witness}
    return {"condition": number, "holds": True, "witness": None}


# -- method 1: the five closed-form conditions ------------------------------

def check_five(alg: SkewAlgebra, params: PBWParams) -> PBWReport:
    """Evaluate the five PBW conditions on all basis tuples.

    Every condition is multilinear in its V-arguments, so basis vectors
    (and, for the alternating conditions, strictly increasing index
    tuples) are sufficient.  The first failing tuple per condition is
    reported as a witness.  The action's columns ^g x_i are read as
    linear forms once per call, and a product in kG by a group element g
    is the relabelling h -> gh or h -> hg of a table row.
    """
    f = alg.field
    group = alg.group
    table = group.table
    nv = alg.nvars
    order = group.order
    pairs = list(itertools.combinations(range(nv), 2))
    triples = list(itertools.combinations(range(nv), 3))
    columns = [[dict(col) for col in row] for row in alg.action.columns]

    def act(g, i):
        return columns[g][i]

    def times(a, g):  # a·g in kG
        return {table[h][g]: c for h, c in a.items()}

    def g_times(g, a):  # g·a in kG
        row = table[g]
        return {row[h]: c for h, c in a.items()}

    def ga(a):  # a group-algebra dict {g: scalar}
        return alg.format_element(alg.of_group_algebra(a))

    def linear(v):  # a linear form {variable index: scalar}
        return alg.format_element(
            alg.of_poly({var_exp(nv, k): c for k, c in v.items()}))

    def cond1():
        # lambda(gh, v) = lambda(g, ^h v) h + g lambda(h, v)
        for g in range(order):
            for h in range(order):
                gh = group.mul(g, h)
                for i in range(nv):
                    rhs = vec_add(
                        f,
                        times(params.lam_linear(g, act(h, i)), h),
                        g_times(g, params.lam_of(h, i)),
                    )
                    yield vec_sub(f, params.lam_of(gh, i), rhs), (g, h, i)

    def cond2():
        # kappa(^g u, ^g v) g - g kappa(u, v)
        #   = lambda(lambda(g, v), u) - lambda(lambda(g, u), v)
        for g in range(order):
            for i, j in pairs:
                lhs = vec_sub(
                    f,
                    times(params.kappa_bilinear(act(g, i), act(g, j)), g),
                    g_times(g, params.kappa_wedge(i, j)),
                )
                rhs = vec_sub(
                    f,
                    params.lam_ga(params.lam_of(g, j), i),
                    params.lam_ga(params.lam_of(g, i), j),
                )
                yield vec_sub(f, lhs, rhs), (g, i, j)

    def cond3():
        # lambda_h(g, v)(^h u - ^g u) = lambda_h(g, u)(^h v - ^g v) in V
        for g in range(order):
            for h in range(order):
                for i, j in pairs:
                    cu = params.lam_of(g, i).get(h, 0)
                    cv = params.lam_of(g, j).get(h, 0)
                    if cu == 0 and cv == 0:
                        continue
                    du = vec_sub(f, act(h, i), act(g, i))
                    dv = vec_sub(f, act(h, j), act(g, j))
                    yield (vec_sub(f, vec_scale(f, cv, du),
                                   vec_scale(f, cu, dv)), (g, h, i, j))

    def cond4():
        # kappa_g(u,v)(^g w - w) + kappa_g(v,w)(^g u - u)
        #   + kappa_g(w,u)(^g v - v) = 0 in V
        for g in range(order):
            for i, j, k in triples:
                total: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    coeff = params.kappa_eval(a, b).get(g, 0)
                    if coeff != 0:
                        f.accumulate(total, scaled_pairs(
                            f, coeff, vec_sub(f, act(g, c), {c: 1}).items()))
                yield total, (g, i, j, k)

    def cond5():
        # lambda(kappa(u,v), w) + lambda(kappa(v,w), u)
        #   + lambda(kappa(w,u), v) = 0
        for i, j, k in triples:
            total: dict = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                f.accumulate(total,
                             params.lam_ga(params.kappa_eval(a, b), c).items())
            yield total, (i, j, k)

    results = [
        _condition(1, ("g", "h", "v"), ga, cond1()),
        _condition(2, ("g", "u", "v"), ga, cond2()),
        _condition(3, ("g", "h", "u", "v"), linear, cond3()),
        _condition(4, ("g", "u", "v", "w"), linear, cond4()),
        _condition(5, ("u", "v", "w"), ga, cond5()),
    ]
    verdict = all(r["holds"] for r in results)
    return PBWReport("five_conditions", verdict, results)


# -- method 2: cohomological conditions on the twisted complex --------------

def _pi_expansion(alg, inner):
    """The :class:`~skewchain.cochains.Expansion` of pi on the free bar
    generator with letters ``inner``, memoized on the algebra: the
    splitting maps do not depend on the deformation parameters, so it is
    shared across parameter tables.  It is the ``pi_fn`` of mu1 and mu2.
    """
    cache = alg._pi_image_cache
    hit = cache.get(inner)
    if hit is None:
        tag = ("barskew", len(inner))
        hit = cache[inner] = Expansion.of(pi(ChainElement.basis(
            alg, tag, free_slots(alg, tag, inner))))
    return hit


def _iota_images(alg, i, j):
    """(free key, expansion of d E, expansion of iota(E)) per X_{i,j} free
    generator E, memoized on the algebra.

    The free key is the C-part's group slots followed by the wedge's
    variables, the witness values of the condition scans.  d*(mu1) and
    kappa's term read d E; only the circle products read iota(E), on
    X_{1,2} and X_{0,3}, so no X_{2,1} image is built (its third entry is
    None).
    """
    cache = alg._iota_image_cache
    key = (i, j)
    hit = cache.get(key)
    if hit is None:
        hit = []
        tag = ("twisted", i, j, "koszul")
        for slots in free_terms(alg, tag, 1):
            e = ChainElement.basis(alg, tag, slots)
            image = None if (i, j) == (2, 1) else Expansion.of(iota(e))
            hit.append((slots[1: i + 1] + slots[i + 3],
                        Expansion.of(diff(e)), image))
        cache[key] = hit
    return hit


def _defects(alg: SkewAlgebra, params: PBWParams):
    """The defect maps of :func:`check_cohomological` for one table.

    Returns ``(d*mu1, mu1∘mu1 - d*mu2, mu1∘mu2 + mu2∘mu1)``, each a
    function of ``(boundary, image)``, the expansions of d E and iota(E)
    for a free generator E of X_{i,j} (see :func:`_iota_images`), with
    values in the skew algebra.
    """
    f = alg.field

    def lam_fn(key):
        (g,), ((i,),) = key
        return alg.of_group_algebra(params.lam_of(g, i))

    def kap_fn(key):
        _, ((i, j),) = key
        return alg.of_group_algebra(params.kappa_wedge(i, j))

    lam_x = Cochain(alg, ("twisted", 1, 1, "koszul"), lam_fn)
    kap_x = Cochain(alg, ("twisted", 0, 2, "koszul"), kap_fn)
    pif = functools.partial(_pi_expansion, alg)
    mu1 = transport_up(lam_x, pif)
    mu2 = transport_up(kap_x, pif)
    mu1_mu1 = circle(mu1, mu1)
    mu12 = circle(mu1, mu2) + circle(mu2, mu1)

    def d_mu1(boundary, image):
        return lam_x.eval_element(boundary)

    def phi2(boundary, image):
        return vec_sub(f, mu1_mu1.eval_element(image),
                       kap_x.eval_element(boundary))

    def phi3(boundary, image):
        return mu12.eval_element(image)

    return d_mu1, phi2, phi3


def check_cohomological(alg: SkewAlgebra, params: PBWParams,
                        j_max: int = 4) -> PBWReport:
    """Decide PBW through the transported cochain conditions.

    lambda and kappa define cochains on the twisted-product complex in
    bidegrees (1,1) and (0,2); their transports mu1, mu2 to the bar
    resolution must satisfy the deformation-associativity system

        d*(mu1) = 0,   mu1∘mu1 = d*(mu2),   mu1∘mu2 + mu2∘mu1 = 0,

    evaluated here on the section images of the X_{2,1}, X_{1,2} and
    X_{0,3} free bases (the cochains are supported in S-degrees that
    vanish on every other bidegree).  Each evaluation subset corresponds
    to one of the five closed-form conditions, and the report keeps that
    correspondence; only the verdicts of the two methods are claimed to
    coincide.

    The coboundaries are read off d E, E a free twisted generator.  A
    transport mu = transport_up(alpha, pi) is extended bimodule-wise,
    mu(a·F·b) = a·alpha(pi(F))·b for F a free bar generator, and then
    mu∘iota = alpha.  Both sides are A-bimodule maps (mu by its extension,
    iota because it is one), so they agree if they agree on every free
    twisted generator E.  There iota(E) is a sum of free bar generators
    (its terms have unit outer slots), on which mu = alpha∘pi, so
    mu(iota(E)) = alpha(pi(iota(E))) = alpha(E).  With d∘iota = iota∘d,

        (d*mu)(iota(E)) = mu(d iota(E)) = mu(iota(d E)) = alpha(d E),

    the twisted coboundary of lambda or kappa (Shepler–Witherspoon,
    Algebr. Represent. Theory 18, 2015).  The proof uses three facts that
    the test suite checks: iota is a chain map (``verify``'s
    ``chainmap_iota``), iota is a bimodule map (``TestModuleStructure``)
    and pi∘iota = id (``pi_iota_identity``).  pi itself is not a bimodule
    map: it is left A-linear and right S-linear, but the closed-form Ψ is
    not G-equivariant.  The proof never moves pi past an outer slot.

    The circle products mu1∘mu1, mu1∘mu2 and mu2∘mu1 still read mu on the
    bar side, on the bar letters of iota(E)'s terms; their agreement with
    the other deciders rests on the tables checked.

    Only the table's coordinates are per table.  Every pi image that mu1
    and mu2 read, and d E and iota(E) for every free generator E, are
    expanded once per algebra (:class:`~skewchain.cochains.Expansion`).
    lambda and kappa take values in kG, so a table evaluates d*(mu1),
    kappa's d*(mu2) term and every value of mu1 and mu2 as one
    contraction: per nonzero coordinate lambda(g, x_i)[h] or kappa(x_i ∧
    x_j)[h], a scalar times a stored column.  The circle products keep
    their formula on the bar side and contract on iota(E)'s expansion.
    This is exact: it sums the same field products as the term-by-term
    evaluation, in another order.

    A nonzero lambda(1, -) row cannot come from a bidegree-(1,1) cochain
    on the twisted complex; it is reported as a failure of condition (1)
    with witness g = h = 1, and the remaining conditions are evaluated
    with that row projected away.
    """
    if j_max < 3:
        raise DegreeOutOfRange(
            "the cohomological checker needs J_max >= 3"
        )
    bad = [(alg.of_group_algebra(params.lam_of(0, v)), (0, 0, v))
           for v in params.identity_lambda_rows()[:1]]
    if bad:
        params = params.without_identity_lambda()
    d_mu1, phi2, phi3 = _defects(alg, params)
    fmt = alg.format_element

    def cases(phi, i, j):
        for key, boundary, image in _iota_images(alg, i, j):
            yield phi(boundary, image), key

    # d*(mu1) on X_{2,1} and X_{1,2}, mu1∘mu1 - d*(mu2) on X_{1,2} and
    # X_{0,3}, mu1∘mu2 + mu2∘mu1 on X_{0,3}.
    results = [
        _condition(1, ("g", "h", "v"), fmt,
                   itertools.chain(bad, cases(d_mu1, 2, 1))),
        _condition(3, ("g", "u", "v"), fmt, cases(d_mu1, 1, 2)),
        _condition(2, ("g", "u", "v"), fmt, cases(phi2, 1, 2)),
        _condition(4, ("u", "v", "w"), fmt, cases(phi2, 0, 3)),
        _condition(5, ("u", "v", "w"), fmt, cases(phi3, 0, 3)),
    ]
    checked = {f"X{i}{j}": len(_iota_images(alg, i, j))
               for i, j in ((2, 1), (1, 2), (0, 3))}
    results.sort(key=lambda r: r["condition"])
    verdict = all(r["holds"] for r in results)
    return PBWReport("cohomological", verdict, results,
                     {"checked": checked})


# -- method 3: the degree-3 rewriting oracle --------------------------------

class _OracleFrame:
    """What the oracle needs of an algebra and never of a table.

    Built once per algebra, on the first :func:`oracle_pbw` call, and kept
    as ``SkewAlgebra._oracle_frame``: the normal words with their column
    index, the action's columns ``^g x_i`` (``LinearAction.columns``), the
    relabelling R_g of the columns by each right group letter, and the
    defining relations.  A relation is named by the table coordinate it
    carries, kappa(x_i ∧ x_j) for the commutator of i < j and lambda(g, x_i)
    for the straightening of g past x_i, and kept as its table-free part
    r0, (word, scalar) pairs over the letters 0..N-1 (variables) and N+g
    (group elements, g >= 1), with its budget, the degree left for the
    right word, and its overlap columns: the left columns a within the
    budget whose product a·r the overlap rule of :func:`oracle_pbw`
    keeps.

    The first zero table fills NF0(a·r0) for every relation and overlap
    column (:meth:`zero_lefts`), NF0 the normal form under the zero table.
    """

    def __init__(self, alg: SkewAlgebra):
        self.alg = alg
        nv = self.nv = alg.nvars
        order = self.order = alg.group.order
        f = alg.field
        self.nwords = _normal_words(alg, ORACLE_DEGREE)
        self.index = {w: c for c, w in enumerate(self.nwords)}
        self.degree = [sum(1 for x in w if x < nv) for w in self.nwords]
        self.columns = alg.action.columns
        #: R_g on columns, g != 1: a relabelling of the normal words.
        #: By the layout of :func:`_normal_words`, column c is monomial
        #: c // |G| then group letter h = c % |G|, and R_g makes h hg.
        mul = alg.group.mul
        self.perms = [[c - c % order + mul(c % order, g)
                       for c in range(len(self.nwords))]
                      for g in range(1, order)]
        # (coordinate, top degree, r0)
        relations = [
            (("kappa", i, j), 2, (((j, i), 1), ((i, j), f.from_int(-1))))
            for i in range(nv) for j in range(i + 1, nv)]
        for g in range(order):
            gw = (nv + g,) if g else ()
            for i in range(nv):
                free = f.accumulate({gw + (i,): 1}, (
                    ((k,) + gw, f.neg(c)) for k, c in self.columns[g][i]))
                relations.append((("lambda", g, i), 1, tuple(free.items())))
        #: (coordinate, r0, budget, overlap columns); columns are laid
        #: out by degree, so column order is scan order
        self.relations = []
        for coord, top, free in relations:
            budget = ORACLE_DEGREE - top
            self.relations.append((coord, free, budget, tuple(
                a for a, d in enumerate(self.degree)
                if d <= budget and self.overlaps(coord, a))))
        self._zero_lefts = None

    def overlaps(self, coord, a: int) -> bool:
        """Whether the overlap rule of :func:`oracle_pbw` keeps the left
        product a·r, r the relation carrying coord."""
        if a % self.order:
            return True
        kind, u, v = coord
        if kind == "lambda":
            return u == 0
        m = self.nwords[a]
        return bool(m) and m[-1] > v

    def zero_lefts(self) -> list:
        """NF0(a·r0) per relation and overlap column, in scan order,
        computed on the first zero table by the zero-table rows."""
        if self._zero_lefts is None:
            rows = _Rows(self, PBWParams.zero(self.alg))
            self._zero_lefts = [[rows.left(a, free) for a in columns]
                                for _c, free, _b, columns in self.relations]
        return self._zero_lefts


def _frame(alg: SkewAlgebra) -> _OracleFrame:
    """The algebra's oracle frame, built on first use."""
    if alg._oracle_frame is None:
        alg._oracle_frame = _OracleFrame(alg)
    return alg._oracle_frame


def _relation_tag(coord) -> dict:
    """The witness name of the relation that carries a coordinate."""
    kind, u, v = coord
    if kind == "kappa":
        return {"kind": "commutator", "i": u, "j": v}
    return {"kind": "straightening", "g": u, "i": v}


class _Rows:
    """The right-multiplication rows R_x(c) = NF(nwords[c]·x) of one table.

    A row is a tuple of (column, scalar) pairs, defined for columns of
    degree <= 2 and filled on first use by one leftmost rewriting step
    and the right-closure identity (the three cases of
    :func:`oracle_pbw`).
    """

    def __init__(self, frame: _OracleFrame, params: PBWParams):
        self.frame = frame
        self.params = params
        self.field = frame.alg.field
        self.nv = frame.nv
        self._rows = [{} for _ in range(frame.nv)]

    def row(self, x: int, c: int) -> tuple:
        """R_x(c), filled on first use."""
        hit = self._rows[x].get(c)
        return self._step(x, c) if hit is None else hit

    def times(self, x: int, pairs) -> dict:
        """R_x on a column vector given as (column, scalar) pairs."""
        f = self.field
        rows = self._rows[x]
        out: dict = {}
        for c, s in pairs:
            row = rows.get(c)
            if row is None:
                row = self._step(x, c)
            f.accumulate(out, scaled_pairs(f, s, row))
        return out

    def left(self, a: int, el) -> dict:
        """NF(nwords[a]·el) for (word, scalar) pairs el, each word applied
        one right letter at a time."""
        f, nv = self.field, self.nv
        out: dict = {}
        for w, s in el:
            v = ((a, s),)
            for x in w:
                if x < nv:
                    v = self.times(x, v).items()
                else:
                    perm = self.frame.perms[x - nv - 1]
                    v = [(perm[z], d) for z, d in v]
            f.accumulate(out, v)
        return out

    def _step(self, x: int, c: int) -> tuple:
        """Fill R_x(c) from the leftmost redex of nwords[c]·x."""
        frame, f = self.frame, self.field
        h = c % frame.order
        m = c - h  # the column of c's monomial
        mono = frame.nwords[m]
        if h:
            # m·h·x -> sum_k (^h x)_k m·x_k·h + lambda(h, x) at (h, x)
            perm = frame.perms[h - 1]
            out = {m + g: d for g, d in self.params.lam_of(h, x).items()}
            for k, s in frame.columns[h][x]:
                f.accumulate(out, ((perm[z], f.mul(s, d))
                                   for z, d in self.row(k, m)))
        elif not mono or x >= mono[-1]:
            out = {frame.index[mono + (x,)]: 1}
        else:
            # m'·x_j·x -> m'·x·x_j - kappa(x ∧ x_j) at (x_j, x)
            j = mono[-1]
            prev = frame.index[mono[:-1]]
            out = f.accumulate(self.times(j, self.row(x, prev)), (
                (prev + g, f.neg(d))
                for g, d in self.params.kappa_wedge(x, j).items()))
        row = self._rows[x][c] = tuple(out.items())
        return row


def _normal_words(alg: SkewAlgebra, max_degree: int):
    """All normal-form words of filtration degree <= max_degree.

    Laid out monomial by monomial: word m·|G| + h is the m-th sorted
    monomial followed by the group letter h (none for the identity,
    h = 0).  The frame's R_g relabelling and the rows read columns by
    this layout.
    """
    nv = alg.nvars
    out = []
    for d in range(max_degree + 1):
        for mono in itertools.combinations_with_replacement(range(nv), d):
            out.append(mono)
            for g in range(1, alg.group.order):
                out.append(mono + (nv + g,))
    return out


def oracle_pbw(alg: SkewAlgebra, params: PBWParams,
               early_exit: bool = False) -> PBWReport:
    """Decide PBW by rank over the degree-<= 3 word span.

    Every ideal element a·r·b (r a defining relation, a and b normal words
    with total filtration degree within ``ORACLE_DEGREE``) is rewritten to
    normal form; the span of these reductions measures exactly the
    collapse of the normal-word basis, so the quotient dimension is

        #normal words - rank  =  |G|·C(N+3, 3)   iff PBW.

    Normal sandwich words suffice: any word is a combination of normal
    words plus shorter sandwiches.  The group-product relations gh - (gh)
    are omitted: word concatenation multiplies inside kG, so their
    sandwiches reduce to zero.  Their overlaps with the straightening rule
    are still exercised, by left words ending in a group letter.  With
    ``early_exit`` the first nonzero reduction settles the verdict
    (dimension is then not computed and reported as None).

    Normal forms are those of leftmost reduction in the free product of
    T(V) and kG, by the defining relations

        (N+g, i)  ->  sum_k (^g x_i)_k (k, N+g)  +  lambda(g, x_i)
        (j, i)    ->  (i, j) - kappa(x_i ∧ x_j)          for j > i,

    which terminates: each step lowers the filtration degree or moves the
    word down in the (group letters left of variables, variable
    inversions) order.  For a legal word y and legal words b1, b2,

        NF(y·b1·b2)  =  R_b2(R_b1(NF(y))),   R_b(v) = sum_z v[z]·NF(z·b),

    because leftmost reduction brings y to normal form before it reaches
    b: a redex of y·b inside y lies left of the junction, and merging
    group letters at the junction touches no redex (a pair ending in a
    group letter is never one).  This holds on non-PBW tables too, where
    the system is not confluent.  R_g (g != 1) merely relabels normal
    words, and the rows R_x(c) = NF(nwords[c]·x) of a variable x
    (:class:`_Rows`) follow from one leftmost step each.  Write the
    column c as m·h, m a sorted monomial and h a group letter:

    * h != 1: the leftmost redex is (h, x), so
      R_x(c) = sum_k (^h x)_k R_h(R_(x_k)(m)) + sum_g lambda(h, x)_g m·g;
    * h = 1 and m empty or x >= last(m): m·x is normal, R_x(c) = m·x;
    * m = m'·x_j with x < j: the leftmost redex is (x_j, x), so
      R_x(c) = R_(x_j)(R_x(m')) - sum_g kappa(x ∧ x_j)_g m'·g.

    Each case is the rewriting step at the leftmost redex followed by the
    right-closure identity on the words it spawns (m·x_k·h, m'·x·x_j; the
    words m·g and m'·g are normal), so every row, and every normal form
    below, is the one leftmost reduction gives.  The recursion ends
    because every row it asks for belongs to a word of the reduction tree
    of nwords[c]·x.  A left product is then NF(a·r) = sum over the words
    w of r of its scalar times R_w(a), one letter of w at a time: for
    the commutator R_i(R_j(a)) - R_j(R_i(a)) + kappa(x_i ∧ x_j)·a, for
    the straightening R_i(R_g(a)) - sum_k (^g x_i)_k R_g(R_k(a)) -
    lambda(g, x_i)·a.

    The span is built by right-closure rather than sandwich by sandwich.
    With ``left = NF(a·r)`` of budget k (the degree left for b), the
    sandwiches a·r·b are the images of the left products under the
    products of one-letter maps R_x.  Write W_k^j for the span of
    R_m(left) over lefts of budget >= k and sorted monomials m of degree
    <= budget - k in the variables x_0..x_j (W_k^-1: the lefts alone).
    Then

        W_k^j  =  W_k^(j-1)  +  R_(x_j)(W_(k+1)^j),

    since a sorted monomial with a letter j ends in x_j.  Going down from
    the largest budget, each level starts from a basis of the level
    above's W^-1 plus its own lefts and closes one letter at a time on
    bases, the residual rows ``IncrementalRank.insert`` returns (linear
    maps carry a spanning set to a spanning set).  A normal right word
    is a sorted monomial, then at most one group letter, so the span is
    W_0^(N-1) plus its images under R_g, g != 1.  The witness is the
    first nonzero left product in scan order (the sandwich with the
    empty right word).

    Only overlaps are reduced (Bergman's diamond lemma, Adv. Math. 29,
    1978): the left products below are zero under every table, term for
    term by the row cases themselves, and the frame's overlap columns
    (:class:`_OracleFrame`) leave them out.  Write the left column a as
    m·h with h = 1:

    * the straightening of g != 1 past x_i: R_i(R_g(m)) = R_i(m·g) is the
      first case with h = g, which is exactly the rest of NF(m·r);
    * the commutator of i < j, m empty or last(m) <= j: R_j(m) = m·x_j by
      the second case, and R_i(m·x_j) = R_j(R_i(m)) - kappa(x_i ∧ x_j)·m
      by the third.

    The straightening of g = 1 carries only lambda(1, x_i) and is never
    skipped.  A skipped product is zero, so the witness, the span and the
    scan order are those of the unskipped loop.  On the zero table the
    left products are read from the frame, which computes each NF0(a·r0)
    once per algebra by the same rows, never assuming it zero (though it
    is: the undeformed algebra is PBW).
    """
    frame = _frame(alg)
    f = alg.field
    nv = alg.nvars
    nwords = frame.nwords
    expected = alg.group.order * comb(alg.nvars + ORACLE_DEGREE,
                                     ORACLE_DEGREE)
    witness = None

    def report(r):
        """The oracle's report at rank r (None after an early exit)."""
        return PBWReport("oracle", r == 0, None, {
            "dimension": None if r is None else len(nwords) - r,
            "expected_dimension": expected,
            "normal_words": len(nwords),
            "rank": r,
            "mode": "normal_sandwich",
            "witness": witness,
        })

    rows = _Rows(frame, params)
    zero_lefts = frame.zero_lefts() if params.is_zero() else None
    # the nonzero left products NF(a·r) by budget, as {column: scalar}
    lefts = [[] for _ in range(ORACLE_DEGREE + 1)]
    for n, (coord, free, budget, columns) in enumerate(frame.relations):
        kind, u, v = coord
        value = (params.kappa_wedge(u, v) if kind == "kappa"
                 else vec_neg(f, params.lam_of(u, v)))
        el = f.accumulate(dict(free), (((nv + g,) if g else (), c)
                                       for g, c in value.items())).items()
        if not el:
            continue
        for i, a in enumerate(columns):
            vec = (rows.left(a, el) if zero_lefts is None
                   else zero_lefts[n][i])
            if not vec:
                continue
            if witness is None:
                witness = {
                    "left": list(nwords[a]),
                    "relation": _relation_tag(coord),
                    "right": [],
                    "reduction": _format_words(alg, vec, nwords),
                }
                if early_exit:
                    return report(None)
            lefts[budget - frame.degree[a]].append(vec)

    def times_group(perm):
        """R_g on column vectors: a relabelling of the normal words."""
        return lambda v: {perm[z]: c for z, c in v.items()}

    var_maps = [lambda v, x=x: rows.times(x, v.items()) for x in range(nv)]
    group_maps = [times_group(perm) for perm in frame.perms]
    # the level above as (basis, marks): basis[:marks[j + 1]] spans W^j
    above, marks_above = [], [0] * (nv + 1)
    for k in range(ORACLE_DEGREE, -1, -1):
        span = IncrementalRank(f)
        basis = list(filter(None, map(span.insert, itertools.chain(
            above[:marks_above[0]], lefts[k]))))
        marks = [len(basis)]
        for x, times in enumerate(var_maps):
            basis.extend(filter(None, map(span.insert,
                                          map(times, above[:marks_above[x + 1]]))))
            marks.append(len(basis))
        if k == 0:
            closed = basis[:]
            for times in group_maps:
                basis.extend(filter(None, map(span.insert,
                                              map(times, closed))))
        above, marks_above = basis, marks
    return report(span.rank)


def _format_words(alg, vec: dict, nwords) -> str:
    nv = alg.nvars
    names = var_names(nv)
    parts = []
    for col in sorted(vec):
        w = nwords[col]
        factors = [
            names[x] if x < nv else alg.group.label(x - nv) for x in w
        ]
        body = "*".join(factors) if factors else "1"
        parts.append(f"({alg.field.format(vec[col])})*{body}")
    return " + ".join(parts)


# -- batch driver -----------------------------------------------------------

def check_all(alg: SkewAlgebra, params: PBWParams, j_max: int = 4):
    """Run all three methods; returns (reports dict, agree flag).

    The oracle exits early: agreement needs only its verdict.
    """
    reports = {
        "five_conditions": check_five(alg, params),
        "cohomological": check_cohomological(alg, params, j_max),
        "oracle": oracle_pbw(alg, params, early_exit=True),
    }
    verdicts = {r.verdict for r in reports.values()}
    return reports, len(verdicts) == 1


def enumerate_pbw(alg: SkewAlgebra, kappa_candidates,
                  lambda_candidates=(), cap: int = 200000):
    """All parameter tables over finite candidate sets that pass check_five.

    Every kappa entry (wedge pair) ranges over ``kappa_candidates`` and
    every lambda entry (non-identity group element, variable) over
    ``lambda_candidates``; an empty candidate list pins that map to zero.
    Candidates are group-algebra dicts {g: scalar}.  Raises
    SearchSpaceTooLarge when the assignment count exceeds ``cap``.
    """
    nv = alg.nvars
    order = alg.group.order
    kslots = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    lslots = [(g, i) for g in range(1, order) for i in range(nv)]
    kc = [dict(c) for c in kappa_candidates] or [{}]
    lc = [dict(c) for c in lambda_candidates] or [{}]
    size = len(kc) ** len(kslots) * len(lc) ** len(lslots)
    if size > cap:
        raise SearchSpaceTooLarge(
            f"{size} assignments exceed the cap of {cap}"
        )
    found = []
    for kvals in itertools.product(kc, repeat=len(kslots)):
        kappa = {s: v for s, v in zip(kslots, kvals) if v}
        for lvals in itertools.product(lc, repeat=len(lslots)):
            lam = {s: v for s, v in zip(lslots, lvals) if v}
            params = PBWParams(alg, kappa, lam)
            if check_five(alg, params).verdict:
                found.append(params)
    return found
