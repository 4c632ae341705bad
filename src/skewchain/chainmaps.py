"""Chain maps between the bar and twisted-product resolutions.

The two directions of the comparison are:

* ``awg`` — the group-twisted Alexander-Whitney map from the bar resolution
  of A = S ⋊ G to the twisted product of the kG bar resolution with the S
  bar resolution.  On a free basis element with bar slots s_1 g_1, ...,
  s_n g_n the l-th summand (sign (-1)^{l(n-l)}) sends the first l group
  letters into the outer product, keeps g_{l+1}..g_n as group bar slots,
  and moves every s_i — twisted by the inverse of its tail product
  g_i g_{i+1} ... g_n — into the S bar slots (i <= l) or the right outer
  S slot (i > l).  Terms with a struck bar slot vanish.
* ``ezg`` — the group-twisted Eilenberg-Zilber map, a signed sum over
  (i,j)-shuffles of the group letters and the S letters; each S letter is
  twisted by the ordered product of the group letters standing to its
  right in the shuffled word.

``awg ∘ ezg = id`` degreewise (tested, not assumed), which makes the pair
split the twisted product off the bar resolution.

On top of these sit the Koszul comparison maps:

* ``iota_s`` — antisymmetrizer from the Koszul resolution of S into its bar
  resolution (a G-equivariant chain map);
* :class:`PiSolver` — the reverse direction, built degree by degree: the
  identity in degrees 0, the divided-difference formula in degree 1, and
  for j >= 2 a deterministic linear solve of d ∘ pi_j = pi_{j-1} ∘ d inside
  each polynomial grade (the per-grade differential matrix is factored once
  and reused).  pi_s ∘ iota_s = id then holds degreewise;
* ``iota = ezg ∘ (id ⊗ iota_s)`` and ``pi = (id ⊗ pi_s) ∘ awg``, the induced
  splitting between the bar resolution of A and the twisted product with
  the Koszul resolution.

All maps accept a ChainElement or ChainVector and return a ChainVector.
"""

from __future__ import annotations

import itertools

from .complexes import (
    ChainElement,
    ChainVector,
    ShapeMismatch,
    bar_diff,
    bimodule_act,
    free_decompose,
    koszul_faces,
    linear_map,
    tensor_expand,
)
from .fields import scaled_pairs
from .linalg import FactoredSolver
from .polynomials import (
    monomial_mul,
    monomials_of_degree,
    poly_mul,
    total_degree,
    var_exp,
)
from .skew import SkewAlgebra


class DegreeOutOfRange(ValueError):
    """Raised when a homological degree exceeds the configured bound."""


# -- the twisted Alexander-Whitney map -------------------------------------

@linear_map
def awg(x) -> ChainVector:
    """Twisted Alexander-Whitney map on bar-resolution elements."""
    alg = x.alg
    if x.tag[0] != "barskew":
        raise ShapeMismatch(f"awg expects barskew elements, got {x.tag}")
    unit = alg.unit_pair
    out = ChainVector(alg)
    for slots, c in x.terms.items():
        part = _awg_free(alg, slots[1:-1])
        a = None if slots[0] == unit else {slots[0]: 1}
        b = None if slots[-1] == unit else {slots[-1]: 1}
        if a is not None or b is not None:
            part = bimodule_act(a, part, b)
        if c == 1 and len(x.terms) == 1:
            return part  # a fresh vector: no need to copy it into out
        out.add_vector(part, c)
    return out


def _awg_free(alg: SkewAlgebra, inner) -> ChainVector:
    n = len(inner)
    field = alg.field
    zero = alg.zero_exp
    out = ChainVector(alg)
    if n == 0:
        out.add_terms(("twisted", 0, 0, "bar"), [((0, 0, zero, zero), 1)])
        return out
    mlist = [p[0] for p in inner]
    glist = [p[1] for p in inner]
    gmul = alg.group.mul
    mul = field.mul
    inv = alg.group.inv
    # tails[k] = g_k g_{k+1} ... g_{n-1}; each s_k is twisted by its inverse
    tails = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        tails[k] = gmul(glist[k], tails[k + 1])
    twisted = [
        alg.action.act_monomial(inv(tails[k]), mlist[k]) for k in range(n)
    ]
    # the ell-th summand survives iff g_ell..g_{n-1} and s_0..s_{ell-1} are
    # all non-units; each term of a summand is a distinct basis term
    lo = max((k + 1 for k in range(n) if glist[k] == 0), default=0)
    hi = next((k for k in range(n) if mlist[k] == zero), n)
    # outer_sfx[k] = product of the twisted s_k ... s_{n-1}, for k >= lo
    outer_sfx = [{zero: 1}] * (n + 1)
    for k in range(n - 1, lo - 1, -1):
        outer_sfx[k] = twisted[k] if k == n - 1 else \
            poly_mul(field, twisted[k], outer_sfx[k + 1])
    prefix = alg.group.prod(glist[:lo])
    combos = [((), 1)]  # the twisted s_0 ... s_{ell-1} in the S bar slots
    for ell in range(hi + 1):
        if ell > lo:
            prefix = gmul(prefix, glist[ell - 1])
        if ell >= lo:
            outer = outer_sfx[ell].items()
            if (ell * (n - ell)) % 2:
                outer = [(mo, field.neg(co)) for mo, co in outer]
            cpart = (prefix,) + tuple(glist[ell:]) + (0, zero)
            tag = ("twisted", n - ell, ell, "bar")
            out.parts[tag] = ChainElement(alg, tag, {
                cpart + mids + (mo,): mul(cc, co)
                for mids, cc in combos for mo, co in outer})
        if ell < hi:
            combos = tensor_expand(field, combos, [twisted[ell].items()])
    return out


# -- the twisted Eilenberg-Zilber map --------------------------------------

_SHUFFLE_MEMO: dict = {}


def _shuffles(i: int, j: int):
    """Shuffle data for i group letters and j S letters.

    Each entry is (sign, word, twists): ``word`` lists ("g", r) / ("s", t)
    by output position, ``twists[t]`` is the tuple of group-letter ranks
    standing strictly to the right of S letter t in the shuffled word, in
    their original order.
    """
    key = (i, j)
    hit = _SHUFFLE_MEMO.get(key)
    if hit is not None:
        return hit
    n = i + j
    table = []
    for gpos in itertools.combinations(range(n), i):
        spos = [q for q in range(n) if q not in gpos]
        inversions = sum(p - r for r, p in enumerate(gpos))
        word = [None] * n
        for r, p in enumerate(gpos):
            word[p] = ("g", r)
        twists = []
        for t, q in enumerate(spos):
            word[q] = ("s", t)
            twists.append(tuple(r for r, p in enumerate(gpos) if p > q))
        table.append((-1 if inversions % 2 else 1, tuple(word), tuple(twists)))
    _SHUFFLE_MEMO[key] = table
    return table


@linear_map
def ezg(x) -> ChainVector:
    """Twisted Eilenberg-Zilber map on twisted-product elements (D = bar)."""
    alg = x.alg
    if x.tag[0] != "twisted" or x.tag[3] != "bar":
        raise ShapeMismatch(f"ezg expects twisted(bar) elements, got {x.tag}")
    out = ChainVector(alg)
    unit = alg.unit()
    for slots, c in x.terms.items():
        a, items, b = free_decompose(alg, x.tag, slots)
        plain_a = a == unit
        plain_b = b == unit
        for c2, (cbars, dmid) in items:
            el = _ezg_free(alg, cbars, dmid)
            if not (plain_a and plain_b):
                el = bimodule_act(None if plain_a else a, el,
                                  None if plain_b else b)
            out.add_element(el, alg.field.mul(c, c2))
    return out


def _ezg_free(alg: SkewAlgebra, cbars, dmid) -> ChainElement:
    i, j = len(cbars), len(dmid)
    field = alg.field
    unit = alg.unit_pair
    zero = alg.zero_exp

    def terms():
        for sign, word, twists in _shuffles(i, j):
            acted = [
                alg.action.act_monomial(
                    alg.group.prod(cbars[r] for r in twists[t]),
                    dmid[t]).items()
                for t in range(j)
            ]
            for ms, cc in tensor_expand(field, [((), field.from_int(sign))],
                                        acted):
                yield ((unit,)
                       + tuple((zero, cbars[r]) if kind == "g" else (ms[r], 0)
                               for kind, r in word)
                       + (unit,), cc)

    out = ChainElement(alg, ("barskew", i + j))
    field.accumulate(out.terms, terms())
    return out


# -- Koszul <-> bar comparison over S --------------------------------------

def _perm_sign(perm) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def _antisymmetrize(nvars: int, dslots):
    """iota_s on one Koszul term (m0, w, m1), as (bars slots, sign) pairs.

    The signs are the ints 1 and -1; accumulating them makes them
    canonical scalars of the field.
    """
    m0, w, m1 = dslots
    for perm in itertools.permutations(w):
        yield ((m0,) + tuple(var_exp(nvars, v) for v in perm) + (m1,),
               _perm_sign(perm))


def _termwise(x: ChainElement, tag, base, kernel) -> ChainVector:
    """Apply a per-term kernel to the slots from ``base`` on of each term.

    ``kernel`` maps those slots to ``(slots, scalar)`` pairs; the slots
    before ``base`` (none for a map of S, the C-part for id ⊗ f on the
    twisted product) are kept as they are.
    """
    field = x.alg.field

    def pairs():
        for slots, c in x.terms.items():
            head = slots[:base]
            for key, v in scaled_pairs(field, c, kernel(slots[base:])):
                yield head + key, v

    out = ChainVector(x.alg)
    out.add_terms(tag, pairs())
    return out


@linear_map
def iota_s(x) -> ChainVector:
    """Antisymmetrizer Koszul_j -> BarS_j (an S-bimodule chain map)."""
    if x.tag[0] != "koszul":
        raise ShapeMismatch(f"iota_s expects koszul elements, got {x.tag}")
    nv = x.alg.nvars
    return _termwise(x, ("bars", x.tag[1]), 0,
                     lambda d: _antisymmetrize(nv, d))


class PiSolver:
    """Degreewise construction of pi_s : BarS_j -> Koszul_j.

    Free-basis values are produced on demand and memoized:

    * j = 0: identity;
    * j = 1: the divided-difference formula — for a monomial m with sorted
      variable word u_1..u_d, pi(1⊗m⊗1) = sum_t u_1..u_{t-1} ⊗ u_t ⊗
      u_{t+1}..u_d;
    * j >= 2: the unique-up-to-boundaries solution of
      d ∘ pi_j = pi_{j-1} ∘ d inside the polynomial grade of the input
      tuple, with free variables pinned to zero (deterministic).  The
      right-hand side lies in the image by Koszul exactness, and the grade's
      differential matrix is factored once and shared by all tuples.
    * j > N (the number of variables): zero, which still satisfies the
      chain-map equation because the degree-N Koszul differential is
      injective.
    """

    def __init__(self, alg: SkewAlgebra, j_max: int = 4):
        self.alg = alg
        self.j_max = j_max
        self._values: dict = {}
        self._basis: dict = {}
        self._solvers: dict = {}

    def koszul_basis(self, j: int, grade: int):
        """Basis slots of Koszul_j in one polynomial grade, fixed order."""
        key = (j, grade)
        hit = self._basis.get(key)
        if hit is None:
            nv = self.alg.nvars
            hit = [
                (m0, w, m1)
                for w in itertools.combinations(range(nv), j)
                for da in range(grade - j + 1)
                for m0 in monomials_of_degree(nv, da)
                for m1 in monomials_of_degree(nv, grade - j - da)
            ]
            self._basis[key] = hit
        return hit

    def _grade_solver(self, j: int, grade: int) -> FactoredSolver:
        key = (j, grade)
        hit = self._solvers.get(key)
        if hit is None:
            alg = self.alg
            cols = self.koszul_basis(j, grade)
            rows = self.koszul_basis(j - 1, grade)
            row_index = {s: r for r, s in enumerate(rows)}
            matrix = [[0] * len(cols) for _ in rows]
            for cidx, slots in enumerate(cols):
                # the terms of one basis term's differential are distinct
                for s2, v in koszul_faces(alg, [(slots, 1)], 0):
                    matrix[row_index[s2]][cidx] = v
            hit = FactoredSolver(alg.field, matrix)
            self._solvers[key] = hit
        return hit

    def pi_free(self, mbar: tuple) -> dict:
        """Value on the free basis tuple, as {koszul slots: scalar}."""
        j = len(mbar)
        if j > self.j_max:
            raise DegreeOutOfRange(
                f"pi_s needs bar degree <= {self.j_max}, got {j}"
            )
        alg = self.alg
        zero = alg.zero_exp
        if j == 0:
            return {(zero, (), zero): 1}
        if j > alg.nvars:
            return {}
        hit = self._values.get(mbar)
        if hit is not None:
            return hit
        f = alg.field
        if j == 1:
            word = [
                i for i, e in enumerate(mbar[0]) for _ in range(e)
            ]

            def monomial(letters):
                e = [0] * alg.nvars
                for v in letters:
                    e[v] += 1
                return tuple(e)

            out = f.accumulate({}, (
                ((monomial(word[:t]), (word[t],), monomial(word[t + 1:])), 1)
                for t in range(len(word))))
            self._values[mbar] = out
            return out
        # j >= 2: solve within the grade of the input tuple
        free = ChainElement.basis(
            alg, ("bars", j), (zero,) + mbar + (zero,)
        )
        rhs = f.accumulate({}, (
            (key, f.mul(c, v))
            for slots2, c in bar_diff(free).terms.items()
            for key, v in self.pi_term(slots2)))
        grade = sum(total_degree(m) for m in mbar)
        rows = self.koszul_basis(j - 1, grade)
        bvec = [rhs.get(s, 0) for s in rows]
        xvec = self._grade_solver(j, grade).solve(bvec)
        cols = self.koszul_basis(j, grade)
        out = {cols[c]: v for c, v in enumerate(xvec) if v != 0}
        self._values[mbar] = out
        return out

    def pi_term(self, slots: tuple):
        """pi_s of a bar term (m0, *mids, m1) as ((m0 a, w, b m1), scalar)."""
        m0 = slots[0]
        m1 = slots[-1]
        value = self.pi_free(slots[1:-1])
        zero = self.alg.zero_exp
        if m0 == zero and m1 == zero:
            return value.items()
        return [((monomial_mul(m0, a), w, monomial_mul(b, m1)), v)
                for (a, w, b), v in value.items()]


def get_pi_solver(alg: SkewAlgebra, j_max: int = 4) -> PiSolver:
    """The per-context PiSolver, created lazily.

    A larger ``j_max`` raises the bound of the existing solver, which keeps
    its memoized values: they do not depend on the bound.
    """
    solver = getattr(alg, "_pi_solver", None)
    if solver is None:
        solver = PiSolver(alg, j_max)
        alg._pi_solver = solver
    solver.j_max = max(solver.j_max, j_max)
    return solver


@linear_map
def pi_s(x, solver: PiSolver | None = None) -> ChainVector:
    """The splitting BarS_j -> Koszul_j (an S-bimodule chain map)."""
    if x.tag[0] != "bars":
        raise ShapeMismatch(f"pi_s expects bars elements, got {x.tag}")
    solver = solver or get_pi_solver(x.alg)
    return _termwise(x, ("koszul", x.tag[1]), 0, solver.pi_term)


# -- the induced maps on the twisted product -------------------------------

@linear_map
def id_tensor_iota_s(x) -> ChainVector:
    """Apply the antisymmetrizer to the D-part of twisted(koszul) terms."""
    kind, i, j, dkind = x.tag
    if kind != "twisted" or dkind != "koszul":
        raise ShapeMismatch(f"expected twisted(koszul), got {x.tag}")
    nv = x.alg.nvars
    return _termwise(x, ("twisted", i, j, "bar"), i + 2,
                     lambda d: _antisymmetrize(nv, d))


@linear_map
def id_tensor_pi_s(x, solver: PiSolver | None = None) -> ChainVector:
    """Apply pi_s to the D-part of twisted(bar) terms."""
    kind, i, j, dkind = x.tag
    if kind != "twisted" or dkind != "bar":
        raise ShapeMismatch(f"expected twisted(bar), got {x.tag}")
    solver = solver or get_pi_solver(x.alg)
    return _termwise(x, ("twisted", i, j, "koszul"), i + 2, solver.pi_term)


def iota(x, solver: PiSolver | None = None) -> ChainVector:
    """The section X_{i,j} -> BarSkew_{i+j} (ezg after id ⊗ iota_s)."""
    return ezg(id_tensor_iota_s(x))


def pi(x, solver: PiSolver | None = None) -> ChainVector:
    """The retraction BarSkew_n -> sum of X_{i,j} (id ⊗ pi_s after awg)."""
    return id_tensor_pi_s(awg(x), solver)


#: The domain complex family of each named map, in report order.
MAP_DOMAINS = {
    "awg": "barskew",
    "ezg": "twisted_bar",
    "iota_s": "koszul",
    "pi_s": "bars",
    "iota": "twisted_koszul",
    "pi": "barskew",
}


def map_by_name(name: str, solver: PiSolver | None = None):
    fns = {
        "awg": awg,
        "ezg": ezg,
        "iota_s": iota_s,
        "pi_s": lambda x: pi_s(x, solver),
        "iota": lambda x: iota(x, solver),
        "pi": lambda x: pi(x, solver),
    }
    if name not in fns:
        raise ValueError(f"unknown map {name!r}")
    return fns[name]
