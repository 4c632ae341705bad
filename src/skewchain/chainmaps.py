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
* ``pi_s`` — the reverse direction, the closed-form map Psi of
  Shepler-Witherspoon ("Quantum differentiation and chain maps of bimodule
  complexes", Algebra & Number Theory 5, 2011) in the commutative case:
  each term is a monomial prefix ⊗ a wedge of variables ⊗ a monomial
  suffix (see ``_psi``).  It is the identity in degree 0, divided
  differences in degree 1 and zero above N, and pi_s ∘ iota_s = id holds
  on the nose;
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
    bimodule_act,
    free_decompose,
    linear_map,
    tensor_expand,
)
from .fields import scaled_pairs
from .polynomials import monomial_mul, poly_mul, var_exp
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
    memo = alg._awg_memo
    out = ChainVector(alg)
    for slots, c in x.terms.items():
        inner = slots[1:-1]
        # free images of at most 2 bar letters recur and are memoized;
        # longer ones recur little and are many
        shared = len(inner) <= 2
        part = memo.get(inner)
        if part is None:
            part = _awg_free(alg, inner)
            if shared:
                memo[inner] = part
        a = None if slots[0] == unit else {slots[0]: 1}
        b = None if slots[-1] == unit else {slots[-1]: 1}
        if a is not None or b is not None:
            part = bimodule_act(a, part, b)  # awg is a bimodule map
            shared = False
        if c == 1 and len(x.terms) == 1:
            # a stored image never reaches a caller
            return part.copy() if shared else part
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


def _psi(nvars: int, inner):
    """Psi on a free bar tuple x^{α^1} ⊗ ... ⊗ x^{α^n}, as ((L, w, R), sign).

    The closed form is (-1)^{n(n-1)/2} times the sum over variables
    j_1 > ... > j_n with α^k_{j_k} >= 1 and over 0 <= β_k < α^k_{j_k} of
    x^L ⊗ x_{j_n} ∧ ... ∧ x_{j_1} ⊗ x^R, where slot k gives L its variables
    below j_k and β_k copies of x_{j_k}, and gives R the other
    α^k_{j_k} - β_k - 1 copies and its variables above j_k.  The terms are
    distinct; the signs are the ints 1 and -1, as in ``_antisymmetrize``.
    """
    n = len(inner)
    zero = (0,) * nvars
    # (bound on the next j_k, L, w, R) of each choice for the slots so far
    partial = [(nvars, zero, (), zero)]
    for alpha in inner:
        # slot k's share (L part, R part) of each choice of j_k and β_k
        shares = [[(alpha[:j] + (beta,) + zero[j + 1:],
                    zero[:j] + (alpha[j] - beta - 1,) + alpha[j + 1:])
                   for beta in range(alpha[j])] for j in range(nvars)]
        partial = [(j, monomial_mul(L, left), (j,) + w, monomial_mul(R, right))
                   for top, L, w, R in partial for j in range(top)
                   for left, right in shares[j]]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return [((L, w, R), sign) for _, L, w, R in partial]


def _pi_s_term(alg: SkewAlgebra, slots):
    """pi_s of a bar term (m0, *inner, m1): Psi(inner) shifted by m0 and m1.

    Psi values are memoized on the algebra by inner tuple.
    """
    inner = slots[1:-1]
    value = alg._psi_memo.get(inner)
    if value is None:
        value = alg.field.accumulate({}, _psi(alg.nvars, inner))
        alg._psi_memo[inner] = value
    m0, m1 = slots[0], slots[-1]
    zero = alg.zero_exp
    if m0 == zero and m1 == zero:
        return value.items()
    return [((monomial_mul(m0, a), w, monomial_mul(b, m1)), v)
            for (a, w, b), v in value.items()]


@linear_map
def pi_s(x) -> ChainVector:
    """The splitting BarS_j -> Koszul_j (an S-bimodule chain map)."""
    if x.tag[0] != "bars":
        raise ShapeMismatch(f"pi_s expects bars elements, got {x.tag}")
    return _termwise(x, ("koszul", x.tag[1]), 0,
                     lambda s: _pi_s_term(x.alg, s))


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
def id_tensor_pi_s(x) -> ChainVector:
    """Apply pi_s to the D-part of twisted(bar) terms."""
    kind, i, j, dkind = x.tag
    if kind != "twisted" or dkind != "bar":
        raise ShapeMismatch(f"expected twisted(bar), got {x.tag}")
    return _termwise(x, ("twisted", i, j, "koszul"), i + 2,
                     lambda s: _pi_s_term(x.alg, s))


def iota(x) -> ChainVector:
    """The section X_{i,j} -> BarSkew_{i+j} (ezg after id ⊗ iota_s)."""
    return ezg(id_tensor_iota_s(x))


def pi(x) -> ChainVector:
    """The retraction BarSkew_n -> sum of X_{i,j} (id ⊗ pi_s after awg)."""
    return id_tensor_pi_s(awg(x))


#: The domain complex family of each named map, in report order.
MAP_DOMAINS = {
    "awg": "barskew",
    "ezg": "twisted_bar",
    "iota_s": "koszul",
    "pi_s": "bars",
    "iota": "twisted_koszul",
    "pi": "barskew",
}


def map_by_name(name: str):
    # each key of MAP_DOMAINS is the name of a map defined in this module
    if name not in MAP_DOMAINS:
        raise ValueError(f"unknown map {name!r}")
    return globals()[name]
