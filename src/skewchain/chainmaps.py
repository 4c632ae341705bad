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

All maps read the ``{tag: {slots: coeff}}`` parts of a ChainElement once
and return one ChainElement.  Their kernels (``_awg_free``,
``_ezg_free``, ``_antisymmetrize``, ``_pi_s_terms``) yield ``(slots,
coeff)`` pairs, which go through the ``act_*`` actions of
:mod:`skewchain.complexes` when a term has outer coefficients, and then
into the output through :meth:`ChainElement.add_terms`.
"""

from __future__ import annotations

import itertools

from .complexes import (
    ChainElement,
    ShapeMismatch,
    act_barskew_left,
    act_barskew_right,
    add_moved,
    free_decompose,
    tensor_expand,
)
from .polynomials import monomial_mul, poly_mul, var_exp
from .skew import SkewAlgebra


class DegreeOutOfRange(ValueError):
    """Raised when a homological degree exceeds the configured bound."""


# -- the twisted Alexander-Whitney map -------------------------------------

def awg(x) -> ChainElement:
    """Twisted Alexander-Whitney map on bar-resolution elements.

    awg is a bimodule map, so each term a . E . b is the image of its free
    generator E moved by its outer slots a and b.
    """
    alg = x.alg
    memo = alg._awg_memo
    out = ChainElement(alg)
    for tag, terms in x.parts.items():
        if tag[0] != "barskew":
            raise ShapeMismatch(f"awg expects barskew elements, got {tag}")
        for slots, c in terms.items():
            inner = slots[1:-1]
            image = memo.get(inner)
            if image is None:
                image = _awg_free(alg, inner)
                # free images of at most 2 bar letters recur and are
                # memoized, as tuples; longer ones recur little and are many
                if len(inner) <= 2:
                    image = memo[inner] = tuple(
                        (ptag, tuple(pairs)) for ptag, pairs in image)
            add_moved(out, c, slots[0], image, slots[-1])
    return out


def _awg_free(alg: SkewAlgebra, inner):
    """awg of the free generator with bar letters ``inner``, as
    ``(tag, pairs)`` per summand."""
    n = len(inner)
    field = alg.field
    zero = alg.zero_exp
    if n == 0:
        yield ("twisted", 0, 0, "bar"), [((0, 0, zero, zero), 1)]
        return
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
            yield ("twisted", n - ell, ell, "bar"), [
                (cpart + mids + (mo,), mul(cc, co))
                for mids, cc in combos for mo, co in outer]
        if ell < hi:
            combos = tensor_expand(field, combos, [twisted[ell].items()])


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


def ezg(x) -> ChainElement:
    """Twisted Eilenberg-Zilber map on twisted-product elements (D = bar)."""
    alg = x.alg
    f = alg.field
    unit = alg.unit()
    out = ChainElement(alg)
    for tag, terms in x.parts.items():
        if tag[0] != "twisted" or tag[3] != "bar":
            raise ShapeMismatch(
                f"ezg expects twisted(bar) elements, got {tag}")
        btag = ("barskew", tag[1] + tag[2])
        for slots, c in terms.items():
            a, items, b = free_decompose(alg, tag, slots)
            for c2, (cbars, dmid) in items:
                pairs = _ezg_free(alg, cbars, dmid, f.mul(c, c2))
                if a != unit:
                    pairs = act_barskew_left(alg, btag, pairs, a)
                if b != unit:
                    pairs = act_barskew_right(alg, btag, pairs, b)
                out.add_terms(btag, pairs)
    return out


def _ezg_free(alg: SkewAlgebra, cbars, dmid, coeff):
    """coeff times ezg of the free generator, as (slots, coeff) pairs."""
    i, j = len(cbars), len(dmid)
    field = alg.field
    unit = alg.unit_pair
    zero = alg.zero_exp
    for sign, word, twists in _shuffles(i, j):
        acted = [
            alg.action.act_monomial(
                alg.group.prod(cbars[r] for r in twists[t]),
                dmid[t]).items()
            for t in range(j)
        ]
        signed = coeff if sign == 1 else field.neg(coeff)
        for ms, cc in tensor_expand(field, [((), signed)], acted):
            yield ((unit,)
                   + tuple((zero, cbars[r]) if kind == "g" else (ms[r], 0)
                           for kind, r in word)
                   + (unit,), cc)


# -- Koszul <-> bar comparison over S --------------------------------------

def _perm_sign(perm) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def _antisymmetrize(alg: SkewAlgebra, pairs, lo):
    """iota_s on the Koszul slots (m0, w, m1) at lo of each ``(slots,
    coeff)``: the signed permutations of w as bar letters."""
    nv = alg.nvars
    neg = alg.field.neg
    for slots, c in pairs:
        head = slots[:lo]
        m0, w, m1 = slots[lo:]
        signed = {1: c, -1: neg(c)}
        for perm in itertools.permutations(w):
            yield (head + (m0,) + tuple(var_exp(nv, v) for v in perm)
                   + (m1,), signed[_perm_sign(perm)])


def iota_s(x) -> ChainElement:
    """Antisymmetrizer Koszul_j -> BarS_j (an S-bimodule chain map)."""
    out = ChainElement(x.alg)
    for tag, terms in x.parts.items():
        if tag[0] != "koszul":
            raise ShapeMismatch(f"iota_s expects koszul elements, got {tag}")
        out.add_terms(("bars", tag[1]),
                      _antisymmetrize(x.alg, terms.items(), 0))
    return out


def _psi(nvars: int, inner):
    """Psi on a free bar tuple x^{α^1} ⊗ ... ⊗ x^{α^n}, as ((L, w, R), sign).

    The closed form is (-1)^{n(n-1)/2} times the sum over variables
    j_1 > ... > j_n with α^k_{j_k} >= 1 and over 0 <= β_k < α^k_{j_k} of
    x^L ⊗ x_{j_n} ∧ ... ∧ x_{j_1} ⊗ x^R, where slot k gives L its variables
    below j_k and β_k copies of x_{j_k}, and gives R the other
    α^k_{j_k} - β_k - 1 copies and its variables above j_k.  The terms are
    distinct; the signs are the ints 1 and -1.
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


def _pi_s_terms(alg: SkewAlgebra, pairs, lo):
    """pi_s on the bar slots (m0, *inner, m1) from lo on of each ``(slots,
    coeff)``: Psi(inner) shifted by m0 and m1.

    Psi values are memoized on the algebra by inner tuple.
    """
    mul = alg.field.mul
    zero = alg.zero_exp
    memo = alg._psi_memo
    for slots, c in pairs:
        head, m0, m1 = slots[:lo], slots[lo], slots[-1]
        inner = slots[lo + 1:-1]
        value = memo.get(inner)
        if value is None:
            value = memo[inner] = alg.field.accumulate(
                {}, _psi(alg.nvars, inner))
        plain = m0 == zero and m1 == zero
        for (a, w, b), v in value.items():
            if not plain:
                a, b = monomial_mul(m0, a), monomial_mul(b, m1)
            yield head + (a, w, b), v if c == 1 else mul(c, v)


def pi_s(x) -> ChainElement:
    """The splitting BarS_j -> Koszul_j (an S-bimodule chain map)."""
    out = ChainElement(x.alg)
    for tag, terms in x.parts.items():
        if tag[0] != "bars":
            raise ShapeMismatch(f"pi_s expects bars elements, got {tag}")
        out.add_terms(("koszul", tag[1]),
                      _pi_s_terms(x.alg, terms.items(), 0))
    return out


# -- the induced maps on the twisted product -------------------------------

def id_tensor_iota_s(x) -> ChainElement:
    """Apply the antisymmetrizer to the D-part of twisted(koszul) terms."""
    out = ChainElement(x.alg)
    for tag, terms in x.parts.items():
        if tag[0] != "twisted" or tag[3] != "koszul":
            raise ShapeMismatch(f"expected twisted(koszul), got {tag}")
        out.add_terms(tag[:3] + ("bar",),
                      _antisymmetrize(x.alg, terms.items(), tag[1] + 2))
    return out


def id_tensor_pi_s(x) -> ChainElement:
    """Apply pi_s to the D-part of twisted(bar) terms."""
    out = ChainElement(x.alg)
    for tag, terms in x.parts.items():
        if tag[0] != "twisted" or tag[3] != "bar":
            raise ShapeMismatch(f"expected twisted(bar), got {tag}")
        out.add_terms(tag[:3] + ("koszul",),
                      _pi_s_terms(x.alg, terms.items(), tag[1] + 2))
    return out


def iota(x) -> ChainElement:
    """The section X_{i,j} -> BarSkew_{i+j} (ezg after id ⊗ iota_s)."""
    return ezg(id_tensor_iota_s(x))


def pi(x) -> ChainElement:
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
