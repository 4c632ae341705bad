"""Chain complexes over a skew group algebra A = S(V) ⋊ G.

Five families of complexes share one term representation.  A complex is
named by a tag tuple and a term is a tuple of slots, whose kinds and bar
slots (inner slots, where the unit is struck out) :func:`layout` gives:

``("barskew", n)``
    Reduced bar resolution of A: n+2 "pair" slots, basis pairs
    ``(exp, g)``, positions 1..n bar slots.
``("barg", i)``
    Reduced bar resolution of kG: i+2 "group" slots, group indices.
``("bars", j)``
    Reduced bar resolution of S: j+2 "exp" slots, exponent tuples.
``("koszul", j)``
    Koszul resolution S ⊗ Λ^j V ⊗ S: slots ``(exp, wedge, exp)`` with the
    wedge a strictly increasing tuple of j variable indices.
``("twisted", i, j, dkind)``
    Twisted product X_{i,j} of the kG bar resolution with a resolution of S
    (``dkind`` is "bar" or "koszul"): the ``("barg", i)`` slots followed by
    the D-part slots.  The differential is slotwise,
    d_C ⊗ 1 + (-1)^i 1 ⊗ d_D, while the A-bimodule structure twists through
    the group degree of the C-part (see ``act_skew_left/right``).

A :class:`ChainElement` is a sum over tags of terms, held as
``parts = {tag: {slots: coeff}}``: a basis term has one part, and a map
such as awg, whose image spreads over several bidegrees, gives several.
A map application reads the parts of its input and builds one chain: for
each output tag it sends a stream of ``(slots, coeff)`` pairs from a
kernel into :meth:`ChainElement.add_terms`, and no intermediate chain is
built.
The kernels take and yield such pairs: :func:`bar_faces` for the bar
complexes and the bar D-part, :func:`koszul_faces` for the Koszul complex
and the Koszul D-part, and the four ``act_*`` actions of
:func:`bimodule_act`.
"""

from __future__ import annotations

import functools
import itertools

from .fields import SetupError, scaled_pairs
from .polynomials import monomial_mul, total_degree, var_exp
from .skew import SkewAlgebra


class ShapeMismatch(SetupError):
    """Raised when slots do not match the shape demanded by a complex tag."""


# -- tags and slot layouts --------------------------------------------------

#: The slot kind of each bar complex.
BAR_SLOTS = {"barskew": "pair", "barg": "group", "bars": "exp"}


class Layout:
    """The ``(kind, bar)`` of each slot of a complex's terms, in slot order.

    Held as runs ``(kind, bar, length)``: the layout of a tag of any degree
    is a few runs, and its length is known before any slot is read.
    """

    __slots__ = ("runs",)

    def __init__(self, runs):
        self.runs = runs

    def __len__(self):
        return sum(n for _kind, _bar, n in self.runs)

    def __iter__(self):
        for kind, bar, n in self.runs:
            yield from itertools.repeat((kind, bar), n)


@functools.lru_cache(maxsize=1024)
def layout(tag) -> Layout:
    """The slot layout of a complex, the one table that shapes, strikeouts,
    S-degrees, free bases and the JSON codec read.

    ``kind`` is "pair", "group", "exp" or "wedge"; ``bar`` marks an inner
    slot of a reduced bar complex, where the unit is struck out.  Layouts
    are cached by tag: a few runs each, whatever the degree.
    """
    kind = tag[0]
    if kind == "twisted":
        return Layout(layout(("barg", tag[1])).runs + layout(_d_tag(tag)).runs)
    if kind == "koszul":
        return Layout((("exp", False, 1), ("wedge", False, 1),
                       ("exp", False, 1)))
    slot = BAR_SLOTS.get(kind)
    if slot is None:
        raise ShapeMismatch(f"unknown complex tag {tag!r}")
    return Layout(((slot, False, 1), (slot, True, tag[1]), (slot, False, 1)))


def wedge_degree(tag) -> int:
    """The number of variables in the wedge slot of a Koszul-type tag."""
    return tag[2] if tag[0] == "twisted" else tag[1]


def homological_degree(tag) -> int:
    return tag[1] + tag[2] if tag[0] == "twisted" else tag[1]


#: The polynomial degree of a slot, by kind; a wedge of w variables has w.
_S_DEGREE = {"pair": lambda s: total_degree(s[0]), "group": lambda s: 0,
             "exp": total_degree, "wedge": len}


def term_s_degree(alg: SkewAlgebra, tag, slots) -> int:
    """Total polynomial degree of a term (group slots contribute 0)."""
    total = pos = 0
    for kind, _bar, n in layout(tag).runs:
        total += sum(map(_S_DEGREE[kind], slots[pos:pos + n]))
        pos += n
    return total


def _d_tag(tag):
    """The tag of the D-part of a twisted tag."""
    return ("bars", tag[2]) if tag[3] == "bar" else ("koszul", tag[2])


# -- chains ----------------------------------------------------------------

class ChainElement:
    """A finite k-linear combination of basis terms, over one complex or
    several: ``parts`` maps each tag to its ``{slots: coeff}`` terms.

    A part is present only while it has terms, so a chain whose terms
    cancel equals the empty chain.
    """

    __slots__ = ("alg", "parts")

    def __init__(self, alg: SkewAlgebra, parts=None):
        self.alg = alg
        self.parts: dict = {} if parts is None else parts

    @classmethod
    def basis(cls, alg, tag, slots, coeff=1):
        return cls(alg, {tag: {slots: coeff}} if coeff != 0 else {})

    def add_terms(self, tag, pairs):
        """Accumulate the ``(slots, coeff)`` pairs into the part of a tag."""
        parts = self.parts
        terms = self.alg.field.accumulate(parts.get(tag) or {}, pairs)
        if terms:
            parts[tag] = terms
        else:
            parts.pop(tag, None)

    def add_scaled(self, x, c=1):
        """Accumulate c times the chain x, which must share the algebra."""
        self.alg.require_same(x.alg)
        for tag, terms in x.parts.items():
            self.add_terms(tag, scaled_pairs(self.alg.field, c,
                                             terms.items()))

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        return isinstance(other, ChainElement) and self.parts == other.parts

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<ChainElement tags={sorted(self.parts)}>"


def as_vector(x) -> ChainElement:
    """x itself: every chain is one ChainElement, whatever its tags.  Kept
    because ``perfbench/workloads.py`` compares ``pi(iota(x))`` against
    ``as_vector(x)``."""
    return x


# -- construction with normalization ---------------------------------------

def tensor_expand(field, combos, factors):
    """Expand prefixed terms by a tensor product of linear combinations.

    ``combos`` holds ``(prefix, coeff)`` pairs and each factor is an
    iterable of ``(item, scalar)`` pairs; the result lists every
    ``(prefix + (item_1, ..., item_k), coeff * scalar_1 * ... * scalar_k)``.
    """
    mul = field.mul
    for factor in factors:
        combos = [(prefix + (item,), c if ci == 1 else mul(c, ci))
                  for prefix, c in combos for item, ci in factor]
    return combos


def expand_term(alg: SkewAlgebra, tag, slot_values, coeff=1) -> ChainElement:
    """Multilinear expansion of a term whose slots hold algebra elements.

    Each slot value may be a basis item (pair / group index / exponent
    tuple / wedge tuple) or a dict-valued element of the slot algebra; the
    result expands multilinearly into basis terms, dropping any term with a
    unit in a bar slot (the strikeout of the reduced complexes).  The
    expansion is linear in each slot and idempotent on already-basis input.
    """
    lay = layout(tag)
    if len(slot_values) != len(lay):
        raise ShapeMismatch(
            f"{tag} expects {len(lay)} slots, got {len(slot_values)}"
        )
    units = alg.slot_units

    def slot_items(kind, bar, val):
        # (basis_item, scalar) pairs for one slot, with the bar-slot strikeout.
        items = list(val.items()) if isinstance(val, dict) else [(val, 1)]
        if not bar:
            return items
        return [(item, c) for item, c in items if item != units[kind]]

    out = ChainElement(alg)
    out.add_terms(tag, tensor_expand(
        alg.field, [((), coeff)],
        [slot_items(kind, bar, val)
         for (kind, bar), val in zip(lay, slot_values)]))
    return out


# -- differentials ---------------------------------------------------------

def _bar_merge(alg: SkewAlgebra, kind):
    """The product of two adjacent slots of the bar complex of A, kG or S
    ("bars"), as ``(item, scalar)`` pairs."""
    if kind == "barskew":
        return alg.mul_pairs
    if kind == "barg":
        mul = alg.group.mul
        return lambda g, h: ((mul(g, h), 1),)
    return lambda m1, m2: ((monomial_mul(m1, m2), 1),)


def bar_faces(alg: SkewAlgebra, kind, pairs, lo, n):
    """The bar differential on slots lo..lo+n+1 of each ``(slots, coeff)``.

    Face t merges slots lo+t and lo+t+1 with sign (-1)^t and is dropped
    when an inner face (0 < t < n) merges to the unit.
    """
    merge = _bar_merge(alg, kind)
    strike = alg.slot_units[BAR_SLOTS[kind]]
    mul = alg.field.mul
    neg = alg.field.neg
    for slots, c in pairs:
        signed = (c, neg(c))
        for t in range(n + 1):
            p = lo + t
            head = slots[:p]
            tail = slots[p + 2:]
            cc = signed[t % 2]
            for item, v in merge(slots[p], slots[p + 1]):
                if 0 < t < n and item == strike:
                    continue
                yield head + (item,) + tail, cc if v == 1 else mul(cc, v)


def koszul_faces(alg: SkewAlgebra, pairs, lo):
    """The Koszul differential on the slots (m0, w, m1) at lo of each term.

    Each wedge factor x_{w_t} contracts into the left outer monomial with
    sign (-1)^t and into the right one with the opposite sign.
    """
    nv = alg.nvars
    neg = alg.field.neg
    for slots, c in pairs:
        head = slots[:lo]
        m0, w, m1 = slots[lo:]
        signed = (c, neg(c))
        for t, idx in enumerate(w):
            e = var_exp(nv, idx)
            rest = w[:t] + w[t + 1:]
            yield head + (monomial_mul(m0, e), rest, m1), signed[t % 2]
            yield head + (m0, rest, monomial_mul(m1, e)), signed[1 - t % 2]


def diff(x) -> ChainElement:
    """The differential of a chain, as one chain.

    The bar complexes take the alternating sum of slot merges
    (:func:`bar_faces`), the Koszul complex contracts each wedge factor
    into either side (:func:`koszul_faces`), and a twisted tag takes
    d_C ⊗ 1 + (-1)^i 1 ⊗ d_D, with d_C the kG bar differential on the group
    slots and d_D the S bar or Koszul differential on the D slots.
    """
    alg = x.alg
    out = ChainElement(alg)
    for tag, terms in x.parts.items():
        kind, n = tag[0], tag[1]
        terms = terms.items()
        if kind == "twisted":
            _kind, i, j, dkind = tag
            # horizontal part: bar faces on the group slots
            if i > 0:
                out.add_terms(("twisted", i - 1, j, dkind),
                              bar_faces(alg, "barg", terms, 0, i))
            # vertical part: (-1)^i times the D-differential on the D slots
            if j > 0:
                if i % 2:
                    neg = alg.field.neg
                    terms = [(slots, neg(c)) for slots, c in terms]
                out.add_terms(("twisted", i, j - 1, dkind),
                              bar_faces(alg, "bars", terms, i + 2, j)
                              if dkind == "bar"
                              else koszul_faces(alg, terms, i + 2))
        elif kind == "koszul":
            if n > 0:
                out.add_terms(("koszul", n - 1), koszul_faces(alg, terms, 0))
        elif kind in BAR_SLOTS:
            if n > 0:
                out.add_terms((kind, n - 1),
                              bar_faces(alg, kind, terms, 0, n))
        else:
            raise ShapeMismatch(f"unknown complex tag {tag}")
    return out


# -- the bimodule structure ------------------------------------------------
#
# Each action maps the (slots, coeff) pairs of one tag, and the skew
# element acting, to the pairs of the product.

def act_skew_left(alg: SkewAlgebra, tag, pairs, a: dict):
    """Left action of a skew-algebra element on twisted terms.

    A pair (m, g) multiplies g into the left outer group slot; then m
    passes through the C-part, twisted by the inverse of the C-part's new
    group degree, and multiplies into the left outer D slot.
    """
    f = alg.field
    gmul = alg.group.mul
    base = tag[1] + 2
    for slots, v in pairs:
        for (m, g), c in a.items():
            cpart = (gmul(g, slots[0]),) + slots[1:base]
            cv = f.mul(c, v)
            if total_degree(m) == 0:
                yield cpart + slots[base:], cv
                continue
            gamma = alg.group.inv(alg.group.prod(cpart))
            for m2, cm in alg.action.act_monomial(gamma, m).items():
                yield (cpart + (monomial_mul(m2, slots[base]),)
                       + slots[base + 1:], f.mul(cv, cm))


def act_skew_right(alg: SkewAlgebra, tag, pairs, b: dict):
    """Right action of a skew-algebra element on twisted terms.

    A pair (m, h) multiplies m into the right outer D slot; then h
    multiplies into the right outer group slot while h^-1 acts diagonally
    on every D slot (this is what makes the product "twisted").
    """
    f = alg.field
    act = alg.action.act_monomial
    act_mid = act if tag[3] == "bar" else alg.action.act_wedge
    base = tag[1] + 2
    b = [(m, h, alg.group.inv(h), c) for (m, h), c in b.items()]
    for slots, v in pairs:
        for m, h, hinv, c in b:
            cpart = slots[:base - 1] + (alg.group.mul(slots[base - 1], h),)
            dslots = slots[base:-1] + (monomial_mul(slots[-1], m),)
            cv = f.mul(c, v)
            if h == 0:
                yield cpart + dslots, cv
                continue
            mids = [act_mid(hinv, d).items() for d in dslots[1:-1]]
            yield from tensor_expand(f, [(cpart, cv)], [
                act(hinv, dslots[0]).items(), *mids,
                act(hinv, dslots[-1]).items()])


def act_barskew_left(alg: SkewAlgebra, tag, pairs, a: dict):
    """Left multiplication into the outer slot of bar-resolution terms."""
    mul = alg.field.mul
    for slots, v in pairs:
        for p, c in a.items():
            for pair, pc in alg.mul_pairs(p, slots[0]):
                yield (pair,) + slots[1:], mul(mul(c, v), pc)


def act_barskew_right(alg: SkewAlgebra, tag, pairs, b: dict):
    mul = alg.field.mul
    for slots, v in pairs:
        for p, c in b.items():
            for pair, pc in alg.mul_pairs(slots[-1], p):
                yield slots[:-1] + (pair,), mul(mul(c, v), pc)


#: The (left, right) actions of A on each complex that has them.
_ACTIONS = {"twisted": (act_skew_left, act_skew_right),
            "barskew": (act_barskew_left, act_barskew_right)}


def bimodule_act(a, x, b) -> ChainElement:
    """a . x . b for a, b skew elements (or None) and x a chain, as one
    chain."""
    alg = x.alg
    out = ChainElement(alg)
    for tag, terms in x.parts.items():
        actions = _ACTIONS.get(tag[0])
        if actions is None:
            raise ShapeMismatch(f"no A-bimodule structure on {tag}")
        terms = terms.items()
        if a is not None:
            terms = actions[0](alg, tag, terms, a)
        if b is not None:
            terms = actions[1](alg, tag, terms, b)
        out.add_terms(tag, terms)
    return out


# -- free-basis bookkeeping ------------------------------------------------

def free_slots(alg: SkewAlgebra, tag, letters) -> tuple:
    """The free generator whose bar and wedge slots hold the letters, in
    order, and whose other slots hold units."""
    units = alg.slot_units
    letters = iter(letters)
    return tuple(next(letters) if bar or kind == "wedge" else units[kind]
                 for kind, bar in layout(tag))


def free_decompose(alg: SkewAlgebra, tag, slots):
    """Write a twisted term as a . E . b with E a free basis element.

    Returns ``(a, items, b)`` where a and b are skew-algebra elements and
    items is a list of ``(coeff, (cbars, dmid))`` free-basis coordinates:

        term = sum over items of  coeff * (a . E(cbars, dmid) . b).

    Here a = (^{gamma} s0) g0 and b = (^{gR} s1) gR with gamma the group
    degree of the C-part, and the D middle slots are the g_R-images of the
    term's middle slots (several items arise when the action expands a
    middle monomial/wedge into a combination).
    """
    kind, i, j, dkind = tag
    g0 = slots[0]
    gR = slots[i + 1]
    cbars = slots[1: i + 1]
    gamma = alg.group.prod(slots[: i + 2])
    base = i + 2
    # the middle D slots: the bar letters, or the one wedge
    s0, mids, s1 = slots[base], slots[base + 1: -1], slots[-1]
    act = alg.action.act_monomial
    a = {(m, g0): c for m, c in act(gamma, s0).items()}
    b = {(m, gR): c for m, c in act(gR, s1).items()}
    act_mid = act if dkind == "bar" else alg.action.act_wedge
    combos = tensor_expand(alg.field, [((), 1)],
                           [act_mid(gR, m).items() for m in mids])
    return a, [(c, (cbars, dmid)) for dmid, c in combos], b


# -- deterministic basis enumeration ---------------------------------------

def free_terms(alg: SkewAlgebra, tag, dmax: int):
    """The slots of every free generator of a complex, in a fixed order.

    Outer slots hold the unit, bar slots the non-unit letters of polynomial
    degree at most dmax, and a wedge slot every wedge of its degree.
    """
    units = alg.slot_units
    letters = {"pair": alg.pairs_up_to(dmax, include_unit=False),
               "group": range(1, alg.group.order),
               "exp": alg.monomials_up_to(dmax, include_unit=False)}
    return itertools.product(*(
        alg.wedges(wedge_degree(tag))
        if kind == "wedge" else letters[kind] if bar else (units[kind],)
        for kind, bar in layout(tag)))


def random_barskew_slots(alg: SkewAlgebra, n: int, max_poly_deg: int, rng,
                         free: bool = True):
    """A random basis term of ("barskew", n) for sampling-based checks."""
    pairs = alg.pairs_up_to(max_poly_deg, include_unit=False)
    outer_pool = alg.pairs_up_to(max_poly_deg, include_unit=True)
    unit = alg.unit_pair
    mid = tuple(rng.choice(pairs) for _ in range(n))
    if free:
        return (unit,) + mid + (unit,)
    return (rng.choice(outer_pool),) + mid + (rng.choice(outer_pool),)


def random_twisted_slots(alg: SkewAlgebra, i: int, j: int, dkind: str,
                         max_poly_deg: int, rng, free: bool = True):
    """A random basis term of ("twisted", i, j, dkind)."""
    z = alg.zero_exp
    cb = tuple(rng.randrange(1, alg.group.order) for _ in range(i))
    g0 = 0 if free else rng.randrange(alg.group.order)
    gR = 0 if free else rng.randrange(alg.group.order)
    if dkind == "bar":
        mids = alg.monomials_up_to(max_poly_deg, include_unit=False)
        outer = alg.monomials_up_to(max_poly_deg, include_unit=True)
        dm = tuple(rng.choice(mids) for _ in range(j))
        m0 = z if free else rng.choice(outer)
        m1 = z if free else rng.choice(outer)
        return (g0,) + cb + (gR,) + (m0,) + dm + (m1,)
    outer = alg.monomials_up_to(max_poly_deg, include_unit=True)
    w = rng.choice(alg.wedges(j))
    m0 = z if free else rng.choice(outer)
    m1 = z if free else rng.choice(outer)
    return (g0,) + cb + (gR,) + (m0, w, m1)
