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

A :class:`ChainElement` is a dict of terms over a single tag; maps whose
output spans several tags (the twisted differential, the AW/EZ family)
return a :class:`ChainVector`, a tag-indexed sum of chain elements.
:func:`linear_map` extends a map on chain elements to vectors, part by
part.  The differentials share two kernels: :func:`bar_faces` for the bar
complexes and the bar D-part, :func:`koszul_faces` for the Koszul complex
and the Koszul D-part.
"""

from __future__ import annotations

import functools
import itertools

from .fields import scaled_pairs, vec_add, vec_scale
from .polynomials import monomial_mul, total_degree, var_exp
from .skew import SkewAlgebra


class ShapeMismatch(ValueError):
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


def term_sort_key(slots):
    """Flatten nested int/tuple slots into one comparable tuple."""
    out = []

    def _flat(v):
        if isinstance(v, tuple):
            out.append(1)
            out.append(len(v))
            for x in v:
                _flat(x)
        else:
            out.append(0)
            out.append(v)

    _flat(slots)
    return tuple(out)


# -- elements --------------------------------------------------------------

class ChainElement:
    """A finite k-linear combination of basis terms of a single complex."""

    __slots__ = ("alg", "tag", "terms")

    def __init__(self, alg: SkewAlgebra, tag, terms=None):
        self.alg = alg
        self.tag = tag
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls, alg, tag):
        return cls(alg, tag)

    @classmethod
    def basis(cls, alg, tag, slots, coeff=1):
        if coeff == 0:
            return cls(alg, tag)
        return cls(alg, tag, {slots: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, c) -> "ChainElement":
        return ChainElement(self.alg, self.tag,
                            vec_scale(self.alg.field, c, self.terms))

    def __add__(self, other: "ChainElement") -> "ChainElement":
        self.alg.require_same(other.alg)
        if self.tag != other.tag:
            raise ShapeMismatch(
                f"cannot add elements of {self.tag} and {other.tag}"
            )
        return ChainElement(self.alg, self.tag,
                            vec_add(self.alg.field, self.terms, other.terms))

    def __sub__(self, other: "ChainElement") -> "ChainElement":
        return self + other.scaled(self.alg.field.from_int(-1))

    def __eq__(self, other):
        return (
            isinstance(other, ChainElement)
            and self.tag == other.tag
            and self.terms == other.terms
        )

    def __hash__(self):  # pragma: no cover - elements are not dict keys
        raise TypeError("ChainElement is unhashable")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<ChainElement {self.tag} with {len(self.terms)} terms>"


class ChainVector:
    """A tag-indexed sum of chain elements (inhomogeneous map output).

    A part is present only while it has terms, so a vector whose terms
    cancel equals the empty vector.
    """

    __slots__ = ("alg", "parts")

    def __init__(self, alg: SkewAlgebra, parts=None):
        self.alg = alg
        self.parts: dict = {} if parts is None else parts

    def add_terms(self, tag, pairs):
        """Accumulate the ``(slots, coeff)`` pairs into the part of a tag."""
        el = self.parts.get(tag)
        terms = self.alg.field.accumulate({} if el is None else el.terms,
                                          pairs)
        if not terms:
            self.parts.pop(tag, None)
        elif el is None:
            self.parts[tag] = ChainElement(self.alg, tag, terms)

    def add_element(self, el: ChainElement, scale=1):
        self.add_terms(el.tag, scaled_pairs(self.alg.field, scale,
                                            el.terms.items()))

    def add_vector(self, other: "ChainVector", scale=1):
        for el in other.parts.values():
            self.add_element(el, scale)

    def copy(self) -> "ChainVector":
        """The same vector, sharing no terms dict with this one."""
        return ChainVector(self.alg, {
            tag: ChainElement(self.alg, tag, dict(el.terms))
            for tag, el in self.parts.items()})

    def components(self):
        return [self.parts[t] for t in sorted(self.parts)]

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        return isinstance(other, ChainVector) and self.parts == other.parts

    def __hash__(self):  # pragma: no cover
        raise TypeError("ChainVector is unhashable")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<ChainVector tags={sorted(self.parts)}>"


def as_vector(x) -> ChainVector:
    """x as a ChainVector; a chain element becomes its only part, uncopied."""
    if isinstance(x, ChainVector):
        return x
    return ChainVector(x.alg, {x.tag: x} if x.terms else {})


def linear_map(fn):
    """Extend a map on chain elements linearly to ChainVector inputs.

    The map's first argument is the chain.  On a ChainVector the map is
    applied part by part and its values, chain elements or vectors, are
    summed into one ChainVector; other arguments pass through unchanged.
    """
    @functools.wraps(fn)
    def lifted(x, *args):
        if not isinstance(x, ChainVector):
            return fn(x, *args)
        values = [fn(el, *args) for el in x.parts.values()]
        if len(values) == 1 and isinstance(values[0], ChainVector):
            return values[0]  # a fresh vector: no need to copy it
        out = ChainVector(x.alg)
        for value in values:
            if isinstance(value, ChainVector):
                out.add_vector(value)
            else:
                out.add_element(value)
        return out

    return lifted


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

    out = ChainElement(alg, tag)
    alg.field.accumulate(out.terms, tensor_expand(
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


def bar_diff(x: ChainElement) -> ChainElement:
    """Reduced bar differential (alternating sum of slot merges)."""
    kind = x.tag[0]
    n = x.tag[1]
    if n == 0:
        raise ShapeMismatch("bar_diff needs homological degree >= 1")
    if kind not in BAR_SLOTS:
        raise ShapeMismatch(f"bar_diff does not apply to {x.tag}")
    out = ChainElement(x.alg, (kind, n - 1))
    x.alg.field.accumulate(out.terms,
                           bar_faces(x.alg, kind, x.terms.items(), 0, n))
    return out


def koszul_diff(x: ChainElement) -> ChainElement:
    """Koszul differential: contract each wedge factor into either side."""
    j = x.tag[1]
    if j == 0:
        raise ShapeMismatch("koszul_diff needs wedge degree >= 1")
    out = ChainElement(x.alg, ("koszul", j - 1))
    x.alg.field.accumulate(out.terms,
                           koszul_faces(x.alg, x.terms.items(), 0))
    return out


def twisted_diff(x: ChainElement) -> ChainVector:
    """Total differential d_C ⊗ 1 + (-1)^i 1 ⊗ d_D of the twisted product.

    d_C is the kG bar differential on the group slots and d_D the S bar or
    Koszul differential on the D slots, the same kernels as
    :func:`bar_diff` and :func:`koszul_diff`.
    """
    alg = x.alg
    kind, i, j, dkind = x.tag
    if kind != "twisted":
        raise ShapeMismatch(f"twisted_diff does not apply to {x.tag}")
    out = ChainVector(alg)
    # horizontal part: bar faces on the group slots
    if i > 0:
        out.add_terms(("twisted", i - 1, j, dkind),
                      bar_faces(alg, "barg", x.terms.items(), 0, i))
    # vertical part: (-1)^i times the D-differential on the D slots
    if j > 0:
        terms = x.terms.items()
        if i % 2:
            neg = alg.field.neg
            terms = [(slots, neg(c)) for slots, c in terms]
        out.add_terms(("twisted", i, j - 1, dkind),
                      bar_faces(alg, "bars", terms, i + 2, j)
                      if dkind == "bar" else koszul_faces(alg, terms, i + 2))
    return out


@linear_map
def diff(x) -> ChainVector:
    """Uniform differential: ChainElement or ChainVector -> ChainVector."""
    kind = x.tag[0]
    if kind == "twisted":
        return twisted_diff(x)
    if kind not in ("barskew", "barg", "bars", "koszul"):
        raise ShapeMismatch(f"unknown complex tag {x.tag}")
    if x.tag[1] == 0:
        return ChainVector(x.alg)
    return as_vector(koszul_diff(x) if kind == "koszul" else bar_diff(x))


# -- the bimodule structure ------------------------------------------------

def act_skew_left(x: ChainElement, a: dict) -> ChainElement:
    """Left action of a skew-algebra element on a twisted element.

    A pair (m, g) multiplies g into the left outer group slot; then m
    passes through the C-part, twisted by the inverse of the C-part's new
    group degree, and multiplies into the left outer D slot.
    """
    alg = x.alg
    f = alg.field
    gmul = alg.group.mul
    base = x.tag[1] + 2

    def terms():
        for (m, g), c in a.items():
            for slots, v in x.terms.items():
                cpart = (gmul(g, slots[0]),) + slots[1:base]
                cv = f.mul(c, v)
                if total_degree(m) == 0:
                    yield cpart + slots[base:], cv
                    continue
                gamma = alg.group.inv(alg.group.prod(cpart))
                for m2, cm in alg.action.act_monomial(gamma, m).items():
                    yield (cpart + (monomial_mul(m2, slots[base]),)
                           + slots[base + 1:], f.mul(cv, cm))

    out = ChainElement(alg, x.tag)
    f.accumulate(out.terms, terms())
    return out


def act_skew_right(x: ChainElement, b: dict) -> ChainElement:
    """Right action of a skew-algebra element on a twisted element.

    A pair (m, h) multiplies m into the right outer D slot; then h
    multiplies into the right outer group slot while h^-1 acts diagonally
    on every D slot (this is what makes the product "twisted").
    """
    alg = x.alg
    f = alg.field
    act = alg.action.act_monomial
    act_mid = act if x.tag[3] == "bar" else alg.action.act_wedge
    base = x.tag[1] + 2

    def terms():
        for (m, h), c in b.items():
            hinv = alg.group.inv(h)
            for slots, v in x.terms.items():
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

    out = ChainElement(alg, x.tag)
    f.accumulate(out.terms, terms())
    return out


def act_barskew_left(x: ChainElement, a: dict) -> ChainElement:
    """Left multiplication into the outer slot of a bar-resolution element."""
    alg = x.alg
    mul = alg.field.mul
    out = ChainElement(alg, x.tag)
    alg.field.accumulate(out.terms, (
        ((pair,) + slots[1:], mul(mul(c, v), pc))
        for p, c in a.items() for slots, v in x.terms.items()
        for pair, pc in alg.mul_pairs(p, slots[0])))
    return out


def act_barskew_right(x: ChainElement, b: dict) -> ChainElement:
    alg = x.alg
    mul = alg.field.mul
    out = ChainElement(alg, x.tag)
    alg.field.accumulate(out.terms, (
        (slots[:-1] + (pair,), mul(mul(c, v), pc))
        for p, c in b.items() for slots, v in x.terms.items()
        for pair, pc in alg.mul_pairs(slots[-1], p)))
    return out


@linear_map
def _act(x, a, b):
    """:func:`bimodule_act` with the chain as the first argument."""
    kind = x.tag[0]
    if kind not in ("twisted", "barskew"):
        raise ShapeMismatch(f"no A-bimodule structure on {x.tag}")
    left, right = ((act_skew_left, act_skew_right) if kind == "twisted"
                   else (act_barskew_left, act_barskew_right))
    if a is not None:
        x = left(x, a)
    if b is not None:
        x = right(x, b)
    return x


def bimodule_act(a, x, b):
    """a . x . b for a skew elements (or None) and x a chain element/vector."""
    return _act(x, a, b)


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
        itertools.combinations(range(alg.nvars), wedge_degree(tag))
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
    wedges = list(itertools.combinations(range(alg.nvars), j))
    outer = alg.monomials_up_to(max_poly_deg, include_unit=True)
    w = rng.choice(wedges)
    m0 = z if free else rng.choice(outer)
    m1 = z if free else rng.choice(outer)
    return (g0,) + cb + (gR,) + (m0, w, m1)
