"""Chain complexes over a skew group algebra A = S(V) ⋊ G.

Five families of complexes share one term representation.  A complex is
named by a tag tuple and a term is a tuple of slots:

``("barskew", n)``
    Reduced bar resolution of A.  Slots: n+2 basis pairs ``(exp, g)``;
    positions 0 and n+1 are the unreduced outer tensor factors, positions
    1..n are bar slots where the unit pair is struck out.
``("barg", i)``
    Reduced bar resolution of kG.  Slots: i+2 group indices; inner slots
    exclude the identity.
``("bars", j)``
    Reduced bar resolution of S.  Slots: j+2 exponent tuples; inner slots
    exclude the constant monomial.
``("koszul", j)``
    Koszul resolution S ⊗ Λ^j V ⊗ S.  Slots: ``(exp, wedge, exp)`` with the
    wedge a strictly increasing tuple of j variable indices.
``("twisted", i, j, dkind)``
    Twisted product X_{i,j} of the kG bar resolution with a resolution of S
    (``dkind`` is "bar" or "koszul").  Slots are the i+2 group slots
    followed by the D-part slots.  The differential is slotwise,
    d_C ⊗ 1 + (-1)^i 1 ⊗ d_D, while the A-bimodule structure twists through
    the group degree of the C-part (see ``act_skew_left/right``).

A :class:`ChainElement` is a dict of terms over a single tag; maps whose
output spans several tags (the twisted differential, the AW/EZ family)
return a :class:`ChainVector`, a tag-indexed sum of chain elements.
"""

from __future__ import annotations

import itertools

from .polynomials import total_degree, var_exp
from .skew import SkewAlgebra


class ShapeMismatch(ValueError):
    """Raised when slots do not match the shape demanded by a complex tag."""


# -- tags ------------------------------------------------------------------

def slot_count(tag) -> int:
    kind = tag[0]
    if kind == "barskew":
        return tag[1] + 2
    if kind == "barg":
        return tag[1] + 2
    if kind == "bars":
        return tag[1] + 2
    if kind == "koszul":
        return 3
    if kind == "twisted":
        i, j, dkind = tag[1], tag[2], tag[3]
        return i + 2 + (j + 2 if dkind == "bar" else 3)
    raise ShapeMismatch(f"unknown complex tag {tag!r}")


def homological_degree(tag) -> int:
    kind = tag[0]
    if kind in ("barskew", "barg", "bars", "koszul"):
        return tag[1]
    if kind == "twisted":
        return tag[1] + tag[2]
    raise ShapeMismatch(f"unknown complex tag {tag!r}")


def term_s_degree(alg: SkewAlgebra, tag, slots) -> int:
    """Total polynomial degree of a term (group slots contribute 0)."""
    kind = tag[0]
    if kind == "barskew":
        return sum(total_degree(m) for m, _ in slots)
    if kind == "barg":
        return 0
    if kind == "bars":
        return sum(total_degree(m) for m in slots)
    if kind == "koszul":
        m0, w, m1 = slots
        return total_degree(m0) + len(w) + total_degree(m1)
    if kind == "twisted":
        i = tag[1]
        return term_s_degree(alg, _d_tag(tag), slots[i + 2:])
    raise ShapeMismatch(f"unknown complex tag {tag!r}")


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

    def add_term(self, slots, coeff):
        """Accumulate coeff on a basis term (assumed already normalized)."""
        if coeff == 0:
            return
        s = self.alg.field.add(self.terms.get(slots, 0), coeff)
        if s == 0:
            self.terms.pop(slots, None)
        else:
            self.terms[slots] = s

    def scaled(self, c) -> "ChainElement":
        if c == 0:
            return ChainElement(self.alg, self.tag)
        f = self.alg.field
        return ChainElement(
            self.alg, self.tag, {s: f.mul(c, v) for s, v in self.terms.items()}
        )

    def __add__(self, other: "ChainElement") -> "ChainElement":
        self.alg.require_same(other.alg)
        if self.tag != other.tag:
            raise ShapeMismatch(
                f"cannot add elements of {self.tag} and {other.tag}"
            )
        out = ChainElement(self.alg, self.tag, dict(self.terms))
        for s, v in other.terms.items():
            out.add_term(s, v)
        return out

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
    """A tag-indexed sum of chain elements (inhomogeneous map output)."""

    __slots__ = ("alg", "parts")

    def __init__(self, alg: SkewAlgebra, parts=None):
        self.alg = alg
        self.parts: dict = {} if parts is None else parts

    @classmethod
    def of(cls, *elements):
        vec = cls(elements[0].alg)
        for el in elements:
            vec.add_element(el)
        return vec

    def _terms(self, tag) -> dict:
        """The terms dict of one part, created empty if absent."""
        el = self.parts.get(tag)
        if el is None:
            el = self.parts[tag] = ChainElement(self.alg, tag)
        return el.terms

    def add_term(self, tag, slots, coeff):
        if coeff == 0:
            return
        terms = self._terms(tag)
        s = self.alg.field.add(terms.get(slots, 0), coeff)
        if s == 0:
            terms.pop(slots, None)
            if not terms:
                del self.parts[tag]
        else:
            terms[slots] = s

    def add_element(self, el: ChainElement, scale=1):
        if scale == 0 or not el.terms:
            return
        f = self.alg.field
        add, mul = f.add, f.mul
        terms = self._terms(el.tag)
        for slots, v in el.terms.items():
            s = add(terms.get(slots, 0), v if scale == 1 else mul(scale, v))
            if s == 0:
                terms.pop(slots, None)
            else:
                terms[slots] = s
        if not terms:
            del self.parts[el.tag]

    def add_vector(self, other: "ChainVector", scale=1):
        for el in other.parts.values():
            self.add_element(el, scale)

    def component(self, tag) -> ChainElement:
        return self.parts.get(tag) or ChainElement(self.alg, tag)

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
    if isinstance(x, ChainVector):
        return x
    return ChainVector.of(x)


# -- construction with normalization ---------------------------------------

def expand_term(alg: SkewAlgebra, tag, slot_values, coeff=1) -> ChainElement:
    """Multilinear expansion of a term whose slots hold algebra elements.

    Each slot value may be a basis item (pair / group index / exponent
    tuple / wedge tuple) or a dict-valued element of the slot algebra; the
    result expands multilinearly into basis terms, dropping any term with a
    unit in a bar slot (the strikeout of the reduced complexes).  The
    expansion is linear in each slot and idempotent on already-basis input.
    """
    kind = tag[0]
    n_slots = slot_count(tag)
    if len(slot_values) != n_slots:
        raise ShapeMismatch(
            f"{tag} expects {n_slots} slots, got {len(slot_values)}"
        )

    def slot_items(pos, val):
        # (basis_item, scalar) pairs for one slot, with the bar-slot strikeout.
        items = list(val.items()) if isinstance(val, dict) else [(val, 1)]
        strike = None
        if kind == "barskew" and 0 < pos < n_slots - 1:
            strike = alg.unit_pair
        elif kind == "barg" and 0 < pos < n_slots - 1:
            strike = 0
        elif kind == "bars" and 0 < pos < n_slots - 1:
            strike = alg.zero_exp
        elif kind == "twisted":
            i = tag[1]
            if 0 < pos < i + 1:
                strike = 0
            elif tag[3] == "bar" and i + 2 < pos < n_slots - 1:
                strike = alg.zero_exp
        if strike is None:
            return items
        return [(item, c) for item, c in items if item != strike]

    out = ChainElement(alg, tag)
    f = alg.field
    stack = [((), coeff)]
    for pos, val in enumerate(slot_values):
        items = slot_items(pos, val)
        stack = [
            (prefix + (item,), f.mul(c, ci))
            for prefix, c in stack
            for item, ci in items
            if f.mul(c, ci) != 0
        ]
    for slots, c in stack:
        out.add_term(slots, c)
    return out


# -- differentials ---------------------------------------------------------

def bar_diff(x: ChainElement) -> ChainElement:
    """Reduced bar differential (alternating sum of slot merges)."""
    alg = x.alg
    kind = x.tag[0]
    n = x.tag[1]
    if n == 0:
        raise ShapeMismatch("bar_diff needs homological degree >= 1")
    out = ChainElement(alg, (kind, n - 1))
    f = alg.field
    if kind == "barskew":
        unit = alg.unit_pair
        for slots, c in x.terms.items():
            for t in range(n + 1):
                cc = c if t % 2 == 0 else f.neg(c)
                for pair, pc in alg.mul_pairs(slots[t], slots[t + 1]):
                    if 0 < t < n and pair == unit:
                        continue
                    out.add_term(
                        slots[:t] + (pair,) + slots[t + 2:], f.mul(cc, pc)
                    )
    elif kind == "barg":
        mul = alg.group.mul
        for slots, c in x.terms.items():
            for t in range(n + 1):
                cc = c if t % 2 == 0 else f.neg(c)
                g = mul(slots[t], slots[t + 1])
                if 0 < t < n and g == 0:
                    continue
                out.add_term(slots[:t] + (g,) + slots[t + 2:], cc)
    elif kind == "bars":
        zero = alg.zero_exp
        for slots, c in x.terms.items():
            for t in range(n + 1):
                cc = c if t % 2 == 0 else f.neg(c)
                m = tuple(a + b for a, b in zip(slots[t], slots[t + 1]))
                if 0 < t < n and m == zero:
                    continue
                out.add_term(slots[:t] + (m,) + slots[t + 2:], cc)
    else:
        raise ShapeMismatch(f"bar_diff does not apply to {x.tag}")
    return out


def koszul_diff(x: ChainElement) -> ChainElement:
    """Koszul differential: contract each wedge factor into either side."""
    alg = x.alg
    j = x.tag[1]
    out = ChainElement(alg, ("koszul", j - 1))
    if j == 0:
        raise ShapeMismatch("koszul_diff needs wedge degree >= 1")
    f = alg.field
    for (m0, w, m1), c in x.terms.items():
        for t, idx in enumerate(w):
            sign = c if t % 2 == 0 else f.neg(c)
            e = var_exp(alg.nvars, idx)
            rest = w[:t] + w[t + 1:]
            out.add_term(
                (tuple(a + b for a, b in zip(m0, e)), rest, m1), sign
            )
            out.add_term(
                (m0, rest, tuple(a + b for a, b in zip(m1, e))), f.neg(sign)
            )
    return out


def twisted_diff(x: ChainElement) -> ChainVector:
    """Total differential d_C ⊗ 1 + (-1)^i 1 ⊗ d_D of the twisted product."""
    alg = x.alg
    kind, i, j, dkind = x.tag
    if kind != "twisted":
        raise ShapeMismatch(f"twisted_diff does not apply to {x.tag}")
    f = alg.field
    out = ChainVector(alg)
    mul = alg.group.mul
    # horizontal part: bar faces on the group slots
    if i > 0:
        htag = ("twisted", i - 1, j, dkind)
        for slots, c in x.terms.items():
            for t in range(i + 1):
                cc = c if t % 2 == 0 else f.neg(c)
                g = mul(slots[t], slots[t + 1])
                if 0 < t < i and g == 0:
                    continue
                out.add_term(htag, slots[:t] + (g,) + slots[t + 2:], cc)
    # vertical part: (-1)^i times the D-differential on the D slots
    vsign = 1 if i % 2 == 0 else -1
    if dkind == "bar" and j > 0:
        vtag = ("twisted", i, j - 1, dkind)
        zero = alg.zero_exp
        base = i + 2
        for slots, c in x.terms.items():
            c0 = c if vsign == 1 else f.neg(c)
            for t in range(j + 1):
                cc = c0 if t % 2 == 0 else f.neg(c0)
                m = tuple(
                    a + b for a, b in zip(slots[base + t], slots[base + t + 1])
                )
                if 0 < t < j and m == zero:
                    continue
                out.add_term(
                    vtag,
                    slots[: base + t] + (m,) + slots[base + t + 2:],
                    cc,
                )
    elif dkind == "koszul" and j > 0:
        vtag = ("twisted", i, j - 1, dkind)
        base = i + 2
        for slots, c in x.terms.items():
            c0 = c if vsign == 1 else f.neg(c)
            m0, w, m1 = slots[base], slots[base + 1], slots[base + 2]
            for t, idx in enumerate(w):
                cc = c0 if t % 2 == 0 else f.neg(c0)
                e = var_exp(alg.nvars, idx)
                rest = w[:t] + w[t + 1:]
                out.add_term(
                    vtag,
                    slots[:base]
                    + (tuple(a + b for a, b in zip(m0, e)), rest, m1),
                    cc,
                )
                out.add_term(
                    vtag,
                    slots[:base]
                    + (m0, rest, tuple(a + b for a, b in zip(m1, e))),
                    f.neg(cc),
                )
    return out


def diff(x) -> ChainVector:
    """Uniform differential: ChainElement or ChainVector -> ChainVector."""
    if isinstance(x, ChainVector):
        out = ChainVector(x.alg)
        for el in x.parts.values():
            out.add_vector(diff(el))
        return out
    kind = x.tag[0]
    if kind == "twisted":
        return twisted_diff(x)
    if kind in ("barskew", "barg", "bars"):
        if x.tag[1] == 0:
            return ChainVector(x.alg)
        return as_vector(bar_diff(x))
    if kind == "koszul":
        if x.tag[1] == 0:
            return ChainVector(x.alg)
        return as_vector(koszul_diff(x))
    raise ShapeMismatch(f"unknown complex tag {x.tag}")


# -- the bimodule structure ------------------------------------------------

def group_degree(alg: SkewAlgebra, tag, slots) -> int:
    """Ordered product of all group slots of the C-part of a twisted term."""
    if tag[0] != "twisted":
        raise ShapeMismatch("group_degree applies to twisted terms")
    return alg.group.prod(slots[: tag[1] + 2])


def act_left_group(x: ChainElement, g: int) -> ChainElement:
    """Left action of a group element on a twisted element."""
    alg = x.alg
    if g == 0:
        return x
    mul = alg.group.mul
    out = ChainElement(alg, x.tag)
    for slots, c in x.terms.items():
        out.add_term((mul(g, slots[0]),) + slots[1:], c)
    return out


def act_left_monomial(x: ChainElement, mono: tuple) -> ChainElement:
    """Left action of a monomial of S on a twisted element.

    The monomial passes through the C-part twisted by the inverse of the
    C-part's group degree and multiplies into the left outer D slot.
    """
    alg = x.alg
    if total_degree(mono) == 0:
        return x
    kind, i, j, dkind = x.tag
    f = alg.field
    inv = alg.group.inv
    out = ChainElement(alg, x.tag)
    base = i + 2
    for slots, c in x.terms.items():
        gamma = group_degree(alg, x.tag, slots)
        for m, cm in alg.action.act_monomial(inv(gamma), mono).items():
            new_m0 = tuple(a + b for a, b in zip(m, slots[base]))
            out.add_term(
                slots[:base] + (new_m0,) + slots[base + 1:], f.mul(c, cm)
            )
    return out


def act_right_monomial(x: ChainElement, mono: tuple) -> ChainElement:
    """Right action of a monomial of S: multiply the right outer D slot."""
    alg = x.alg
    if total_degree(mono) == 0:
        return x
    out = ChainElement(alg, x.tag)
    for slots, c in x.terms.items():
        new_m1 = tuple(a + b for a, b in zip(slots[-1], mono))
        out.add_term(slots[:-1] + (new_m1,), c)
    return out


def act_right_group(x: ChainElement, h: int) -> ChainElement:
    """Right action of a group element on a twisted element.

    h multiplies into the right outer group slot while h^-1 acts diagonally
    on every D slot (this is what makes the product "twisted").
    """
    alg = x.alg
    if h == 0:
        return x
    kind, i, j, dkind = x.tag
    f = alg.field
    hinv = alg.group.inv(h)
    act = alg.action.act_monomial
    base = i + 2
    out = ChainElement(alg, x.tag)
    for slots, c in x.terms.items():
        cpart = slots[:base - 1] + (alg.group.mul(slots[base - 1], h),)
        dslots = slots[base:]
        if dkind == "bar":
            expanded = [((), c)]
            for m in dslots:
                acted = act(hinv, m)
                expanded = [
                    (pre + (m2,), f.mul(cc, c2))
                    for pre, cc in expanded
                    for m2, c2 in acted.items()
                ]
            for dnew, cc in expanded:
                out.add_term(cpart + dnew, cc)
        else:
            m0, w, m1 = dslots
            acted0 = act(hinv, m0)
            actedw = alg.action.act_wedge(hinv, w)
            acted1 = act(hinv, m1)
            for ma, ca in acted0.items():
                for wb, cb in actedw.items():
                    for mc, cc2 in acted1.items():
                        out.add_term(
                            cpart + (ma, wb, mc),
                            f.mul(f.mul(c, ca), f.mul(cb, cc2)),
                        )
    return out


def act_skew_left(x: ChainElement, a: dict) -> ChainElement:
    """Left action of a skew-algebra element on a twisted element."""
    alg = x.alg
    out = ChainElement(alg, x.tag)
    for (m, g), c in a.items():
        part = act_left_monomial(act_left_group(x, g), m)
        for slots, v in part.terms.items():
            out.add_term(slots, alg.field.mul(c, v))
    return out


def act_skew_right(x: ChainElement, b: dict) -> ChainElement:
    """Right action of a skew-algebra element on a twisted element."""
    alg = x.alg
    out = ChainElement(alg, x.tag)
    for (m, g), c in b.items():
        part = act_right_group(act_right_monomial(x, m), g)
        for slots, v in part.terms.items():
            out.add_term(slots, alg.field.mul(c, v))
    return out


def act_barskew_left(x: ChainElement, a: dict) -> ChainElement:
    """Left multiplication into the outer slot of a bar-resolution element."""
    alg = x.alg
    f = alg.field
    out = ChainElement(alg, x.tag)
    for p, c in a.items():
        for slots, v in x.terms.items():
            cv = f.mul(c, v)
            for pair, pc in alg.mul_pairs(p, slots[0]):
                out.add_term((pair,) + slots[1:], f.mul(cv, pc))
    return out


def act_barskew_right(x: ChainElement, b: dict) -> ChainElement:
    alg = x.alg
    f = alg.field
    out = ChainElement(alg, x.tag)
    for p, c in b.items():
        for slots, v in x.terms.items():
            cv = f.mul(c, v)
            for pair, pc in alg.mul_pairs(slots[-1], p):
                out.add_term(slots[:-1] + (pair,), f.mul(cv, pc))
    return out


def bimodule_act(a, x, b):
    """a . x . b for a skew elements (or None) and x a chain element/vector."""
    if isinstance(x, ChainVector):
        out = ChainVector(x.alg)
        for el in x.parts.values():
            out.add_element(bimodule_act(a, el, b))
        return out
    if x.tag[0] == "twisted":
        if a is not None:
            x = act_skew_left(x, a)
        if b is not None:
            x = act_skew_right(x, b)
        return x
    if x.tag[0] == "barskew":
        if a is not None:
            x = act_barskew_left(x, a)
        if b is not None:
            x = act_barskew_right(x, b)
        return x
    raise ShapeMismatch(f"no A-bimodule structure on {x.tag}")


# -- free-basis bookkeeping ------------------------------------------------

def free_slots_barskew(alg: SkewAlgebra, inner) -> tuple:
    return (alg.unit_pair,) + tuple(inner) + (alg.unit_pair,)


def free_slots_twisted(alg: SkewAlgebra, tag, cbars, dmid) -> tuple:
    z = alg.zero_exp
    if tag[3] == "bar":
        return (0,) + tuple(cbars) + (0,) + (z,) + tuple(dmid) + (z,)
    return (0,) + tuple(cbars) + (0,) + (z, dmid[0], z)


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
    f = alg.field
    if dkind == "bar":
        s0, mids, s1 = slots[base], slots[base + 1: -1], slots[-1]
    else:
        s0, wedge, s1 = slots[base], slots[base + 1], slots[base + 2]
    a = {(m, g0): c for m, c in alg.action.act_monomial(gamma, s0).items()}
    b = {(m, gR): c for m, c in alg.action.act_monomial(gR, s1).items()}
    items = []
    if dkind == "bar":
        combos = [((), 1)]
        for m in mids:
            acted = alg.action.act_monomial(gR, m)
            combos = [
                (pre + (m2,), f.mul(c, c2))
                for pre, c in combos
                for m2, c2 in acted.items()
            ]
        for dmid, c in combos:
            items.append((c, (cbars, dmid)))
    else:
        for w2, c in alg.action.act_wedge(gR, wedge).items():
            items.append((c, (cbars, (w2,))))
    return a, items, b


# -- deterministic basis enumeration ---------------------------------------

def barskew_free_basis(alg: SkewAlgebra, n: int, max_poly_deg: int):
    """Free basis slots of ("barskew", n): non-unit pairs in the bar slots."""
    pairs = alg.pairs_up_to(max_poly_deg, include_unit=False)
    unit = alg.unit_pair
    for combo in itertools.product(pairs, repeat=n):
        yield (unit,) + combo + (unit,)


def twisted_free_basis(alg: SkewAlgebra, i: int, j: int, dkind: str,
                       max_poly_deg: int):
    """Free basis slots of ("twisted", i, j, dkind)."""
    z = alg.zero_exp
    gbars = itertools.product(range(1, alg.group.order), repeat=i)
    if dkind == "bar":
        mids = alg.monomials_up_to(max_poly_deg, include_unit=False)
        for cb in gbars:
            for dm in itertools.product(mids, repeat=j):
                yield (0,) + cb + (0,) + (z,) + dm + (z,)
    else:
        wedges = list(itertools.combinations(range(alg.nvars), j))
        for cb in gbars:
            for w in wedges:
                yield (0,) + cb + (0,) + (z, w, z)


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
