"""Hochschild cochains on the bar resolution and their transports.

A cochain here is a function on free-basis keys of one complex, extended
to arbitrary elements by the bimodule structure: on a term a . E . b with
E free, the value is a * f(E) * b inside the skew group algebra.  Values
are skew-algebra elements (dicts {(exponent, group): scalar}).

The operations implemented on bar-resolution cochains:

* ``coboundary`` — the Hochschild differential, computed as
  (d* f)(x) = f(d x) on the free basis element x; for a bimodule-valued
  f on the bar resolution this reproduces the usual alternating-sum
  formula a1 f(a2,..) - f(a1 a2, ..) + ... ± f(..) a_{n+1}.
* ``circle`` — the composition product: g is slotted into each argument
  position of f in turn with sign (-1)^{(n-1)(i-1)}, its value reduced to
  the basis of A first; insertions that produce the unit in a bar slot
  vanish.
* ``transport_up`` / ``transport_down`` — conjugation by the splitting
  maps pi and iota, moving cochains between the twisted-product complex
  and the bar resolution.

Evaluating a cochain on an element whose tag differs from the cochain's
domain gives zero (cochains are extended by zero to other degrees and
bidegrees), which is what makes evaluation against the mixed-degree
outputs of pi well defined.

The ``free_decompose`` split of a twisted term depends on the algebra
alone, not on any cochain.  It is memoized on the algebra
(``_free_decompose_memo``), so the fresh cochains that
``pbw.check_cohomological`` builds for every parameter table share it.
``coboundary`` is not on that path (the decider evaluates d*(mu) on the
twisted side, see :func:`skewchain.pbw.check_cohomological`) and computes
each bar differential afresh.
"""

from __future__ import annotations

from .complexes import (
    ChainElement,
    ChainVector,
    ShapeMismatch,
    bar_diff,
    free_decompose,
    free_slots_barskew,
    free_slots_twisted,
)
from .fields import scaled_pairs, vec_add, vec_scale, vec_sub
from .skew import SkewAlgebra


class Cochain:
    """A free-basis function on one complex, bimodule-extended.

    ``fn`` maps a free key (the inner bar slots for "barskew"; a
    (cbars, dmid) pair for "twisted") to a skew-algebra element.
    """

    __slots__ = ("alg", "tag", "fn", "_memo")

    def __init__(self, alg: SkewAlgebra, tag, fn):
        self.alg = alg
        self.tag = tag
        self.fn = fn
        self._memo: dict = {}

    def value(self, key) -> dict:
        hit = self._memo.get(key)
        if hit is None:
            hit = self.fn(key)
            self._memo[key] = hit
        return hit

    def eval_element(self, x) -> dict:
        """Value on a chain element or vector, extended by zero off-tag."""
        if isinstance(x, ChainVector):
            x = x.parts.get(self.tag)
            if x is None:
                return {}
        if x.tag != self.tag:
            return {}
        if self.tag[0] not in ("barskew", "twisted"):
            raise ShapeMismatch(f"cannot evaluate cochains on {self.tag}")
        f = self.alg.field
        out: dict = {}
        for slots, c in x.terms.items():
            value = self._term_value(slots)
            f.accumulate(out, scaled_pairs(f, c, value.items()))
        return out

    def _term_value(self, slots) -> dict:
        """a * f(E) * b on one basis term a . E . b of the domain."""
        alg = self.alg
        if self.tag[0] == "barskew":
            v = self.value(slots[1:-1])
            if v and slots[0] != alg.unit_pair:
                v = alg.mul({slots[0]: 1}, v)
            if v and slots[-1] != alg.unit_pair:
                v = alg.mul(v, {slots[-1]: 1})
            return v
        f = alg.field
        memo = alg._free_decompose_memo
        split = memo.get((self.tag, slots))
        if split is None:
            split = free_decompose(alg, self.tag, slots)
            memo[(self.tag, slots)] = split
        a, items, b = split
        acc: dict = {}
        for c2, key in items:
            f.accumulate(acc, scaled_pairs(f, c2, self.value(key).items()))
        return alg.mul(alg.mul(a, acc), b) if acc else {}

    # pointwise vector-space structure (same domain required)
    def __add__(self, other: "Cochain") -> "Cochain":
        if self.tag != other.tag:
            raise ShapeMismatch("cochain degree mismatch in +")
        f = self.alg.field
        return Cochain(
            self.alg, self.tag,
            lambda key: vec_add(f, self.value(key), other.value(key)),
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        if self.tag != other.tag:
            raise ShapeMismatch("cochain degree mismatch in -")
        f = self.alg.field
        return Cochain(
            self.alg, self.tag,
            lambda key: vec_sub(f, self.value(key), other.value(key)),
        )

    def scaled(self, c) -> "Cochain":
        f = self.alg.field
        return Cochain(self.alg, self.tag,
                       lambda key: vec_scale(f, c, self.value(key)))


def coboundary(f: Cochain) -> Cochain:
    """The Hochschild differential of a bar-resolution cochain."""
    if f.tag[0] != "barskew":
        raise ShapeMismatch("coboundary needs a bar-resolution cochain")
    alg = f.alg
    tag = ("barskew", f.tag[1] + 1)
    return Cochain(alg, tag, lambda inner: f.eval_element(bar_diff(
        ChainElement.basis(alg, tag, free_slots_barskew(alg, inner)))))


def circle(f: Cochain, g: Cochain) -> Cochain:
    """The composition f ∘ g of bar-resolution cochains (degrees m, n)."""
    if f.tag[0] != "barskew" or g.tag[0] != "barskew":
        raise ShapeMismatch("circle needs bar-resolution cochains")
    alg = f.alg
    m, n = f.tag[1], g.tag[1]
    fld = alg.field
    unit = alg.unit_pair

    def fn(inner):
        out: dict = {}
        for i in range(m):
            sign_neg = ((n - 1) * i) % 2 == 1
            for pair, c in g.value(inner[i: i + n]).items():
                if pair == unit:
                    continue
                cc = fld.neg(c) if sign_neg else c
                w = f.value(inner[:i] + (pair,) + inner[i + n:])
                fld.accumulate(out, scaled_pairs(fld, cc, w.items()))
        return out

    return Cochain(alg, ("barskew", m + n - 1), fn)


def transport_up(alpha: Cochain, pi_fn) -> Cochain:
    """Pull a twisted-product cochain back to the bar resolution along pi.

    ``pi_fn`` maps the inner slots of a free generator 1 ⊗ ... ⊗ 1 of the
    bar resolution (the key of the new cochain) to its image under pi.
    """
    if alpha.tag[0] != "twisted":
        raise ShapeMismatch("transport_up starts from a twisted cochain")
    n = alpha.tag[1] + alpha.tag[2]
    return Cochain(alpha.alg, ("barskew", n),
                   lambda inner: alpha.eval_element(pi_fn(inner)))


def transport_down(mu: Cochain, iota_fn, tag) -> Cochain:
    """Restrict a bar-resolution cochain to the twisted product along iota."""
    if mu.tag[0] != "barskew":
        raise ShapeMismatch("transport_down starts from a bar cochain")
    if tag[0] != "twisted" or tag[1] + tag[2] != mu.tag[1]:
        raise ShapeMismatch(f"bidegree {tag} does not match degree {mu.tag}")
    alg = mu.alg

    def fn(key):
        cbars, dmid = key
        x = ChainElement.basis(
            alg, tag, free_slots_twisted(alg, tag, cbars, dmid)
        )
        return mu.eval_element(iota_fn(x))

    return Cochain(alg, tag, fn)
