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

A cochain evaluated on a chain reads only the chain's part on its own
domain tag (cochains are extended by zero to other degrees and
bidegrees), which is what makes evaluation against the mixed-degree
outputs of pi well defined.

The ``free_decompose`` split of a twisted term depends on the algebra
alone, not on any cochain.  It is memoized on the algebra
(``_free_decompose_memo``), so the fresh cochains that
``pbw.check_cohomological`` builds for every parameter table share it.
``coboundary`` is not on that path (the decider evaluates d*(mu) on the
twisted side, see :func:`skewchain.pbw.check_cohomological`) and computes
each bar differential afresh.

A twisted chain X is evaluated through an :class:`Expansion`, and one
that many cochains are evaluated on is read into it once.  Evaluation is
linear in the cochain's values:
on a term c·t of X with split t = sum of c2·(a·E(key)·b), a cochain has
the value c·c2·a·alpha(key)·b, so

    alpha(X) = sum over keys and basis pairs p of alpha(key)[p]·E_X[key, p],
    E_X[key, p] = sum of c·c2·a·p·b over the splits with that key.

This is exact in any field: it regroups the term-by-term sum of the
values c·c2·a·alpha(key)·b and multiplies nothing differently.  Each
column E_X[key, p] is built on first use from the memoized split, so a
cochain with values in kG (the PBW parameters lambda and kappa) reads at
most |G| columns per key, and its value on X is a scalar times a stored
column per nonzero coordinate, with no product in the algebra.
"""

from __future__ import annotations

from .complexes import (
    ChainElement,
    ShapeMismatch,
    diff,
    free_decompose,
    free_slots,
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
        """Value on a chain or :class:`Expansion`, extended by zero off-tag;
        a twisted chain is read through an Expansion."""
        if isinstance(x, Expansion):
            return x.contract(self)
        terms = x.parts.get(self.tag)
        if terms is None:
            return {}
        if self.tag[0] == "twisted":
            part = ChainElement(x.alg, {self.tag: terms})
            return Expansion(part).contract(self)
        if self.tag[0] != "barskew":
            raise ShapeMismatch(f"cannot evaluate cochains on {self.tag}")
        alg = self.alg
        f = alg.field
        out: dict = {}
        for slots, c in terms.items():
            # a * f(E) * b on the basis term a . E . b
            v = self.value(slots[1:-1])
            if v and slots[0] != alg.unit_pair:
                v = alg.mul({slots[0]: 1}, v)
            if v and slots[-1] != alg.unit_pair:
                v = alg.mul(v, {slots[-1]: 1})
            f.accumulate(out, scaled_pairs(f, c, v.items()))
        return out

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


class Expansion:
    """A twisted chain, read once for evaluation by many cochains.

    Per tag and free key, the splits (c·c2, a, b) of the chain's terms,
    and the columns E_X[key, p] of the module docstring, filled on first
    use as tuples of (pair, scalar).
    """

    __slots__ = ("alg", "parts")

    def __init__(self, x):
        alg = self.alg = x.alg
        f = alg.field
        memo = alg._free_decompose_memo
        self.parts: dict = {}
        for tag, terms in x.parts.items():
            if tag[0] != "twisted":
                raise ShapeMismatch(f"cannot expand a chain on {tag}")
            part = self.parts[tag] = {}
            for slots, c in terms.items():
                split = memo.get((tag, slots))
                if split is None:
                    split = memo[(tag, slots)] = free_decompose(alg, tag,
                                                                slots)
                a, items, b = split
                for c2, key in items:
                    hit = part.get(key)
                    if hit is None:
                        hit = part[key] = ([], {})
                    hit[0].append((f.mul(c, c2), a, b))

    def contract(self, alpha: Cochain) -> dict:
        """alpha on the chain: alpha(key)[p]·E_X[key, p], summed."""
        part = self.parts.get(alpha.tag)
        if part is None:
            return {}
        f = self.alg.field
        out: dict = {}
        for key, (splits, columns) in part.items():
            for pair, s in alpha.value(key).items():
                column = columns.get(pair)
                if column is None:
                    column = columns[pair] = self._column(splits, pair)
                f.accumulate(out, scaled_pairs(f, s, column))
        return out

    def _column(self, splits, pair) -> tuple:
        alg = self.alg
        f = alg.field
        p = {pair: 1}
        acc: dict = {}
        for s, a, b in splits:
            f.accumulate(acc, scaled_pairs(
                f, s, alg.mul(alg.mul(a, p), b).items()))
        return tuple(acc.items())


def coboundary(f: Cochain) -> Cochain:
    """The Hochschild differential of a bar-resolution cochain."""
    if f.tag[0] != "barskew":
        raise ShapeMismatch("coboundary needs a bar-resolution cochain")
    alg = f.alg
    tag = ("barskew", f.tag[1] + 1)
    return Cochain(alg, tag, lambda inner: f.eval_element(diff(
        ChainElement.basis(alg, tag, free_slots(alg, tag, inner)))))


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
        x = ChainElement.basis(alg, tag, free_slots(alg, tag, cbars + dmid))
        return mu.eval_element(iota_fn(x))

    return Cochain(alg, tag, fn)
