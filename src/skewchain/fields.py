"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values rather than wrapper objects, so that the
innermost loops stay cheap:

* over the rationals, a scalar is an ``int`` or a ``fractions.Fraction``;
  every operation canonicalizes a Fraction with denominator 1 back to an
  ``int``, so equal values always have equal (and equally hashable)
  representations;
* over GF(p), a scalar is an ``int`` in ``range(p)``.

A :class:`Field` object supplies the arithmetic and the parsing/formatting
used by the JSON formats.  Values themselves carry no field tag; containers
that hold a field reference (contexts, chain elements, cochains) are the
place where mixing two different fields is detected.

Sparse vectors over a field are dicts mapping keys to nonzero scalars: the
elements of kG, of S and of S(V) ⋊ G, the terms of a chain element, and
the rows of the linear algebra.  They all accumulate through one primitive,
:meth:`Field.accumulate`, and share one set of arithmetic functions
(:func:`vec_add`, :func:`vec_neg`, :func:`vec_sub`, :func:`vec_scale`, and
:func:`scaled_pairs` for an in-place ``out += c * v``).

No floating point is used anywhere.  Equality of scalars is exact equality
of canonical representations.
"""

from __future__ import annotations

from fractions import Fraction

#: Miller-Rabin with the first 13 primes as bases decides primality exactly
#: below this bound (Sorenson and Webster, Math. Comp. 2017).
MAX_MODULUS = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class SetupError(ValueError):
    """The input cannot be set up: a document, table or value that the run
    rejects before it starts (the CLI's exit 2).  Every such error in the
    package is a subclass."""


class NonPrimeModulus(SetupError):
    """Raised when a prime field is requested for a composite modulus."""


class DivisionByZero(ZeroDivisionError):
    """Raised on exact division by the zero scalar."""


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases _MR_BASES, exact for n < MAX_MODULUS."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def is_json_int(val) -> bool:
    """An integer in a JSON document (``true`` and ``1.0`` are not)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _scalar_text(text) -> str:
    if not isinstance(text, str):
        raise TypeError(f"a scalar must be a string, got {text!r}")
    return text.strip()


class Field:
    """Common interface of the concrete fields.

    Subclasses define ``char``, ``descriptor`` and the arithmetic.  All
    methods take and return canonical plain values (see module docstring).
    """

    char: int
    descriptor: str

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def accumulate(self, out: dict, pairs) -> dict:
        """Add each ``(key, coeff)`` of ``pairs`` into ``out`` in place.

        A key whose sum is zero is dropped, so ``out`` stays a sparse vector
        of nonzero canonical scalars.  Returns ``out``.
        """
        # Every map accumulates its output here, so the sum is made
        # canonical inline, as RationalField.add and PrimeField.add do,
        # instead of through a method call per term.
        p = self.char
        get = out.get
        for key, c in pairs:
            s = get(key, 0) + c
            if p:
                s %= p
            elif type(s) is Fraction and s.denominator == 1:
                s = int(s)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def parse(self, text: str):
        """Parse a scalar from its string form (used by configs/JSON)."""
        raise NotImplementedError

    def format(self, a) -> str:
        """Inverse of :meth:`parse` on canonical values."""
        return str(a)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Field {self.descriptor}>"


class RationalField(Field):
    """The field of rational numbers with int/Fraction canonical values."""

    char = 0
    descriptor = "Q"

    @staticmethod
    def _canon(a):
        if type(a) is Fraction and a.denominator == 1:
            return int(a)
        return a

    # add/sub/mul inline _canon: they are the innermost calls of every map
    def add(self, a, b):
        s = a + b
        return int(s) if type(s) is Fraction and s.denominator == 1 else s

    def sub(self, a, b):
        s = a - b
        return int(s) if type(s) is Fraction and s.denominator == 1 else s

    def mul(self, a, b):
        s = a * b
        return int(s) if type(s) is Fraction and s.denominator == 1 else s

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return self._canon(Fraction(1, 1) / a)

    def from_int(self, n):
        return n

    def parse(self, text):
        text = _scalar_text(text)
        if "/" in text:
            try:
                return self._canon(Fraction(text))
            except ZeroDivisionError as e:
                raise ValueError(f"zero denominator in {text!r}") from e
        return int(text)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """GF(p) for a prime p, with canonical values in range(p)."""

    def __init__(self, p: int):
        if p >= MAX_MODULUS:
            raise ValueError(
                f"modulus {p} is too large: primality is decided exactly "
                f"only below {MAX_MODULUS}")
        if not is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.descriptor = f"GF({p})"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        return int(_scalar_text(text)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


# -- sparse vectors (dicts {key: nonzero scalar}) ---------------------------

def vec_add(field: Field, a: dict, b: dict) -> dict:
    return field.accumulate(dict(a), b.items())


def vec_neg(field: Field, a: dict) -> dict:
    return {k: field.neg(c) for k, c in a.items()}


def vec_sub(field: Field, a: dict, b: dict) -> dict:
    return field.accumulate(dict(a), vec_neg(field, b).items())


def vec_scale(field: Field, c, a: dict) -> dict:
    if c == 0:
        return {}
    return {k: field.mul(c, v) for k, v in a.items()}


def scaled_pairs(field: Field, c, pairs):
    """The pairs ``(key, c * coeff)``, or ``pairs`` itself when c is 1."""
    if c == 1:
        return pairs
    mul = field.mul
    return [(key, mul(c, v)) for key, v in pairs]


#: Shared instance of the rational field.
QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_descriptor(text: str) -> Field:
    """Build a field from its descriptor string, ``"Q"`` or ``"GF(p)"``."""
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("GF(") and text.endswith(")"):
        return PrimeField(int(text[3:-1]))
    raise ValueError(f"unknown field descriptor {text!r}")
