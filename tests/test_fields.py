"""Field arithmetic: exact rationals and prime fields.

Everything downstream compares chain elements by exact equality, so the
scalar layer must be canonical: a == b iff the stored representations are
identical, no floats anywhere.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewchain.fields import (
    GF,
    QQ,
    MAX_MODULUS,
    DivisionByZero,
    NonPrimeModulus,
    field_from_descriptor,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def scalars(field):
    if field is QQ:
        return st.fractions(
            min_value=-20, max_value=20, max_denominator=12
        ).map(field._canon)
    return st.integers(min_value=0, max_value=field.p - 1)


class TestConstruction:
    def test_descriptors(self):
        assert field_from_descriptor("Q") is QQ
        assert field_from_descriptor("GF(7)").p == 7
        assert field_from_descriptor(" GF(2) ").char == 2

    def test_characteristics(self):
        assert QQ.char == 0
        assert GF(5).char == 5

    def test_composite_modulus_rejected(self):
        with pytest.raises(NonPrimeModulus):
            GF(6)
        with pytest.raises(NonPrimeModulus):
            GF(1)

    def test_large_prime_modulus(self):
        # Trial division up to sqrt(p) did not finish in 10 s on the first.
        assert GF(1000000000000000003).p == 1000000000000000003
        assert GF(2**61 - 1).char == 2**61 - 1

    def test_strong_pseudoprimes_rejected(self):
        # composites that pass Miller-Rabin for the first 7 and 12 prime
        # bases respectively
        for n in (341550071728321, 318665857834031151167461):
            with pytest.raises(NonPrimeModulus):
                GF(n)

    def test_modulus_beyond_exact_primality_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            GF(MAX_MODULUS)

    def test_bad_descriptor(self):
        with pytest.raises(ValueError):
            field_from_descriptor("R")


class TestArithmetic:
    def test_rational_sum(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_gf7_product(self):
        F = GF(7)
        assert F.mul(3, 5) == 1

    def test_char2_doubling(self):
        F = GF(2)
        assert F.add(1, 1) == 0

    def test_division_by_zero(self):
        for F in FIELDS:
            with pytest.raises(DivisionByZero):
                F.inv(F.from_int(0))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_field_axioms(self, field):
        @given(scalars(field), scalars(field), scalars(field))
        def axioms(a, b, c):
            assert field.add(a, field.add(b, c)) == \
                field.add(field.add(a, b), c)
            assert field.mul(a, field.mul(b, c)) == \
                field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == \
                field.add(field.mul(a, b), field.mul(a, c))
            assert field.add(a, field.neg(a)) == 0
            if a != 0:
                assert field.mul(a, field.inv(a)) == field.from_int(1)

        axioms()

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_parse_format_round_trip(self, field):
        @given(scalars(field))
        def round_trip(a):
            assert field.parse(field.format(a)) == a

        round_trip()

    def test_canonical_forms(self):
        # Q reduces to lowest terms with positive denominator; GF(p) stores
        # residues in [0, p).
        assert QQ.parse("2/4") == Fraction(1, 2)
        assert QQ.parse("-2/4") == Fraction(-1, 2)
        assert QQ.parse("4/2") == 2  # integer values canonicalize to int
        assert GF(5).from_int(-3) == 2
        assert GF(5).parse("12") == 2

    def test_from_int_embeds_char(self):
        assert GF(3).from_int(3) == 0
        assert QQ.from_int(3) == Fraction(3)


class TestAccumulate:
    def test_cancelled_keys_are_dropped_over_gf2(self):
        F = GF(2)
        out = F.accumulate({"a": 1, "b": 1}, [("a", 1), ("c", 1), ("c", 1)])
        assert out == {"b": 1}

    def test_cancelled_keys_are_dropped_over_q(self):
        out = QQ.accumulate({}, [("a", Fraction(1, 3)), ("b", 2),
                                 ("a", Fraction(-1, 3)), ("b", -2)])
        assert out == {}

    def test_updates_in_place_and_returns_the_dict(self):
        out = {"a": 1}
        assert QQ.accumulate(out, [("b", 2)]) is out
        assert out == {"a": 1, "b": 2}

    def test_q_sums_stay_canonical(self):
        out = QQ.accumulate({}, [("a", Fraction(1, 2)), ("a", Fraction(1, 2))])
        assert out == {"a": 1}
        assert type(out["a"]) is int

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
    def test_vector_arithmetic(self, field):
        a = {"x": field.from_int(1), "y": field.from_int(2)}
        b = {"x": field.from_int(-1), "z": field.from_int(1)}
        assert vec_add(field, a, b) == {"y": field.from_int(2),
                                        "z": field.from_int(1)}
        assert vec_sub(field, a, a) == {}
        assert vec_add(field, a, vec_neg(field, a)) == {}
        assert vec_scale(field, 0, a) == {}
        assert vec_scale(field, field.from_int(2), b) == \
            vec_add(field, b, b)
        assert a == {"x": field.from_int(1), "y": field.from_int(2)}
