import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intaut import Field, is_irreducible, least_irreducible
from intaut.field import poly_str
from oracles import (add_slow, field_tables_oracle, is_irreducible_oracle, mul_slow,
                     mul_table_oracle, pow_slow, primitive_element_oracle)

SMALL_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)]


def _field(p, h):
    return Field(p, h)


# -- construction -----------------------------------------------------------

def test_default_modulus_degree_one_is_x():
    assert Field(3, 1).modulus == (0, 1)


def test_default_modulus_f9_is_x_squared_plus_one():
    # exhaustive root check: x^2 and x^2 + 2x-free candidates below it fail
    assert Field(3, 2).modulus == (1, 0, 1)
    assert not is_irreducible((0, 0, 1), 3)   # x^2 has root 0
    assert is_irreducible((1, 0, 1), 3)


def test_rejects_non_prime_and_even():
    with pytest.raises(ValueError, match="prime"):
        Field(4, 1)
    with pytest.raises(ValueError, match="odd"):
        Field(2, 1)
    with pytest.raises(ValueError, match="h"):
        Field(3, 0)


def test_rejects_reducible_and_wrong_degree_modulus():
    with pytest.raises(ValueError, match="reducible"):
        Field(3, 2, [0, 0, 1])
    with pytest.raises(ValueError, match="monic"):
        Field(3, 2, [1, 1])
    with pytest.raises(ValueError, match="monic"):
        Field(3, 2, [1, 0, 2])


@pytest.mark.parametrize("modulus", [(5, 4, 4), (2, -1, 1), (1, 0, 4), (-2, 0, 1)])
def test_rejects_out_of_range_modulus_coefficients(modulus):
    # each reduces mod 3 to a monic irreducible, and is still refused
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        Field(3, 2, modulus)


def test_make_field_deterministic():
    a, b = Field(5, 2), Field(5, 2)
    assert a.modulus == b.modulus
    assert a == b


@pytest.mark.parametrize("p,top", [(3, 6), (5, 4), (7, 3), (11, 3)])
def test_is_irreducible_matches_trial_division(p, top):
    """Every monic polynomial of degree 1 .. top, against the oracle.  Below
    degree 5 the rank conditions alone decide; a quadratic times a cubic is
    the least product that only X^(p^h) = X rejects."""
    for h in range(1, top + 1):
        for tail in itertools.product(range(p), repeat=h):
            coeffs = tail + (1,)
            assert is_irreducible(coeffs, p) == is_irreducible_oracle(coeffs, p), coeffs


@pytest.mark.parametrize("p", [4294967311, 4294967357, 4294967371, 4294967377])
def test_is_irreducible_where_int64_products_overflow(p):
    """x^2 + 1 is irreducible iff -1 is a non-square, iff p = 3 (mod 4)."""
    assert is_irreducible((1, 0, 1), p) == (p % 4 == 3)


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_least_irreducible_truly_least(p, h):
    mod = least_irreducible(p, h)
    k_found = sum(c * p ** i for i, c in enumerate(mod[:-1]))
    for k in range(k_found):
        coeffs = [(k // p ** i) % p for i in range(h)] + [1]
        assert not is_irreducible(coeffs, p)


# -- element ordering -------------------------------------------------------

def test_element_order_and_coeffs(f9):
    assert list(f9.elements()) == list(range(9))
    assert f9.coeffs(0) == (0, 0)
    assert f9.coeffs(1) == (1, 0)
    assert f9.coeffs(3) == (0, 1)        # the adjoined root sits at index 3
    assert f9.element((0, 1)) == 3
    assert f9.element((4, -1)) == f9.element((1, 2)) == 7   # entries reduce mod p
    for a in f9.elements():
        assert f9.element(f9.coeffs(a)) == a


def test_enumeration_length():
    for p, h in SMALL_FIELDS:
        assert len(_field(p, h).elements()) == p ** h


# -- arithmetic examples ----------------------------------------------------

def test_prime_field_arithmetic(f3, f5):
    assert f3.add(2, 2) == 1
    assert f3.inv(2) == 2
    assert f5.inv(3) == 2
    assert f5.mul(3, 2) == 1


def test_f9_examples(f9):
    t = 3
    assert f9.mul(t, t) == 2                       # t^2 = -1
    assert f9.inv(t) == f9.element((0, 2))         # 1/t = 2t
    assert f9.mul(t, f9.inv(t)) == 1
    assert f9.frobenius(t, 1) == f9.neg(t)         # t^3 = -t


def test_additive_inverse_everywhere():
    for p, h in SMALL_FIELDS:
        f = _field(p, h)
        for a in f.elements():
            assert f.add(a, f.neg(a)) == 0


def test_inv_of_zero_raises(f3):
    with pytest.raises(ZeroDivisionError):
        f3.inv(0)


@pytest.mark.parametrize("p,h", [(7, 1), (3, 2)])
def test_negative_power_is_the_inverse_power(p, h):
    f = Field(p, h)
    for a in range(1, f.q):
        for e in range(1, 2 * f.q):
            assert f.pow(a, -e) == f.inv(f.pow(a, e))
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


@pytest.mark.parametrize("p,h", [(7, 1), (3, 2), (3, 4)])
def test_pow_matches_polynomial_arithmetic(p, h):
    """For e < 0 the reference is the -e-th power of a^(q-2), the inverse."""
    f = Field(p, h)
    for a in range(f.q):
        for e in range(-10, 11):
            if e < 0 and a == 0:
                with pytest.raises(ZeroDivisionError):
                    f.pow(a, e)
            elif e < 0:
                assert f.pow(a, e) == pow_slow(f, pow_slow(f, a, f.q - 2), -e)
            else:
                assert f.pow(a, e) == pow_slow(f, a, e)


def test_pow_does_not_build_mul():
    """pow reads the powers and logs; nothing is stored on the tables."""
    f = Field(3, 8)
    assert f.pow(2, 5) == pow_slow(f, 2, 5)
    assert f.pow(f.q - 1, -3) == pow_slow(f, pow_slow(f, f.q - 1, f.q - 2), 3)
    assert vars(f.tables).keys() == {fld.name for fld in dataclasses.fields(f.tables)}


def test_out_of_range_rejected(f3):
    with pytest.raises(ValueError):
        f3.add(3, 0)
    with pytest.raises(ValueError):
        f3.coeffs(-1)


OPS = {
    "is_square": lambda f, a: f.is_square(a),
    "inv": lambda f, a: f.inv(a),
    "frobenius": lambda f, a: f.frobenius(a, 0),
    "neg": lambda f, a: f.neg(a),
    "add": lambda f, a: f.add(1, a),
    "mul": lambda f, a: f.mul(a, 1),
    "square": lambda f, a: f.square(a),
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("p,h", [(5, 1), (3, 6)])   # a prime field, an extension
def test_scalar_ops_reject_out_of_range(p, h, op):
    f = Field(p, h)
    for a in (-1, -2, f.q, f.q + 2):
        with pytest.raises(ValueError):
            OPS[op](f, a)


# prime fields and extensions, with p and h both small and both large
RANGE_FIELDS = {(p, h): Field(p, h) for p, h in [(5, 1), (3, 2), (3, 6), (31, 2)]}
BOTH_SIDES = {**OPS, "add-left": lambda f, a: f.add(a, 1),
              "mul-right": lambda f, a: f.mul(1, a)}


@st.composite
def out_of_range_elements(draw):
    f = RANGE_FIELDS[draw(st.sampled_from(sorted(RANGE_FIELDS)))]
    a = draw(st.integers(max_value=-1) | st.integers(min_value=f.q))
    return f, a


@settings(max_examples=300, deadline=None)
@given(out_of_range_elements(), st.sampled_from(sorted(BOTH_SIDES)))
def test_scalar_ops_reject_any_out_of_range_integer(case, op):
    f, a = case
    with pytest.raises(ValueError):
        BOTH_SIDES[op](f, a)


# -- field axioms, exhaustive for q <= 81 ------------------------------------

@pytest.mark.parametrize("p,h", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1),
                                 (5, 2), (7, 1), (7, 2)])
def test_field_axioms_exhaustive(p, h):
    f = _field(p, h)
    q = f.q
    assert q <= 81
    els = range(q)
    for a, b in itertools.product(els, els):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(els, els, els):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


# -- Frobenius ---------------------------------------------------------------

@pytest.mark.parametrize("p,h", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_frobenius_is_field_automorphism(p, h):
    f = _field(p, h)
    for a, b in itertools.product(f.elements(), f.elements()):
        assert f.frobenius(f.add(a, b), 1) == f.add(f.frobenius(a, 1),
                                                    f.frobenius(b, 1))
        assert f.frobenius(f.mul(a, b), 1) == f.mul(f.frobenius(a, 1),
                                                    f.frobenius(b, 1))


@pytest.mark.parametrize("p,h", [(3, 2), (3, 3), (5, 2)])
def test_frobenius_order_and_fixed_field(p, h):
    f = _field(p, h)
    # order divides h: iterating sigma h times is the identity
    for a in f.elements():
        x = a
        for _ in range(h):
            x = f.frobenius(x, 1)
        assert x == a
    fixed = [a for a in f.elements() if f.frobenius(a, 1) == a]
    assert len(fixed) == p   # exactly the prime subfield
    # elements of the prime subfield are untouched by every power
    for a in fixed:
        for i in range(h):
            assert f.frobenius(a, i) == a


def test_frobenius_composition(f9):
    h = f9.h
    for a in f9.elements():
        assert f9.frobenius(f9.frobenius(a, 1), h - 1) == a


def test_frobenius_exponent_range(f9):
    with pytest.raises(ValueError):
        f9.frobenius(1, 2)
    with pytest.raises(ValueError):
        f9.frobenius(1, -1)


# -- squares -----------------------------------------------------------------

def test_zero_is_square(f3, f9):
    assert f3.is_square(0)
    assert f9.is_square(0)


def test_square_examples(f3, f9):
    assert not f3.is_square(2)
    assert f9.is_square(2)     # 2 = -1 = t^2 in GF(9)


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_square_census_and_multiplicativity(p, h):
    f = _field(p, h)
    q = f.q
    squares = [a for a in range(1, q) if f.is_square(a)]
    assert len(squares) == (q - 1) // 2
    for a in range(1, q):
        for b in range(1, q):
            expected = not (f.is_square(a) ^ f.is_square(b))
            assert f.is_square(f.mul(a, b)) == expected


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_squares_agree_with_direct_squaring(p, h):
    f = _field(p, h)
    by_squaring = {f.mul(a, a) for a in f.elements()}
    by_test = {a for a in f.elements() if f.is_square(a)}
    assert by_squaring == by_test
    for a in f.elements():
        assert f.is_square(f.mul(a, a))


def test_primitive_element(f9, f49):
    for f in (f9, f49):
        g = f.primitive_element()
        power, seen = 1, set()
        for _ in range(f.q - 1):
            power = f.mul(power, g)
            seen.add(power)
        assert len(seen) == f.q - 1


# -- the arithmetic tables against the polynomial arithmetic ------------------

def _check_tables(f, pairs, singles):
    t = f.tables
    for a, b in pairs:
        assert t.add[a, b] == add_slow(f, a, b)
        product = mul_slow(f, a, b)
        assert t.mul(a, b) == product
        got = f.mul(a, b)
        assert type(got) is int and got == product
    for a in singles:
        assert add_slow(f, a, int(t.neg[a])) == 0
        assert t.square_of[a] == mul_slow(f, a, a)
        assert t.is_square[a] == (a == 0 or pow_slow(f, a, (f.q - 1) // 2) == 1)
        assert t.frob[:, a].tolist() == [pow_slow(f, a, f.p ** i)
                                         for i in range(f.h)]
        if a:
            assert t.inv[a] == pow_slow(f, a, f.q - 2)


# every small field, plus a non-default modulus for GF(9) and GF(25)
ORACLE_FIELDS = [(p, h, None) for p, h in SMALL_FIELDS] + [(3, 2, (2, 2, 1)),
                                                          (5, 2, (2, 1, 1))]


@pytest.mark.parametrize("p,h,modulus", ORACLE_FIELDS + [(3, 3, (2, 2, 0, 1))])
def test_tables_match_polynomial_arithmetic_exhaustively(p, h, modulus):
    f = Field(p, h, modulus)
    if modulus is not None:
        assert f.modulus != least_irreducible(p, h)
    _check_tables(f, itertools.product(range(f.q), repeat=2), range(f.q))


# the fields above, the four planes of the fields benchmark under their seed-3
# moduli, and GF(2187)
TABLE_ORACLE_FIELDS = ORACLE_FIELDS + [(3, 5, (2, 0, 2, 0, 2, 1)), (7, 3, (2, 5, 3, 1)),
                                       (3, 6, (1, 2, 0, 1, 0, 0, 1)), (31, 2, (13, 8, 1)),
                                       (3, 7, None)]


@pytest.mark.parametrize("p,h,modulus", TABLE_ORACLE_FIELDS)
def test_tables_equal_the_direct_construction(p, h, modulus):
    f = Field(p, h, modulus)
    assert f.primitive_element() == primitive_element_oracle(f)
    got, want = f.tables, field_tables_oracle(f)
    for fld in dataclasses.fields(want):
        a, b = getattr(got, fld.name), getattr(want, fld.name)
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False)
        assert np.array_equal(a, b), fld.name
    # tables.mul on every pair, zero row and column included, in blocks of rows
    mul, index = mul_table_oracle(want), np.arange(f.q)
    for r in range(0, f.q, 256):
        rows = got.mul(index[r:r + 256, None], index)
        assert rows.dtype == np.int32 and np.array_equal(rows, mul[r:r + 256])


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_mul_broadcasts_index_arrays(dtype):
    f = Field(3, 3, (2, 2, 0, 1))
    t, want = f.tables, mul_table_oracle(field_tables_oracle(f))
    a = np.array([0, 1, 5, 26], dtype=dtype)
    b = np.array([7, 0, 13], dtype=dtype)
    cases = [(dtype(5), a, want[5, a]),                      # scalar x array
             (a, dtype(5), want[a, 5]),
             (a[:, None], b[None, :], want[a[:, None], b]),  # (k, 1) x (1, m)
             (np.array(5, dtype=dtype), np.array(7, dtype=dtype), want[5, 7]),  # 0-d
             (np.array(0, dtype=dtype), np.array(7, dtype=dtype), 0)]
    for x, y, expected in cases:
        got = t.mul(x, y)
        assert got.dtype == np.int32 and got.shape == np.shape(expected)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("p,h", [(3, 6), (31, 2)])
def test_tables_match_polynomial_arithmetic_sampled(p, h):
    f = Field(p, h)
    rng = random.Random(f"{p}^{h}")
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
    singles = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(60)]
    _check_tables(f, pairs, singles)


@pytest.mark.parametrize("p,h", [(5, 1), (3, 6)])
def test_tables_are_read_only(p, h):
    t = Field(p, h).tables
    for fld in dataclasses.fields(t):
        arr = getattr(t, fld.name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


SCALAR_CALLS = {
    "add": lambda f: f.add(2, 3), "sub": lambda f: f.sub(2, 3),
    "neg": lambda f: f.neg(2), "mul": lambda f: f.mul(2, 3),
    "inv": lambda f: f.inv(2), "pow": lambda f: f.pow(2, 3),
    "frobenius": lambda f: f.frobenius(2, f.h - 1),
    "is_square": lambda f: f.is_square(2),
}


def test_tables_built_on_first_scalar_use():
    """The constructor builds no tables; any scalar operation builds them and
    returns a Python int or bool, never a numpy scalar, whose repr would
    leak into SemiaffineMap tuples."""
    for p, h in [(5, 1), (3, 6)]:
        for name, call in SCALAR_CALLS.items():
            f = Field(p, h)
            assert f._tables is None, name
            value = call(f)
            assert f._tables is not None, name
            assert type(value) is (bool if name == "is_square" else int), name
        a = f.q - 2                  # outside the prime field when h > 1
        assert f.frobenius(a, f.h - 1) == pow_slow(f, a, f.q // p)
        assert f.is_square(a) == (pow_slow(f, a, (f.q - 1) // 2) == 1)


def test_poly_str():
    assert poly_str((1, 0, 1)) == "x^2 + 1"
    assert poly_str((0, 1)) == "x"
    assert poly_str((2, 1, 0, 0, 1)) == "x^4 + x + 2"
