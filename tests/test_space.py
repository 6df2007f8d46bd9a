import dataclasses
import itertools

import numpy as np
import pytest

from intaut import Field, build_integral_graph, orbits, space
from intaut.field import least_irreducible
from intaut.space import (SphereClass, canonical_index, class_of_pair, class_of_point, classify,
                          distance, enumerate_points, is_integral, norm,
                          point_matrix, point_of_index, sphere_counts_enumerated,
                          sphere_counts_formula, vec_add)
from oracles import norm_array_oracle, sphere_counts_oracle
from test_oracles import cone

# (p, h, n) for every grid instance with q^n <= 20000
GRID = [(p, h, n)
        for p in (3, 5, 7) for h in (1, 2) for n in (2, 3, 4, 5)
        if (p ** h) ** n <= 20000]


# -- indexing ----------------------------------------------------------------

def test_origin_is_index_zero(f3):
    assert point_of_index(f3, 3, 0) == (0, 0, 0)
    assert canonical_index(f3, (0, 0, 0)) == 0


def test_first_coordinate_least_significant(f3):
    assert point_of_index(f3, 3, 1) == (1, 0, 0)
    assert canonical_index(f3, (1, 0, 0)) == 1


def test_index_round_trip_exhaustive(f3, f9):
    for field, n in [(f3, 3), (f3, 4), (f9, 2)]:
        for k in range(field.q ** n):
            assert canonical_index(field, point_of_index(field, n, k)) == k


def test_enumerate_points_matches_index_order(f9):
    for n in (0, 1, 2):
        pts = enumerate_points(f9, n)
        assert pts == [point_of_index(f9, n, k) for k in range(9 ** n)]


def test_index_out_of_range(f3):
    with pytest.raises(ValueError):
        point_of_index(f3, 3, 27)
    with pytest.raises(ValueError):
        point_of_index(f3, 3, -1)


# moduli other than the default least irreducible, so the check does not
# lean on one choice of polynomial basis
@pytest.mark.parametrize("p,h,modulus", [(5, 1, (2, 1)), (3, 2, (2, 2, 1)),
                                         (5, 2, (2, 1, 1)), (3, 3, (2, 1, 1, 1))])
def test_point_index_digits_are_additive_coordinates(p, h, modulus):
    """The base-p digits of a point index are its n h coordinates over GF(p),
    and vector addition adds them digit by digit mod p."""
    field = Field(p, h, modulus)
    assert field.modulus != least_irreducible(p, h)
    n = 3
    weights = p ** np.arange(n * h)
    rng = np.random.default_rng(0)
    for u, v in rng.integers(0, field.q ** n, size=(300, 2)).tolist():
        x, y = point_of_index(field, n, u), point_of_index(field, n, v)
        k = canonical_index(field, vec_add(field, x, y))
        assert np.array_equal(k // weights % p, (u // weights + v // weights) % p)


# -- distance ----------------------------------------------------------------

def test_distance_examples(f3):
    assert distance(f3, (0, 0, 0), (1, 1, 1)) == 0
    assert distance(f3, (0, 0, 0), (1, 1, 0)) == 2
    assert distance(f3, (1, 2, 1), (1, 2, 1)) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_distance_symmetric_and_translation_invariant(f3, n):
    # exhaustive over all (x, y, t) triples at 9 and 27 points
    pts = enumerate_points(f3, n)
    for x, y in itertools.product(pts, pts):
        assert distance(f3, x, y) == distance(f3, y, x)
        for t in pts:
            xt = tuple(f3.add(a, b) for a, b in zip(x, t))
            yt = tuple(f3.add(a, b) for a, b in zip(y, t))
            assert distance(f3, xt, yt) == distance(f3, x, y)


def test_distance_dimension_mismatch(f3):
    with pytest.raises(ValueError, match="dimension"):
        distance(f3, (0, 0), (0, 0, 0))


def test_is_integral_examples(f3):
    assert is_integral(f3, (2, 0, 1), (2, 0, 1))
    assert not is_integral(f3, (0, 0, 0), (1, 1, 0))
    assert is_integral(f3, (0, 0, 0), (1, 0, 0))


# -- classification ----------------------------------------------------------

def test_classify_examples(f3):
    assert classify(f3, (0, 0, 0)) is SphereClass.ORIGIN
    assert classify(f3, (1, 1, 1)) is SphereClass.ISOTROPIC
    assert classify(f3, (1, 1, 0)) is SphereClass.NONSQUARE
    assert classify(f3, (1, 0, 0)) is SphereClass.SQUARE


def test_classify_symmetric_under_negation_and_square_scaling(f5):
    pts = enumerate_points(f5, 2)
    for v in pts:
        minus = tuple(f5.neg(c) for c in v)
        assert classify(f5, v) is classify(f5, minus)
        for c in range(1, 5):
            c2 = f5.mul(c, c)
            scaled = tuple(f5.mul(c2, x) for x in v)
            assert classify(f5, scaled) is classify(f5, v)


# -- sphere counts -----------------------------------------------------------

def test_reference_counts_at_27_points(f3):
    counts = sphere_counts_enumerated(f3, 3)
    assert counts.isotropic == 8
    assert counts.nonsquare == 12
    assert counts.square == 6


def test_plane_counts(f3):
    counts = sphere_counts_formula(f3, 2)
    assert (counts.isotropic, counts.square, counts.nonsquare) == (0, 4, 4)
    assert counts == sphere_counts_enumerated(f3, 2)


@pytest.mark.parametrize("p,h,n", GRID)
def test_formula_equals_enumeration(p, h, n):
    f = Field(p, h)
    assert sphere_counts_formula(f, n) == sphere_counts_enumerated(f, n)


@pytest.mark.parametrize("p,h,n", [(3, 1, 40), (3, 1, 41), (5, 1, 28)])
def test_counts_stay_exact_beyond_int64(p, h, n):
    """q^n >= 2^63; at 3^41 and 5^28 the count of square norms is too, so
    int64 counts would wrap."""
    f = Field(p, h)
    assert f.q ** n >= 2 ** 63
    counts = sphere_counts_enumerated(f, n)
    assert counts == sphere_counts_formula(f, n)
    assert 1 + counts.isotropic + counts.square + counts.nonsquare == f.q ** n


@pytest.mark.parametrize("counts", [sphere_counts_formula, sphere_counts_enumerated])
def test_counts_refuse_n_below_one(f3, counts):
    with pytest.raises(ValueError, match="n must be >= 1"):
        counts(f3, 0)


@pytest.mark.parametrize("p,h,n", GRID)
def test_counts_partition_the_space(p, h, n):
    f = Field(p, h)
    c = sphere_counts_formula(f, n)
    assert 1 + c.isotropic + c.square + c.nonsquare == f.q ** n
    assert c.eps == (0 if f.q % 4 == 1 else 1)


@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (3, 1, 4), (5, 1, 3), (7, 1, 3),
                                   (3, 2, 3), (5, 2, 3)])
def test_isotropic_class_nonempty_for_n_at_least_three(p, h, n):
    assert sphere_counts_formula(Field(p, h), n).isotropic > 0


# -- cones -------------------------------------------------------------------

def test_cone_plane_is_a_single_vertex(f3):
    assert cone(f3, 2, (0, 0)) == frozenset({(0, 0)})


def test_cone_size_is_isotropic_count_plus_one(f3, f5):
    for field, n in [(f3, 3), (f5, 2), (f5, 3), (f3, 4)]:
        s0 = sphere_counts_formula(field, n).isotropic
        assert len(cone(field, n, (0,) * n)) == s0 + 1


def test_cone_contains_vertex_and_translates(f3):
    base = cone(f3, 3, (0, 0, 0))
    for a in [(1, 0, 2), (2, 2, 2)]:
        shifted = cone(f3, 3, a)
        assert a in shifted
        rebuilt = frozenset(tuple(f3.add(x, t) for x, t in zip(p, a))
                            for p in base)
        assert shifted == rebuilt


def test_norm_agrees_with_distance_from_origin(f9):
    for v in enumerate_points(f9, 2):
        assert norm(f9, v) == distance(f9, v, (0, 0))


def test_norm_and_distance_reject_out_of_range_coordinates(f3):
    for bad in ((0, 3), (-1, 0), (0, 4)):
        with pytest.raises(ValueError, match="out of range"):
            norm(f3, bad)
        with pytest.raises(ValueError, match="out of range"):
            distance(f3, bad, (0, 0))
        with pytest.raises(ValueError, match="out of range"):
            distance(f3, (0, 0), bad)


def test_scalar_norms_never_build_mul():
    f = Field(3, 8)
    assert classify(f, (1, 2)) is SphereClass.SQUARE
    assert is_integral(f, (1, 2), (5, 7))
    assert vars(f.tables).keys() == {fld.name for fld in dataclasses.fields(f.tables)}


# default moduli and, for h > 1, one that is not the default
NORM_MODULI = [(3, 1, None), (7, 1, None), (3, 2, (2, 2, 1)), (5, 2, (2, 1, 1)),
               (3, 3, (1, 0, 2, 1))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p,h,modulus", NORM_MODULI)
def test_norm_array_equals_the_point_matrix_route(p, h, modulus, n):
    f = Field(p, h, modulus)
    if modulus is not None:
        assert f.modulus != least_irreducible(p, h)
    got, want = space._norm_array(f, n), norm_array_oracle(f, n)
    assert (got.dtype, got.shape, got.flags.writeable) == (
        want.dtype, want.shape, want.flags.writeable)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p,h,modulus", NORM_MODULI)
def test_histogram_counts_equal_the_per_point_scan(p, h, modulus, n):
    f = Field(p, h, modulus)
    assert sphere_counts_enumerated(f, n) == sphere_counts_oracle(f, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p,h,modulus", NORM_MODULI)
def test_census_in_blocks_of_a_few_entries(monkeypatch, p, h, modulus, n):
    """Blocks of 3 entries hold one row of add each, so each step of the
    census runs one block per row of its support."""
    monkeypatch.setattr(space, "BLOCK", 3)
    f = Field(p, h, modulus)
    assert sphere_counts_enumerated(f, n) == sphere_counts_oracle(f, n)


@pytest.mark.parametrize("p,n", [(3, 41), (5, 28)])
def test_census_in_blocks_stays_exact_beyond_int64(monkeypatch, p, n):
    """The blocks' partial counts of Python ints add up exactly."""
    monkeypatch.setattr(space, "BLOCK", 3)
    f = Field(p)
    assert sphere_counts_enumerated(f, n) == sphere_counts_formula(f, n)


@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 2), (3, 2, 2), (7, 1, 3)])
def test_class_of_point_matches_classify(p, h, n):
    f = Field(p, h)
    expected = [list(SphereClass).index(classify(f, v)) for v in enumerate_points(f, n)]
    codes = class_of_point(f, n)
    assert codes.dtype == np.uint8 and codes.tolist() == expected


# -- shared caches -----------------------------------------------------------

def test_cached_arrays_are_read_only_with_one_entry():
    f = Field(3)
    pairs, points = class_of_pair(f, 2), class_of_point(f, 2)
    assert pairs is class_of_pair(f, 2)
    assert points is class_of_point(f, 2)
    for arr in (pairs, points[None], point_matrix(f, 2)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 1] = 2
    assert build_integral_graph(f, 2).num_edges == 18


def test_caches_keep_at_most_cache_size_entries():
    """Every bulk cache keeps the last (field, n) pair's table alone; an
    evicted entry is rebuilt equal and read-only."""
    keys = [(Field(p), n) for p in (3, 5, 7, 11) for n in (1, 2, 3) if p ** n <= 400]
    cached = (space.point_matrix, space.class_of_pair, space.class_of_point,
              orbits._m_images)
    first = [f(*keys[0]) for f in cached]
    for key in keys:
        for f in cached:
            f(*key)
    for f, old in zip(cached, first):
        assert f.cache_info().currsize == 1
        new = f(*keys[0])
        assert new is not old
        assert np.array_equal(new, old) and not new.flags.writeable
