import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intaut import Field, TooLargeError, space
from intaut.orbits import (OrbitalStatus, classify_partition, m_generators,
                           m_orbits, orbital_connected, orbits_under)
from intaut.space import SphereClass
from intaut.transform import SemiaffineMap, to_permutation
from oracles import (NotAGroupError, close_permutation_group,
                     enumerate_orthogonal, is_orthogonal, mat_identity,
                     stabilizer_orbits)
from test_oracles import orbital_neighbors, reflection_matrix


def mat_mul(field, A, B) -> tuple:
    """The product of two tuple matrices, by gathers over the field tables."""
    tb = field.tables
    terms = tb.mul(np.asarray(A)[:, :, None], np.asarray(B)[None, :, :])
    acc = terms[:, 0]
    for k in range(1, terms.shape[1]):
        acc = tb.add[acc, terms[:, k]]
    return tuple(map(tuple, acc.tolist()))

M_GRID = [(3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2), (5, 1, 2), (5, 1, 3),
          (7, 1, 2), (7, 1, 3)]


# -- orbits_under --------------------------------------------------------------

class UnionFind:
    """Disjoint sets over range(n) with path halving and union by size."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x == y:
            return
        if self.size[x] < self.size[y]:
            x, y = y, x
        self.parent[y] = x
        self.size[x] += self.size[y]

    def groups(self):
        out = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return out


def orbits_oracle(perms, size):
    """Orbits by merging k with perm[k] for every generator and point."""
    uf = UnionFind(size)
    for perm in perms:
        for k in range(size):
            uf.union(k, int(perm[k]))
    groups = sorted(uf.groups().values(), key=lambda o: o[0])
    return tuple(tuple(o) for o in groups)


@st.composite
def generator_sets(draw):
    size = draw(st.integers(0, 30))
    perms = draw(st.lists(st.permutations(range(size)), max_size=6))
    return perms, size


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_orbits_match_union_find(case):
    perms, size = case
    assert orbits_under(perms, size).orbits == orbits_oracle(perms, size)
    arrays = [np.array(p, dtype=np.int32) for p in perms]
    assert orbits_under(arrays, size).orbits == orbits_oracle(perms, size)
    stacked = np.array(perms, dtype=np.intp).reshape(len(perms), size)
    assert orbits_under(stacked, size).orbits == orbits_oracle(perms, size)


@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 3), (3, 2, 2), (7, 1, 2)])
def test_m_orbits_match_union_find(p, h, n):
    f = Field(p, h)
    gens = m_generators(f, n)
    assert m_orbits(f, n).orbits == orbits_oracle(gens, f.q ** n)


def test_empty_generators_give_singletons():
    dec = orbits_under([], 5)
    assert dec.orbits == ((0,), (1,), (2,), (3,), (4,))


def test_single_cycle_is_one_orbit():
    cycle = tuple((i + 1) % 5 for i in range(5))
    dec = orbits_under([cycle], 5)
    assert dec.orbits == (tuple(range(5)),)


def test_translations_act_transitively(f3):
    perms = [to_permutation(f3, 3, SemiaffineMap(1, 0, mat_identity(3), b))
             for b in itertools.product(range(3), repeat=3)]
    dec = orbits_under(perms, 27)
    assert dec.sizes() == (27,)


def test_orbits_independent_of_generator_order(f3):
    perms = [to_permutation(f3, 2, SemiaffineMap(1, 0, A, (0, 0)))
             for A in enumerate_orthogonal(f3, 2)]
    a = orbits_under(perms, 9)
    b = orbits_under(list(reversed(perms)), 9)
    assert a.as_sets() == b.as_sets()


def test_size_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        orbits_under([(1, 0)], 3)


@pytest.mark.parametrize("perm", [(-1, 0, 1), (1, 2, 3), (0, 1, 5)])
def test_entries_outside_range_rejected(perm):
    with pytest.raises(ValueError, match="lie in"):
        orbits_under([(1, 2, 0), perm], 3)


@pytest.mark.parametrize("perm", [(0, 0, 1), (2, 2, 2)])
def test_non_permutations_rejected(perm):
    with pytest.raises(ValueError, match="permutations"):
        orbits_under([perm], 3)


def test_non_integer_entries_rejected():
    with pytest.raises(ValueError, match="integers"):
        orbits_under([(1.0, 0.0)], 2)


# -- reflections ---------------------------------------------------------------

def test_reflection_matrices_are_orthogonal_involutions(f5):
    for v in [(1, 0, 0), (1, 1, 0), (1, 2, 3)]:
        tau = reflection_matrix(f5, v)
        assert is_orthogonal(f5, tau)
        assert mat_mul(f5, tau, tau) == mat_identity(3)


def test_reflection_rejects_isotropic_vector(f3):
    with pytest.raises(ValueError, match="nonzero norm"):
        reflection_matrix(f3, (1, 1, 1))


@pytest.mark.parametrize("p,h,n", [(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_reflections_generate_the_full_orthogonal_group(p, h, n):
    # matrix-level closure of all projective reflection classes must equal
    # the backtracking enumeration
    from intaut.space import point_of_index, norm
    f = Field(p, h)
    refs, seen = [], set()
    for k in range(1, f.q ** n):
        v = point_of_index(f, n, k)
        if norm(f, v) == 0:
            continue
        lead = next(c for c in v if c)
        unit = tuple(f.mul(f.inv(lead), c) for c in v)
        if unit not in seen:
            seen.add(unit)
            refs.append(reflection_matrix(f, unit))
    closure = set(refs)
    frontier = list(refs)
    while frontier:
        new = []
        for A in frontier:
            for B in refs:
                C = mat_mul(f, A, B)
                if C not in closure:
                    closure.add(C)
                    new.append(C)
        frontier = new
    assert closure == set(enumerate_orthogonal(f, n))


# -- m_orbits ------------------------------------------------------------------

@pytest.mark.parametrize("p,h,n", M_GRID)
def test_m_orbits_equal_classify_partition(p, h, n):
    f = Field(p, h)
    assert m_orbits(f, n).as_sets() == classify_partition(f, n).as_sets()


def test_m_orbit_sizes_27(f3):
    assert sorted(m_orbits(f3, 3).sizes()) == [1, 6, 8, 12]


def test_m_orbit_sizes_plane(f3):
    assert sorted(m_orbits(f3, 2).sizes()) == [1, 4, 4]


def test_origin_always_singleton(f5):
    dec = m_orbits(f5, 2)
    assert (0,) in dec.orbits


def test_m_generators_refuse_beyond_the_bulk_bound(f3, monkeypatch):
    # 3^3: nine projective anisotropic classes and the scalar, 27 images each
    monkeypatch.setattr(space, "MAX_BULK_ENTRIES", 10 * 27)
    assert len(m_generators(f3, 3)) == 10
    monkeypatch.setattr(space, "MAX_BULK_ENTRIES", 10 * 27 - 1)
    with pytest.raises(TooLargeError, match="10 generators on 27 points"):
        m_generators(f3, 3)


def test_m_generators_refuse_without_a_pass_over_the_points(monkeypatch):
    def per_point(field, n):
        raise AssertionError("a norm for every point")

    monkeypatch.setattr(space, "_norm_array", per_point)
    f3 = Field(3)
    counts = space.sphere_counts_formula(f3, 20)
    classes = (counts.square + counts.nonsquare) // 2   # anisotropic, up to sign
    with pytest.raises(TooLargeError, match=f"{classes + 1} generators on {3 ** 20} points"):
        m_generators(f3, 20)


# -- stabilizer orbits -----------------------------------------------------------

def test_stabilizer_subdegrees_27(sa33):
    dec = stabilizer_orbits(sa33, 0)
    assert dec.rank == 4
    nontrivial = sorted(len(o) for o in dec.orbits if 0 not in o)
    assert nontrivial == [6, 8, 12]


def test_stabilizer_of_translations_is_trivial(f3):
    perms = [to_permutation(f3, 2, SemiaffineMap(1, 0, mat_identity(2), b))
             for b in itertools.product(range(3), repeat=2)]
    dec = stabilizer_orbits(perms, 0)
    assert dec.sizes() == (1,) * 9


def test_full_symmetric_group_has_rank_two():
    group = [tuple(p) for p in itertools.permutations(range(4))]
    dec = stabilizer_orbits(group, 0)
    assert dec.rank == 2
    assert sorted(dec.sizes()) == [1, 3]


def test_closure_verification_flags_non_group(f3):
    cycle = tuple((i + 1) % 9 for i in range(9))
    with pytest.raises(NotAGroupError):
        stabilizer_orbits([tuple(range(9)), cycle], 0, verify_closure=True)


def test_closure_verification_passes_on_group():
    group = [tuple(p) for p in itertools.permutations(range(3))]
    dec = stabilizer_orbits(group, 0, verify_closure=True)
    assert dec.rank == 2


# -- orbital connectivity ---------------------------------------------------------

def test_orbital_connected_27(f3):
    for cls in (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE):
        assert orbital_connected(f3, 3, cls) is OrbitalStatus.CONNECTED


def test_orbital_degenerate_for_empty_class(f3):
    assert orbital_connected(f3, 2, SphereClass.ISOTROPIC) is OrbitalStatus.DEGENERATE


def test_orbital_connected_plane_isotropic(f5):
    assert orbital_connected(f5, 2, SphereClass.ISOTROPIC) is OrbitalStatus.CONNECTED


def test_orbital_rejects_origin_class(f3):
    with pytest.raises(ValueError):
        orbital_connected(f3, 3, SphereClass.ORIGIN)


def test_orbital_out_degree_matches_class_size(f3):
    from intaut.space import sphere_counts_formula
    counts = sphere_counts_formula(f3, 3)
    expected = {SphereClass.ISOTROPIC: counts.isotropic,
                SphereClass.SQUARE: counts.square,
                SphereClass.NONSQUARE: counts.nonsquare}
    for cls, size in expected.items():
        for vertex in (0, 5, 26):
            nbrs = orbital_neighbors(f3, 3, cls, vertex)
            assert len(nbrs) == size
            assert len(set(nbrs)) == size


# -- closure ----------------------------------------------------------------------

def test_close_permutation_group_dihedral():
    rot = (1, 2, 3, 4, 0)
    flip = (0, 4, 3, 2, 1)
    group = close_permutation_group([rot, flip], 5)
    assert len(group) == 10
    assert tuple(range(5)) in group


def test_close_permutation_group_from_aut_generators(aut33, sa33):
    elements = close_permutation_group(aut33.generators, 27)
    assert len(elements) == aut33.order == 1296
    assert set(elements) == set(sa33)
