import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intaut import Field, NotABijectionError, automorphism_group, build_integral_graph
from intaut.orbits import orbits_under, semiaffine_generators
from intaut.space import (canonical_index, class_of_pair, integral_matrix,
                          point_of_index)
from intaut.transform import (SemiaffineMap, batch_preserves, cayley_preserves,
                              check_bijection, cones_preserved,
                              map_permutation_array, normalize_map, preserves_cones,
                              preserves_integral, read_permutation_file,
                              recognize_semiaffine, recognize_semiaffine_batch,
                              satisfies_zero_iff, to_permutation,
                              write_permutation_file)
from oracles import (apply_map, enumerate_orthogonal, is_orthogonal, mat_identity,
                     orthogonal_bruteforce, preserves_oracle, semiaffine_group,
                     unit_sphere)


def identity_map(n):
    return SemiaffineMap(1, 0, mat_identity(n), (0,) * n)


# -- applying maps -----------------------------------------------------------

def test_identity_map_fixes_everything(f3):
    ident = identity_map(3)
    for k in range(27):
        x = point_of_index(f3, 3, k)
        assert apply_map(f3, ident, x) == x


def test_translation_action(f3):
    shift = (1, 2, 0)
    m = SemiaffineMap(1, 0, mat_identity(3), shift)
    assert apply_map(f3, m, (0, 0, 0)) == shift
    assert apply_map(f3, m, (2, 2, 1)) == (0, 1, 1)


def test_frobenius_action_on_extension(f9):
    m = SemiaffineMap(1, 1, mat_identity(3), (0, 0, 0))
    t = 3
    image = apply_map(f9, m, (t, 0, 0))
    assert image == (f9.neg(t), 0, 0)      # t^3 = -t under x^2 + 1


def test_apply_dimension_mismatch(f3):
    with pytest.raises(ValueError, match="dimension"):
        apply_map(f3, identity_map(3), (0, 0))


# -- orthogonal enumeration ---------------------------------------------------

def test_orthogonal_one_dimensional_is_plus_minus_one(f3, f5, f7):
    for f in (f3, f5, f7):
        mats = enumerate_orthogonal(f, 1)
        assert mats == [((1,),), ((f.neg(1),),)] or \
            sorted(mats) == sorted([((1,),), ((f.neg(1),),)])
        assert len(mats) == 2


def test_orthogonal_counts_against_bruteforce(f3, f5):
    for f, n in [(f3, 2), (f3, 3), (f5, 2)]:
        fast = enumerate_orthogonal(f, n)
        slow = orthogonal_bruteforce(f, n)
        assert set(fast) == set(slow)
        assert len(fast) == len(set(fast))


def test_orthogonal_frozen_sizes(f3, f5):
    assert len(enumerate_orthogonal(f3, 3)) == 48
    assert len(enumerate_orthogonal(f3, 2)) == 8
    assert len(enumerate_orthogonal(f5, 2)) == 8


def test_orthogonal_members_verify(f9):
    mats = enumerate_orthogonal(f9, 2)
    assert all(is_orthogonal(f9, A) for A in mats)
    assert len(mats) == 16


def test_orthogonal_output_deterministic(f3):
    mats = enumerate_orthogonal(f3, 3)
    assert mats == enumerate_orthogonal(f3, 3)
    # rows are tried in ascending point order, so the identity comes first
    assert mats[0] == mat_identity(3)


def test_group_size_guard(f7):
    from intaut import TooLargeError
    with pytest.raises(TooLargeError):
        semiaffine_group(f7, 3, max_elements=1000)


def test_unit_sphere_norms(f5):
    from intaut.space import norm
    for v in unit_sphere(f5, 3):
        assert norm(f5, v) == 1


# -- the permutation group ----------------------------------------------------

def test_group_order_27(sa33):
    assert len(sa33) == 1296


def test_group_order_line(f3):
    # all six bijections of a 3-point line are affine
    assert len(semiaffine_group(f3, 1)) == 6


def test_group_contains_identity(sa33):
    assert tuple(range(27)) in set(sa33)


@pytest.mark.parametrize("p,h,n", [(3, 1, 1), (3, 1, 2), (3, 1, 3),
                                   (5, 1, 2), (7, 1, 2), (3, 2, 2)])
def test_group_order_formula(p, h, n):
    f = Field(p, h)
    sa = semiaffine_group(f, n)
    orth = enumerate_orthogonal(f, n)
    assert len(sa) == f.q ** n * h * (f.q - 1) * len(orth) // 2


def test_group_closed_under_composition_and_inverse_exhaustive(sa33):
    # all 1296^2 compositions, vectorised; all 1296 inverses
    import numpy as np
    arr = np.array(sa33, dtype=np.uint8)
    members = {row.tobytes() for row in arr}
    for f in arr:
        composed = f[arr]              # row j = f after g_j
        for row in composed:
            assert row.tobytes() in members
    for g in arr:
        assert np.argsort(g).astype(np.uint8).tobytes() in members


def test_group_output_sorted_and_deterministic(f3):
    a = semiaffine_group(f3, 2)
    b = semiaffine_group(f3, 2)
    assert a == b == sorted(a)


def test_every_group_element_preserves_integrality(f3, sa33):
    import numpy as np
    from intaut.space import integral_matrix
    from intaut.transform import batch_preserves
    rel = integral_matrix(f3, 3)
    ok = batch_preserves(np.array(sa33, dtype=np.int32), rel)
    assert bool(ok.all())


def test_batch_preserves_agrees_with_one_row_calls_across_blocks():
    """Rows are checked one at a time through buffers reused from row to
    row.  A stack of 90 rows at 729 points, automorphisms, the same with
    two images swapped and shuffled images mixed, gives the answers of
    one-row calls, so no row's answer depends on the rows before it.  The
    stack is longer than two of the 2^24-entry blocks (2^24 // N^2 rows
    each) an earlier kernel checked together."""
    from intaut.orbits import semiaffine_generators
    from intaut.space import integral_matrix
    from intaut.transform import batch_preserves
    f3 = Field(3)
    rel = integral_matrix(f3, 6)
    gens = np.stack(semiaffine_generators(f3, 6)[:30])
    rng = np.random.default_rng(5)
    swapped = gens.copy()
    swapped[:, [0, 1]] = swapped[:, [1, 0]]
    perms = np.concatenate([gens, swapped, rng.permuted(gens, axis=1)])
    perms = perms[rng.permutation(len(perms))]
    assert len(perms) > 2 * (2 ** 24 // rel.size)
    got = batch_preserves(perms, rel)
    assert got.tolist() == [bool(batch_preserves(p[None], rel)[0]) for p in perms]
    assert got.sum() == len(gens)


@st.composite
def relations_with_automorphisms(draw):
    """A square relation, symmetric or not, diagonal set, unset or mixed,
    bool or small integers, and a permutation g that preserves it: the
    relation sums a random one over the powers of g.  Rows to check: g and
    two of its powers, the same with two images swapped, random
    permutations."""
    num = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.permutation(num)
    base = rng.integers(0, 2, size=(num, num))
    relation = np.zeros((num, num), dtype=np.int64)
    power = np.arange(num)
    while True:                                # power runs through g^k
        relation += base[power[:, None], power[None, :]]
        power = g[power]
        if (power == np.arange(num)).all():
            break
    if draw(st.booleans()):
        relation = relation + relation.T
    diagonal = draw(st.sampled_from(["set", "unset", "kept"]))
    if diagonal != "kept":
        np.fill_diagonal(relation, diagonal == "set")
    relation = (relation > 1 if draw(st.booleans())
                else (relation % 3).astype(np.uint8))
    autos = [g, g[g], np.arange(num)]
    swapped = [a.copy() for a in autos]
    for a in swapped:
        i, j = rng.choice(num, size=2, replace=num < 2)
        a[[i, j]] = a[[j, i]]
    others = [rng.permutation(num) for _ in range(3)]
    perms = np.stack(autos + swapped + others)
    return relation, perms[rng.permutation(len(perms))]


@settings(max_examples=300, deadline=None)
@given(relations_with_automorphisms())
def test_batch_preserves_matches_the_definition(case):
    relation, perms = case
    got = batch_preserves(perms, relation)
    assert got.dtype == bool and got.shape == (len(perms),)
    assert got.tolist() == [preserves_oracle(p, relation) for p in perms]
    assert batch_preserves(perms[:0], relation).shape == (0,)


@pytest.mark.parametrize("row", [[0, 0, 2], [0, 1, 3], [-1, 0, 1], [1, 2, 0.0]])
def test_batch_preserves_refuses_rows_that_are_not_permutations(row):
    relation = np.eye(3, dtype=bool)
    with pytest.raises(NotABijectionError):
        batch_preserves(np.array([[0, 1, 2], row]), relation)


@pytest.mark.parametrize("perms, relation", [
    (np.array([[0, 1, 2]]), np.zeros((3, 4), dtype=bool)),      # not square
    (np.array([[0, 1, 2]]), np.zeros(9, dtype=bool)),           # not a matrix
    (np.array([[0, 1]]), np.zeros((3, 3), dtype=bool)),         # row too short
    (np.array([0, 1, 2]), np.zeros((3, 3), dtype=bool))])       # one bare row
def test_batch_preserves_refuses_shapes(perms, relation):
    with pytest.raises(ValueError) as info:
        batch_preserves(perms, relation)
    assert not isinstance(info.value, NotABijectionError)


def test_batch_preserves_peaks_under_six_bytes_per_pair():
    """On the 259 generators at 3^6 the kernel's buffers, not a block of
    mapped relations, bound its memory: numpy reports its allocations to
    tracemalloc, and the peak stays under 6 N^2 bytes of the bool relation."""
    from intaut.orbits import semiaffine_generators
    f3 = Field(3)
    rel = integral_matrix(f3, 6)
    gens = np.stack(semiaffine_generators(f3, 6))
    assert gens.shape == (259, 729)
    tracemalloc.start()
    try:
        ok = batch_preserves(gens, rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak < 6 * rel.size


# every instance verify takes (n >= 2) of at most 729 points
UP_TO_729 = [(p, h, n) for p, h in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
                                    (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)]
             for n in range(2, 7) if (p ** h) ** n <= 729]


@pytest.mark.parametrize("p,h,n", UP_TO_729,
                         ids=[f"{p ** h}^{n}" for p, h, n in UP_TO_729])
def test_cayley_route_agrees_with_the_kernel(p, h, n):
    """Containment through the translations says what batch_preserves on
    every family generator says: yes on the integral graph, the
    zero-distance relation and the class codes, no on the integral graph
    with one, two or five random edges flipped."""
    field = Field(p, h)
    gens = np.stack(semiaffine_generators(field, n))
    codes = class_of_pair(field, n)
    adj = build_integral_graph(field, n).adjacency
    for relation in (adj, codes <= 1, codes):
        assert cayley_preserves(field, n, gens, relation)
        assert batch_preserves(gens, relation).all()
    rng = np.random.default_rng(p * 100 + h * 10 + n)
    pairs = np.argwhere(np.triu(np.ones(adj.shape, dtype=bool), 1))
    for flips in (1, 2, 5):
        bad = adj.copy()
        for u, v in pairs[rng.choice(len(pairs), size=flips, replace=False)].tolist():
            bad[u, v] = bad[v, u] = not bad[u, v]
        assert not cayley_preserves(field, n, gens, bad)
        assert not batch_preserves(gens, bad).all()


def test_cayley_route_refuses_maps_that_are_not_affine(f5):
    """The route is sound, not complete: on the plane over 5 the engine
    finds automorphisms outside the family, which the kernel accepts and
    the route, finding no affine-semilinear decomposition, does not."""
    adj = build_integral_graph(f5, 2).adjacency
    gens = np.asarray(automorphism_group(adj).generators)
    assert batch_preserves(gens, adj).all()
    assert not cayley_preserves(f5, 2, gens, adj)


@pytest.mark.parametrize("perms, relation, error", [
    (np.array([[0, 1, 2]]), np.zeros((9, 9), dtype=bool), ValueError),
    (np.arange(9)[None], np.zeros((9, 3), dtype=bool), ValueError),
    (np.arange(3)[None], np.zeros((3, 3), dtype=bool), ValueError),    # not 3^2 rows
    (np.zeros((1, 9), dtype=int), np.zeros((9, 9), dtype=bool), NotABijectionError),
    (np.arange(9.0)[None], np.zeros((9, 9), dtype=bool), NotABijectionError)])
def test_cayley_route_refuses_bad_input(f3, perms, relation, error):
    with pytest.raises(error):
        cayley_preserves(f3, 2, perms, relation)


@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_recognize_batch_matches_family_membership(p, h, n):
    """One batch of family elements, the engine's generators (some outside
    the family on the planes over 5 and 9), each with two images swapped,
    and random bijections: a row is recognized iff it is a family element,
    as a normalized map inducing it, and every row gets the answer of its
    own one-row call."""
    field = Field(p, h)
    total = field.q ** n
    family = semiaffine_group(field, n)
    rng = np.random.default_rng(p * 100 + h * 10 + n)
    rows = [family[i] for i in rng.choice(len(family), 30, replace=False)]
    rows += automorphism_group(build_integral_graph(field, n)).generators
    for row in list(rows):
        u, v = rng.choice(total, size=2, replace=False)
        swapped = list(row)
        swapped[u], swapped[v] = swapped[v], swapped[u]
        rows.append(tuple(swapped))
    rows += [tuple(rng.permutation(total).tolist()) for _ in range(5)]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    got = recognize_semiaffine_batch(field, n, np.array(rows))
    members = set(family)
    assert [m is not None for m in got] == [row in members for row in rows]
    for m, row in zip(got, rows):
        if m is not None:
            assert m == normalize_map(field, m)
            assert to_permutation(field, n, m) == row
    assert got == [recognize_semiaffine(field, n, row) for row in rows]
    assert recognize_semiaffine_batch(field, n, np.empty((0, total), dtype=int)) == []


def test_to_permutation_translation_is_fixed_point_free(f3):
    m = SemiaffineMap(1, 0, mat_identity(3), (0, 1, 0))
    perm = to_permutation(f3, 3, m)
    assert all(perm[k] != k for k in range(27))
    # order of a translation divides p
    f = np.asarray(perm)
    assert np.array_equal(f[f[f]], np.arange(27))


def test_to_permutation_matches_pointwise_definition(f9):
    A = enumerate_orthogonal(f9, 2)[5]
    m = SemiaffineMap(2, 1, A, (4, 7))
    perm = to_permutation(f9, 2, m)
    for k in range(81):
        x = point_of_index(f9, 2, k)
        assert perm[k] == canonical_index(f9, apply_map(f9, m, x))


# -- normalization -------------------------------------------------------------

@pytest.mark.parametrize("m", [
    SemiaffineMap(1, 0, ((-1,),), (0,)),      # would wrap round to 2
    SemiaffineMap(1, 0, ((3,),), (0,)),
    SemiaffineMap(1, 0, ((1,),), (5,)),
    SemiaffineMap(1, 0, ((1,),), (-1,)),
    SemiaffineMap(3, 0, ((1,),), (0,)),
    SemiaffineMap(-2, 0, ((1,),), (0,)),
    SemiaffineMap(1, 1, ((1,),), (0,)),       # GF(3) has only frob 0
    SemiaffineMap(1, 0, ((1,),), (0, 0)),
])
def test_to_permutation_rejects_parameters_out_of_range(f3, m):
    with pytest.raises(ValueError):
        to_permutation(f3, 1, m)


def test_map_permutation_array_rejects_a_bad_matrix_in_a_stack(f9):
    stack = np.zeros((3, 2, 2), dtype=int)
    stack[:, 0, 0] = stack[:, 1, 1] = 1
    map_permutation_array(f9, 2, 1, 1, stack, (0, 0))
    stack[2, 1, 0] = 9
    with pytest.raises(ValueError):
        map_permutation_array(f9, 2, 1, 1, stack, (0, 0))


def test_normalization_picks_smaller_scale(f3):
    A = mat_identity(3)
    m = SemiaffineMap(2, 0, A, (0, 0, 0))
    norm1 = normalize_map(f3, m)
    assert norm1.scale == 1
    assert normalize_map(f3, norm1) == norm1      # idempotent
    # the two representatives act identically
    assert to_permutation(f3, 3, m) == to_permutation(f3, 3, norm1)


# -- recognition ---------------------------------------------------------------

def test_recognize_identity(f3):
    m = recognize_semiaffine(f3, 3, tuple(range(27)))
    assert m == identity_map(3)


def test_recognize_translation(f3):
    shift = (2, 0, 1)
    perm = to_permutation(f3, 3, SemiaffineMap(1, 0, mat_identity(3), shift))
    m = recognize_semiaffine(f3, 3, perm)
    assert m.shift == shift
    assert m.frob == 0
    assert to_permutation(f3, 3, m) == perm


def test_recognize_transposition_fails(f3):
    swap = list(range(27))
    swap[3], swap[7] = swap[7], swap[3]
    assert recognize_semiaffine(f3, 3, tuple(swap)) is None


@pytest.mark.parametrize("p,h,n", [(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 1)],
                         ids=["3^2", "3^3", "5^2", "9^1"])
def test_recognize_round_trip_whole_plane_group(p, h, n):
    """Every element of the family is recognized as a map inducing it, with
    negated scales normalized, and no element with two images swapped is
    recognized: a transposition fixes all but two points, which no other
    element of these families does."""
    field = Field(p, h)
    rng = random.Random(p * 100 + h * 10 + n)
    total = field.q ** n
    for perm in semiaffine_group(field, n):
        m = recognize_semiaffine(field, n, perm)
        assert m is not None
        assert m == normalize_map(field, m)
        assert to_permutation(field, n, m) == perm
        u, v = rng.sample(range(total), 2)
        swapped = list(perm)
        swapped[u], swapped[v] = swapped[v], swapped[u]
        assert recognize_semiaffine(field, n, tuple(swapped)) is None


@pytest.mark.parametrize("p,h,frob,B", [
    (3, 1, 0, ((1, 1), (0, 1))),       # a shear: B B^T is not scalar
    (3, 1, 0, ((1, 1), (1, 2))),       # B B^T = 2 I, and 2 is not a square
    (5, 1, 0, ((1, 0), (0, 2))),       # B B^T = diag(1, 4)
    (3, 2, 1, ((1, 1), (0, 1))),
])
def test_recognize_rejects_linear_bijections_outside_the_family(p, h, frob, B):
    field = Field(p, h)
    perm = to_permutation(field, 2, SemiaffineMap(1, frob, B, (1, 0)))
    assert recognize_semiaffine(field, 2, perm) is None


def test_recognize_frobenius_maps_on_extension(f9):
    rng = random.Random(3)
    orth = enumerate_orthogonal(f9, 2)
    for _ in range(12):
        m = SemiaffineMap(rng.randrange(1, 9), rng.randrange(2),
                          orth[rng.randrange(len(orth))],
                          (rng.randrange(9), rng.randrange(9)))
        perm = to_permutation(f9, 2, m)
        rec = recognize_semiaffine(f9, 2, perm)
        assert rec is not None
        assert to_permutation(f9, 2, rec) == perm
        assert rec == normalize_map(f9, m)


def test_recognize_rejects_non_bijection(f3):
    with pytest.raises(NotABijectionError):
        recognize_semiaffine(f3, 3, (0,) * 27)


# -- predicates ----------------------------------------------------------------

def test_group_elements_preserve_everything(f3, sa33):
    rng = random.Random(11)
    for perm in rng.sample(sa33, 40):
        assert preserves_integral(f3, 3, perm)
        assert satisfies_zero_iff(f3, 3, perm)
        assert preserves_cones(f3, 3, perm)


def test_transposition_breaks_integrality(f3):
    swap = list(range(27))
    swap[1], swap[2] = swap[2], swap[1]
    assert not preserves_integral(f3, 3, tuple(swap))


def test_zero_iff_violation_by_construction(f3):
    # swap an isotropic neighbor of the origin with a non-isotropic point
    from intaut.space import classify, SphereClass
    iso = next(k for k in range(1, 27)
               if classify(f3, point_of_index(f3, 3, k)) is SphereClass.ISOTROPIC)
    non = next(k for k in range(1, 27)
               if classify(f3, point_of_index(f3, 3, k)) is SphereClass.NONSQUARE)
    swap = list(range(27))
    swap[iso], swap[non] = swap[non], swap[iso]
    assert not satisfies_zero_iff(f3, 3, tuple(swap))
    assert not preserves_cones(f3, 3, tuple(swap))


def test_cone_and_zero_iff_agree_on_random_bijections(f3):
    rng = random.Random(123)
    verdicts = []
    for _ in range(100):
        perm = list(range(27))
        rng.shuffle(perm)
        perm = tuple(perm)
        a = satisfies_zero_iff(f3, 3, perm)
        b = preserves_cones(f3, 3, perm)
        assert a == b
        verdicts.append(a)
    # also on permutations known to satisfy the condition
    for perm in random.Random(5).sample(semiaffine_group(f3, 2), 20):
        assert satisfies_zero_iff(f3, 2, perm) == preserves_cones(f3, 2, perm)


# -- the one permutation check ---------------------------------------------------

# fields and dimensions whose q^n points the field-side entry points take
ROW_INSTANCES = [(3, 1, 1), (5, 1, 1), (3, 1, 2), (3, 2, 1)]


def row_entry_points(num, instance):
    """Every library function that takes rows of permutations of range(num),
    each called on a whole stack; the field-side ones only when num is the
    q^n of an instance."""
    relation = np.eye(num, dtype=bool)
    calls = {
        "check_bijection": lambda perms: [check_bijection(p, num) for p in perms],
        "batch_preserves": lambda perms: batch_preserves(perms, relation),
        "orbits_under": lambda perms: orbits_under(perms, num),
    }
    if instance is not None:
        field, n = Field(*instance[:2]), instance[2]
        calls.update({
            "cayley_preserves": lambda perms: cayley_preserves(field, n, perms, relation),
            "cones_preserved": lambda perms: cones_preserved(field, n, perms),
            "recognize_semiaffine_batch":
                lambda perms: recognize_semiaffine_batch(field, n, perms),
        })
    return calls


@st.composite
def permutation_stacks(draw):
    """(num, instance, stack, fault): a stack of permutations of range(num),
    possibly empty, and the fault put into it: None, a repeated image or an
    out-of-range entry in one row, a wrong length of every row, or a float
    dtype of the whole stack.  An empty stack with no fault may come as the
    list []."""
    instance = draw(st.one_of(st.none(), st.sampled_from(ROW_INSTANCES)))
    if instance is None:
        num = draw(st.integers(0, 6))
    else:
        num = (instance[0] ** instance[1]) ** instance[2]
    rows = draw(st.lists(st.permutations(range(num)), max_size=4))
    stack = np.array(rows, dtype=np.intp).reshape(len(rows), num)
    faults = ["length"]
    if rows and num:
        faults += ["range", "float"] + (["repeat"] if num > 1 else [])
    fault = draw(st.sampled_from([None, *faults]))
    r = draw(st.integers(0, max(len(rows) - 1, 0)))
    if fault == "length":
        if num and draw(st.booleans()):
            stack = stack[:, :-1]
        else:
            stack = np.concatenate((stack, np.zeros((len(rows), 1), dtype=np.intp)), axis=1)
    elif fault == "range":
        stack[r, draw(st.integers(0, num - 1))] = draw(st.sampled_from([-1, num]))
    elif fault == "float":
        stack = stack.astype(float)
    elif fault == "repeat":
        i, j = draw(st.lists(st.integers(0, num - 1), min_size=2, max_size=2,
                             unique=True))
        stack[r, i] = stack[r, j]
    elif not rows and draw(st.booleans()):
        stack = []
    return num, instance, stack, fault


@settings(max_examples=300, deadline=None)
@given(permutation_stacks())
def test_every_entry_point_takes_the_same_rows(case):
    """One validator, one verdict: every entry point accepts the same
    stacks, the empty one and size 0 among them, and refuses the same
    broken ones with a ValueError.  A non-permutation row is a
    NotABijectionError everywhere; a wrong length is one only to
    check_bijection, which takes a single row, and a plain ValueError to
    the stacked entry points, on an empty stack too, where check_bijection
    has no row to refuse."""
    num, instance, stack, fault = case
    for name, call in row_entry_points(num, instance).items():
        if fault is None or name == "check_bijection" and not len(stack):
            call(stack)
            continue
        with pytest.raises(ValueError) as info:
            call(stack)
        bijection = fault != "length" or name == "check_bijection"
        assert isinstance(info.value, NotABijectionError) == bijection, name


# -- permutation files ----------------------------------------------------------

def test_permutation_file_round_trip(tmp_path, sa33):
    path = tmp_path / "perm.txt"
    perm = sa33[77]
    write_permutation_file(path, perm)
    assert read_permutation_file(path, 27) == perm


def test_permutation_file_comments_allowed(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("# a comment\n2 0 1\n")
    assert read_permutation_file(path, 3) == (2, 0, 1)


def test_permutation_file_repeated_image(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("0 0 1\n")
    with pytest.raises(NotABijectionError):
        read_permutation_file(path, 3)


def test_permutation_file_malformed(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("0 one 2\n")
    with pytest.raises(ValueError, match="malformed"):
        read_permutation_file(path, 3)
