"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values tagged as derived were computed by the
independent oracles in this repository (brute-force scans, enumeration)
before being pinned here as regression constants.
"""

import time

import pytest

from intaut import Field
from intaut.graph import (Verdict, automorphism_group, build_integral_graph,
                          verify_classification)
from intaut.orbits import (OrbitalStatus, classify_partition, m_orbits,
                           orbital_connected)
from intaut.space import (SphereClass, sphere_counts_enumerated,
                          sphere_counts_formula)
from intaut.transform import (preserves_cones, preserves_integral,
                              recognize_semiaffine, satisfies_zero_iff,
                              to_permutation, read_permutation_file,
                              write_permutation_file)
from oracles import (close_permutation_group, orthogonal_bruteforce,
                     stabilizer_orbits)
from test_cli import run_cli

GRID = [(p, h, n)
        for p in (3, 5, 7) for h in (1, 2) for n in (2, 3, 4, 5)
        if (p ** h) ** n <= 20000]


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def timed_53():
    start = time.perf_counter()
    rep = verify_classification(Field(5), 3)
    return rep, time.perf_counter() - start


@pytest.fixture(scope="module")
def timed_34():
    start = time.perf_counter()
    rep = verify_classification(Field(3), 4)
    return rep, time.perf_counter() - start


def test_criterion_1_sphere_formula_oracle():
    start = time.perf_counter()
    for p, h, n in GRID:
        f = Field(p, h)
        formula = sphere_counts_formula(f, n)
        enumerated = sphere_counts_enumerated(f, n)
        assert formula == enumerated, (p, h, n, formula, enumerated)
    datum = sphere_counts_formula(Field(3), 3)
    assert (datum.isotropic, datum.nonsquare) == (8, 12)
    elapsed = time.perf_counter() - start
    assert report(1, elapsed < 10.0,
                  f"formula == enumeration on {len(GRID)} instances, "
                  f"(3,3) datum (8,12); {elapsed:.2f}s < 10s")


def test_criterion_2_classification_27(graph33, aut33, sa33):
    start = time.perf_counter()
    f3 = Field(3)
    orth_count = len(orthogonal_bruteforce(f3, 3))   # full 3^9 scan
    assert orth_count == 48
    cross_check = 27 * 1 * (2 * orth_count) // 2
    assert cross_check == 1296
    assert aut33.order == len(sa33) == cross_check == 1296
    elapsed = time.perf_counter() - start
    assert report(2, elapsed < 60.0,
                  f"|Aut| = |group| = 1296 = 27*(2*48)/2, |O(3,3)| = 48 "
                  f"by brute scan; {elapsed:.2f}s < 60s")


def test_criterion_3_higher_instances(timed_53, timed_34):
    rep53, t53 = timed_53
    rep34, t34 = timed_34
    assert rep53.verdict is Verdict.EQUAL, rep53
    assert rep34.verdict is Verdict.EQUAL, rep34
    assert t53 < 600.0 and t34 < 600.0
    assert report(3, True,
                  f"(5,1,3) Equal {rep53.aut_order} in {t53:.1f}s; "
                  f"(3,1,4) Equal {rep34.aut_order} in {t34:.1f}s; both < 600s")


def test_criterion_4_plane_dichotomy():
    start = time.perf_counter()
    expected = {(3, 1): Verdict.EQUAL, (7, 1): Verdict.EQUAL,
                (5, 1): Verdict.STRICTLY_LARGER, (3, 2): Verdict.STRICTLY_LARGER}
    got = {}
    for (p, h), want in expected.items():
        rep = verify_classification(Field(p, h), 2)
        got[(p, h)] = rep.verdict
        assert rep.verdict is want, ((p, h), rep)
    elapsed = time.perf_counter() - start
    assert report(4, elapsed < 60.0,
                  f"planes q=3,7 Equal; q=5,9 StrictlyLarger; {elapsed:.2f}s < 60s")


def test_criterion_5_m_orbit_structure():
    checked = 0
    for p, h, n in GRID:
        f = Field(p, h)
        if f.q ** n > 3200:
            continue
        assert m_orbits(f, n).as_sets() == classify_partition(f, n).as_sets(), \
            (p, h, n)
        checked += 1
    assert report(5, checked > 0,
                  f"scalar-orthogonal orbits equal the norm-class partition "
                  f"on {checked} instances")


def test_criterion_6_orbital_connectivity():
    classes = (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE)
    for p, n in [(3, 3), (5, 3), (3, 4)]:
        f = Field(p)
        for cls in classes:
            assert orbital_connected(f, n, cls) is OrbitalStatus.CONNECTED, \
                (p, n, cls)
    assert orbital_connected(Field(3), 2, SphereClass.ISOTROPIC) \
        is OrbitalStatus.DEGENERATE
    assert report(6, True,
                  "all classes connected at (3,1,3), (5,1,3), (3,1,4); "
                  "degenerate isotropic class at (3,1,2)")


def test_criterion_7_zero_iff_and_recognition(aut33, sa33):
    start = time.perf_counter()
    f3 = Field(3)
    elements = close_permutation_group(aut33.generators, 27)
    assert len(elements) == 1296
    assert set(elements) == set(sa33)
    for perm in elements:
        assert satisfies_zero_iff(f3, 3, perm)
        assert preserves_cones(f3, 3, perm)
        m = recognize_semiaffine(f3, 3, perm)
        assert m is not None
        assert to_permutation(f3, 3, m) == perm
    elapsed = time.perf_counter() - start
    assert report(7, elapsed < 300.0,
                  f"all 1296 automorphisms preserve distance zero and cones "
                  f"and decompose with round trip; {elapsed:.1f}s < 300s")


def test_criterion_8_rank(aut33, timed_53):
    f3, f5 = Field(3), Field(5)
    results = []
    for f, n, aut in [(f3, 3, aut33), (f5, 3, None)]:
        if aut is None:
            aut = automorphism_group(build_integral_graph(f, n))
        elements = close_permutation_group(aut.generators, f.q ** n)
        assert len(elements) == aut.order
        dec = stabilizer_orbits(elements, 0)
        counts = sphere_counts_formula(f, n)
        nontrivial = sorted(len(o) for o in dec.orbits if 0 not in o)
        expected = sorted([counts.isotropic, counts.square, counts.nonsquare])
        assert dec.rank == 4, (f.q, n, dec.rank)
        assert nontrivial == expected, (f.q, n, nontrivial, expected)
        results.append((f.q, nontrivial))
    assert report(8, True,
                  f"rank 4 with subdegrees {results[0][1]} at q=3 and "
                  f"{results[1][1]} at q=5")


def test_criterion_9_property_suites(tmp_path, graph33, sa33):
    start = time.perf_counter()
    # field axioms, exhaustive for q <= 81
    import itertools
    for p, h in [(3, 1), (3, 4), (5, 2), (7, 2)]:
        f = Field(p, h)
        assert f.q <= 81
        els = range(f.q)
        for a, b, c in itertools.product(els, els, els):
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
        # square-class multiplicativity
        for a, b in itertools.product(range(1, f.q), range(1, f.q)):
            assert f.is_square(f.mul(a, b)) == \
                (not (f.is_square(a) ^ f.is_square(b)))
        # Frobenius order divides h (vacuous on prime fields)
        if h > 1:
            for a in els:
                x = a
                for _ in range(h):
                    x = f.frobenius(x, 1)
                assert x == a

    # permutation-file round trip
    perm_path = tmp_path / "p.txt"
    write_permutation_file(perm_path, sa33[123])
    assert read_permutation_file(perm_path, 27) == sa33[123]

    # graph-format round trips
    from intaut.graph import dimacs_text, graph6_bytes, parse_dimacs, parse_graph6
    assert (parse_graph6(graph6_bytes(graph33)) == graph33.adjacency).all()
    assert (parse_dimacs(dimacs_text(graph33)) == graph33.adjacency).all()

    # negative control: corrupted graph -> Violation with exit 1 via the CLI
    res = run_cli("verify", "--p", "3", "--h", "1", "--n", "2", "--corrupt",
                  "--output", "tsv")
    assert res.returncode == 1
    assert "violation" in res.stdout

    # negative control: a transposition is not in the family and breaks
    # integrality
    f3 = Field(3)
    swap = list(range(27))
    swap[1], swap[2] = swap[2], swap[1]
    swap = tuple(swap)
    assert recognize_semiaffine(f3, 3, swap) is None
    assert not preserves_integral(f3, 3, swap)

    elapsed = time.perf_counter() - start
    assert report(9, elapsed < 60.0,
                  f"axioms, square classes, Frobenius, round trips and "
                  f"negative controls; {elapsed:.1f}s < 60s")
