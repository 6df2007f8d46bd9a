"""Vectorised fast paths against the scalar code they replaced.

Equitable refinement, orbital-graph connectivity (a rank over GF(p) in the
library, a breadth-first search here), the cone sets, graph6 and DIMACS
reading and writing, the pair class codes, the reflection generators and the
point permutations of maps each have a fast implementation in the library.
The scalar (or earlier numpy) versions are kept here as oracles, and both
must give the same answers: the same ordered cells, the same connectivity
verdicts, the same cone sets, the same matrices and bytes, the same
permutations, and an identical `AutGroupResult` when the search runs on the
oracle refinement.  The refinement before the "all but the largest" fragment
rule stays as a second oracle, which must give the same set partition where
both are the coarsest equitable refinement.  The search that replays the
base path's refinement traces must return the `AutGroupResult` of the
exhaustive search; a trace replayed by its splitter positions must give the
recorded refinement on the same input and its relabeling on a relabeled
one, and the split must enqueue the fragments that the per-fragment dict
rule kept here picks.  The cone check must agree with one Python set per
cone.  `cone`, `cone_index_sets`, `preserves_cones_oracle`,
`reflection_matrix` and `orbital_neighbors` live only here; the element
lists of the map family and of generated groups live in `oracles.py`.
"""

import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import intaut
from intaut import Field, InternalInconsistencyError, graph, orbits, space, transform
from intaut.field import is_irreducible
from intaut.orbits import OrbitalStatus
from intaut.space import SphereClass
from oracles import encode_points, field_tables_oracle, mul_table_oracle
from test_graph import DIMACS_LIKE, GRAPH6_LIKE, small_graphs

# (p, h, n) of the integral graphs the refinement is compared on
GRAPHS = [(3, 1, 3), (5, 1, 2), (3, 2, 2), (7, 1, 3)]
NONZERO = (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE)


def refine_cells_oracle(adj, cells, worklist=None):
    """Equitable refinement trying every splitter on every cell in Python,
    every fragment of a split enqueued.

    A splitter S gives vertex v the count adj[:, S].sum(axis=1)[v], the
    number of arcs from v into S, also when adj is not symmetric."""
    cells = [list(c) for c in cells]
    queue = deque([list(c) for c in (worklist if worklist is not None else cells)])
    while queue:
        splitter = queue.popleft()
        counts = adj[:, splitter].sum(axis=1)
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                groups.setdefault(int(counts[v]), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            for key in sorted(groups):
                new_cells.append(groups[key])
                queue.append(groups[key])
        cells = new_cells
    return cells


def refine_hopcroft_oracle(adj, cells, worklist=None):
    """refine_cells_oracle with the library's fragment rule: every fragment
    of a split cell is enqueued except the first of the largest ones, and
    empty cells are dropped."""
    cells = [list(c) for c in cells if len(c)]
    queue = deque([list(c) for c in (worklist if worklist is not None else cells)])
    while queue:
        splitter = queue.popleft()
        counts = adj[:, splitter].sum(axis=1)
        new_cells = []
        for cell in cells:
            groups = {}
            for v in cell:
                groups.setdefault(int(counts[v]), []).append(v)
            fragments = [groups[key] for key in sorted(groups)]
            new_cells.extend(fragments)
            if len(fragments) > 1:
                largest = max(fragments, key=len)      # the first of the largest
                queue.extend(f for f in fragments if f is not largest)
        cells = new_cells
    return cells


def as_arrays(cells, num):
    """(order, bnd) of an ordered partition of range(num) without empty cells."""
    order = np.array([v for cell in cells for v in cell], dtype=np.intp)
    bnd = np.zeros(num, dtype=bool)
    if cells:
        bnd[np.cumsum([0] + [len(c) for c in cells[:-1]])] = True
    return order, bnd


def as_cells(order, bnd):
    return [c.tolist() for c in np.split(order, np.flatnonzero(bnd)[1:]) if c.size]


def refine(adj, cells, worklist=None):
    """graph._refine on vertex lists; worklist None means every cell."""
    cells = [c for c in cells if len(c)]
    splitters = cells if worklist is None else worklist
    order, bnd = as_arrays(cells, adj.shape[0])
    return as_cells(*graph._refine(graph._columns(adj), order, bnd,
                                   [np.asarray(s, dtype=np.intp) for s in splitters]))


def set_partition(cells):
    return {frozenset(c) for c in cells if c}


def orbital_neighbors(field, n, sphere_class, index):
    """Out-neighbors x + y of the vertex x, over all y in the step class;
    out-degree therefore equals the class cardinality."""
    if sphere_class is SphereClass.ORIGIN:
        raise ValueError("step class must be one of the nonzero classes")
    x = space.point_of_index(field, n, index)
    return tuple(space.canonical_index(field, space.vec_add(field, x, y))
                 for y in space.enumerate_points(field, n)
                 if space.classify(field, y) is sphere_class)


def orbital_connected_oracle(field, n, sphere_class):
    """Breadth-first search with one scalar vector addition per step."""
    total = space.num_points(field, n)
    steps = [y for y in space.enumerate_points(field, n)
             if space.classify(field, y) is sphere_class]
    if not steps:
        return OrbitalStatus.DEGENERATE
    step_set = set(steps)
    for s in steps:
        if tuple(field.neg(c) for c in s) not in step_set:
            raise InternalInconsistencyError("step class is not symmetric")
    seen = bytearray(total)
    seen[0] = 1
    frontier = [(0,) * n]
    reached = 1
    while frontier:
        nxt = []
        for x in frontier:
            for s in steps:
                y = space.vec_add(field, x, s)
                k = space.canonical_index(field, y)
                if not seen[k]:
                    seen[k] = 1
                    reached += 1
                    nxt.append(y)
        frontier = nxt
    return OrbitalStatus.CONNECTED if reached == total else OrbitalStatus.DISCONNECTED


def relabeled(p, h, n, seed):
    adj = graph.build_integral_graph(Field(p, h), n).adjacency
    inv = np.argsort(np.random.default_rng(seed).permutation(adj.shape[0]))
    return adj[inv][:, inv]


# -- equitable refinement -------------------------------------------------------

def individualized(cells, v):
    """The ordered partition with v split off in front of its cell."""
    out = []
    for cell in cells:
        if v in cell:
            out.append([v])
            cell = [w for w in cell if w != v]
        out.append(cell)
    return [c for c in out if c]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p,h,n", GRAPHS)
def test_refinement_matches_oracle_on_integral_graphs(p, h, n, seed):
    """The root refinement and every individualization of its target cell:
    equal ordered cells with the fragment-rule oracle and equal set
    partitions with the all-fragments oracle."""
    adj = relabeled(p, h, n, seed)
    num = adj.shape[0]
    cols = graph._columns(adj)
    unit = [list(range(num))]
    root = refine(adj, unit)
    assert root == refine_hopcroft_oracle(adj, unit)
    assert set_partition(root) == set_partition(refine_cells_oracle(adj, unit))
    order, bnd = as_arrays(root, num)
    a, b = graph._target_cell(bnd)
    assert order[a:b].tolist() == min((c for c in root if len(c) > 1), key=len)
    for v in order[a:b].tolist():
        split = individualized(root, v)
        got = as_cells(*graph._individualize(cols, order, bnd, a, b, v))
        assert got == refine_hopcroft_oracle(adj, split, worklist=[[v]])
        everything = refine_cells_oracle(adj, split, worklist=split)
        assert set_partition(got) == set_partition(everything)


@st.composite
def partitioned_graphs(draw):
    """A 0-40 vertex simple graph, an ordered partition (empty cells allowed)
    and a worklist: None, or a list of arbitrary vertex lists."""
    m = draw(st.integers(0, 40))
    bits = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    adj = np.triu(np.array(bits, dtype=bool).reshape(m, m), 1)
    adj |= adj.T
    vertices = draw(st.permutations(range(m)))
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=6)))
    bounds = [0, *cuts, m]
    cells = [list(vertices[a:b]) for a, b in zip(bounds, bounds[1:])]
    worklist = draw(st.none() | st.lists(
        st.lists(st.integers(0, max(m - 1, 0)), max_size=m, unique=True),
        max_size=6))
    return adj, cells, worklist


def check_against_oracles(adj, cells, worklist):
    """Equal ordered cells with the fragment-rule oracle for any worklist;
    with every cell a splitter both rules reach the coarsest equitable
    refinement, so the set partition equals the all-fragments oracle's."""
    got = refine(adj, cells, worklist)
    assert got == refine_hopcroft_oracle(adj, cells, worklist)
    if worklist is None:
        assert set_partition(got) == set_partition(refine_cells_oracle(adj, cells))


@settings(max_examples=300, deadline=None)
@given(partitioned_graphs())
def test_refinement_matches_oracle_on_random_partitions(case):
    check_against_oracles(*case)


@settings(max_examples=100, deadline=None)
@given(partitioned_graphs(), st.randoms(use_true_random=False))
def test_refinement_is_label_invariant(case, rnd):
    """Refining sigma(G) from sigma(cells) gives sigma applied cell by cell."""
    adj, cells, _ = case
    num = adj.shape[0]
    sigma = np.array(rnd.sample(range(num), num), dtype=np.intp)
    inv = np.argsort(sigma)
    moved = [sigma[c].tolist() for c in cells]
    got = refine(adj[inv][:, inv], moved)
    assert [sorted(c) for c in got] == [sorted(sigma[c].tolist())
                                        for c in refine(adj, cells)]


@pytest.mark.parametrize("p,h,n", GRAPHS)
def test_individualization_is_label_invariant(p, h, n):
    adj = relabeled(p, h, n, seed=3)
    num = adj.shape[0]
    sigma = np.random.default_rng(4).permutation(num)
    inv = np.argsort(sigma)
    root = refine(adj, [list(range(num))])
    other = refine(adj[inv][:, inv], [list(range(num))])
    assert [sorted(c) for c in other] == [sorted(sigma[c].tolist()) for c in root]
    v = min((c for c in root if len(c) > 1), key=len)[0]
    got = refine(adj, individualized(root, v), [[v]])
    moved = refine(adj[inv][:, inv], individualized(other, int(sigma[v])),
                   [[int(sigma[v])]])
    assert [sorted(c) for c in moved] == [sorted(sigma[c].tolist()) for c in got]


@pytest.mark.parametrize("p,h,n", GRAPHS)
def test_search_on_oracle_refinement_is_identical(p, h, n, monkeypatch):
    adj = relabeled(p, h, n, seed=7)
    fast = graph.automorphism_group(adj)
    calls = []

    def oracle_refine(cols, order, bnd, splitters, record=None, replay=None):
        """Records no trace and replays none: every chase is refined exactly."""
        calls.append(len(splitters))
        cells = refine_hopcroft_oracle(cols.T, as_cells(order, bnd),
                                       [list(s) for s in splitters])
        return as_arrays(cells, order.size)

    monkeypatch.setattr(graph, "_refine", oracle_refine)
    assert graph.automorphism_group(adj) == fast
    assert len(calls) > fast.node_count      # the root and every search node


# -- trace replay ---------------------------------------------------------------

def search_without_replay(adj, chase):
    """graph.automorphism_group with `_refine` ignoring replay: a chase is
    refined exactly ("exact") or ends at its first node ("miss"), which
    leaves only the exhaustive search."""
    real = graph._refine

    def refine(cols, order, bnd, splitters, record=None, replay=None):
        if replay is not None and chase == "miss":
            return order, np.zeros_like(bnd)       # no path mask is all False
        return real(cols, order, bnd, splitters, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_refine", refine)
        return graph.automorphism_group(adj)


def check_replay_is_exact(adj):
    got = graph.automorphism_group(adj)
    assert got == search_without_replay(adj, "exact")
    assert got == search_without_replay(adj, "miss")


@st.composite
def graphs_with_copies(draw):
    """A 0-40 vertex simple graph made of one to four copies of a drawn one,
    relabeled, so that many branches are automorphic."""
    copies = draw(st.integers(1, 4))
    m = draw(st.integers(0, 40 // copies))
    bits = draw(st.binary(min_size=-(-m * m // 8), max_size=-(-m * m // 8)))
    block = np.unpackbits(np.frombuffer(bits, dtype=np.uint8))[:m * m]
    block = np.triu(block.astype(bool).reshape(m, m), 1)
    block |= block.T
    adj = union(*[block] * copies)
    inv = np.array(draw(st.permutations(range(adj.shape[0]))), dtype=np.intp)
    return adj[inv][:, inv]


@settings(max_examples=200, deadline=None)
@given(graphs_with_copies())
def test_replay_search_matches_exact_search_on_random_graphs(adj):
    check_replay_is_exact(adj)


def cycle(m):
    adj = np.zeros((m, m), dtype=bool)
    adj[np.arange(m), (np.arange(m) + 1) % m] = True
    return adj | adj.T


def union(*blocks):
    """Disjoint union: block diagonal adjacency."""
    sizes = [b.shape[0] for b in blocks]
    adj = np.zeros((sum(sizes), sum(sizes)), dtype=bool)
    for block, at in zip(blocks, np.cumsum([0] + sizes).tolist()):
        adj[at:at + block.shape[0], at:at + block.shape[0]] = block
    return adj


def cayley_z4_squared(steps):
    """Cayley graph on Z_4 x Z_4 with the given symmetric step set."""
    pts = [(i, j) for i in range(4) for j in range(4)]
    return np.array([[((x[0] - y[0]) % 4, (x[1] - y[1]) % 4) in steps
                      for y in pts] for x in pts])


ROOK_4 = cayley_z4_squared({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})
SHRIKHANDE = cayley_z4_squared({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})
UNIONS = {f"C{3 * k}+{k}C3": union(cycle(3 * k), *[cycle(3)] * k) for k in (2, 3, 4)}
UNIONS["shrikhande+rook4"] = union(SHRIKHANDE, ROOK_4)


def relabel(adj, seed):
    inv = np.argsort(np.random.default_rng(seed).permutation(adj.shape[0]))
    return adj[inv][:, inv]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(UNIONS))
def test_replay_search_matches_exact_search_on_unions(name, seed):
    check_replay_is_exact(relabel(UNIONS[name], seed))


def test_chase_misses_fall_back_to_the_exhaustive_search(monkeypatch):
    """A chase starts from a path node with a replay, a fallback from the
    same node without one; the trace is recorded from every other path
    node, and the path is built before any chase."""
    real = graph._individualize
    path, chases, misses = [], [], []

    def individualize(cols, order, bnd, a, b, v, record=None, replay=None):
        if record is not None:
            path.append(order)
        elif any(order is node for node in path):
            (misses if replay is None else chases).append(v)
        return real(cols, order, bnd, a, b, v, record, replay)

    monkeypatch.setattr(graph, "_individualize", individualize)
    res = graph.automorphism_group(relabel(UNIONS["C6+2C3"], 0))
    assert (res.order, res.node_count) == (864, 35)
    assert (len(chases), len(misses)) == (19, 12)
    assert set(misses) <= set(chases)


# -- positional replay -----------------------------------------------------------

def split_oracle(order, bnd, counts):
    """The split with the fragment rule run per fragment in Python: the
    first largest fragment of each split cell is found through a dict.
    Returns the new order and mask and the (start, end) of every fragment
    that is enqueued."""
    num = order.size
    ordered = counts[order].astype(np.intp)
    start = np.maximum.accumulate(np.where(bnd, np.arange(num), 0))
    sort = np.argsort(start * (num + 1) + ordered, kind="stable")
    order, ordered = order[sort], ordered[sort]
    split = bnd.copy()
    split[1:] |= ordered[1:] != ordered[:-1]
    was_split = np.zeros(num, dtype=bool)
    was_split[start[split & ~bnd]] = True
    cuts = np.flatnonzero(split)
    ends = np.append(cuts[1:], num)
    mine = was_split[start[cuts]]
    fragments = list(zip(start[cuts[mine]].tolist(), cuts[mine].tolist(),
                         ends[mine].tolist()))
    kept = {}       # former cell -> (size, start) of its first largest fragment
    for cell, a, b in fragments:
        if b - a > kept.get(cell, (0,))[0]:
            kept[cell] = b - a, a
    return order, split, [(a, b) for cell, a, b in fragments if kept[cell][1] != a]


@st.composite
def split_cases(draw):
    """An ordered partition of 1-40 vertices and counts in 0..2, so that many
    cells split into fragments of tied sizes."""
    m = draw(st.integers(1, 40))
    order = np.array(draw(st.permutations(range(m))), dtype=np.intp)
    bnd = np.array([True] + draw(st.lists(st.booleans(), min_size=m - 1,
                                          max_size=m - 1)))
    counts = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)),
                      dtype=np.uint16)
    return order, bnd, counts


# a cell of six that splits into three fragments of two, and one of four
# that splits into two of two
@example((np.arange(10), np.arange(10) % 6 == 0,
          np.array([0, 1, 2, 0, 1, 2, 1, 0, 0, 1], dtype=np.uint16)))
@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_split_enqueues_the_fragments_of_the_dict_rule(case):
    order, bnd, counts = case
    want_order, want_bnd, fragments = split_oracle(order, bnd, counts)
    queue = []
    got_order, got_bnd = graph._split(order, bnd, counts, queue, 7)
    assert np.array_equal(got_order, want_order)
    assert np.array_equal(got_bnd, want_bnd)
    assert queue == [(7, a, b) for a, b in fragments]
    assert np.array_equal(graph._split(order, bnd, counts)[0], want_order)


def path_nodes(adj):
    """The base path of automorphism_group as (order, bnd, a, b, v): each
    node's partition, its target cell order[a:b] and the vertex split off."""
    cols = graph._columns(adj)
    whole = np.arange(adj.shape[0])
    order, bnd = graph._refine(cols, whole, whole == 0, [whole])
    nodes = []
    while (cell := graph._target_cell(bnd)) is not None:
        a, b = cell
        v = int(order[a:b].min())
        nodes.append((order, bnd, a, b, v))
        order, bnd = graph._individualize(cols, order, bnd, a, b, v)
    return nodes


def check_positional_replay(adj, order, bnd, splitters, sigma):
    """A trace recorded on (order, bnd) and replayed on it gives the same
    partition; replayed on the sigma-relabeled graph, partition and
    splitters, it gives sigma of that partition, position by position."""
    trace = []
    cols = graph._columns(adj)
    want = graph._refine(cols, order, bnd, splitters, record=trace)
    versions = len(splitters)
    for version, a, b in trace:
        assert 0 <= version < versions and 0 <= a < b <= bnd.size
        versions += 1
    got = graph._refine(cols, order, bnd, splitters, replay=trace)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    inv = np.argsort(sigma)
    moved = graph._refine(graph._columns(adj[inv][:, inv]), sigma[order], bnd,
                          [sigma[s] for s in splitters], replay=trace)
    assert np.array_equal(moved[0], sigma[want[0]])
    assert np.array_equal(moved[1], want[1])


@pytest.mark.parametrize("adj", [relabeled(3, 1, 3, 5), relabeled(5, 1, 2, 5),
                                 relabeled(3, 2, 2, 5)] + [
    relabel(UNIONS[name], 0) for name in sorted(UNIONS)])
def test_replay_by_positions_on_every_path_node(adj):
    num = adj.shape[0]
    sigma = np.random.default_rng(11).permutation(num)
    whole = np.arange(num)
    check_positional_replay(adj, whole, whole == 0, [whole], sigma)
    for order, bnd, a, b, v in path_nodes(adj):
        cell = order[a:b]
        order = np.concatenate((order[:a], [v], cell[cell != v], order[b:]))
        bnd = bnd.copy()
        bnd[a + 1] = True
        check_positional_replay(adj, order, bnd, [order[a:a + 1]], sigma)


@settings(max_examples=200, deadline=None)
@given(partitioned_graphs(), st.randoms(use_true_random=False))
def test_replay_by_positions_on_random_partitions(case, rnd):
    adj, cells, worklist = case
    num = adj.shape[0]
    cells = [c for c in cells if c]
    order, bnd = as_arrays(cells, num)
    splitters = [np.asarray(s, dtype=np.intp)
                 for s in (cells if worklist is None else worklist)]
    sigma = np.array(rnd.sample(range(num), num), dtype=np.intp)
    check_positional_replay(adj, order, bnd, splitters, sigma)


# -- orbital connectivity -------------------------------------------------------

# 27^2 has an empty isotropic class, so DEGENERATE is compared too
@pytest.mark.parametrize("p,h,n", [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 1, 3),
                                   (3, 2, 2), (5, 1, 3), (7, 1, 3), (3, 3, 2)])
def test_orbital_connected_matches_oracle(p, h, n):
    field = Field(p, h)
    for cls in NONZERO:
        assert (orbits.orbital_connected(field, n, cls)
                is orbital_connected_oracle(field, n, cls))


def fake_classes(monkeypatch, members):
    """Make SQUARE the class of exactly the given point indices, NONSQUARE
    the class of every other point, in the class codes and in classify."""
    square, nonsquare = (list(SphereClass).index(c)
                         for c in (SphereClass.SQUARE, SphereClass.NONSQUARE))

    def class_of_point(field, n):
        codes = np.full(space.num_points(field, n), nonsquare, dtype=np.uint8)
        codes[sorted(members)] = square
        return codes

    def classify(field, v):
        return (SphereClass.SQUARE if space.canonical_index(field, v) in members
                else SphereClass.NONSQUARE)
    monkeypatch.setattr(space, "class_of_point", class_of_point)
    monkeypatch.setattr(space, "classify", classify)


def test_orbital_disconnected_when_steps_lie_on_one_axis(monkeypatch):
    field = Field(3)
    fake_classes(monkeypatch, {1, 2})          # (1, 0) and (2, 0)
    assert orbits.orbital_connected(field, 2, SphereClass.SQUARE) \
        is OrbitalStatus.DISCONNECTED
    assert orbital_connected_oracle(field, 2, SphereClass.SQUARE) \
        is OrbitalStatus.DISCONNECTED


# (p, h, n): GF(3), GF(5), GF(7), GF(9), GF(25) and GF(27) in dimensions 1 to 3
ORBITAL_SPACES = [(p, h, n)
                  for p, h in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3))
                  for n in (1, 2, 3)]


@st.composite
def symmetric_step_sets(draw, field, n):
    """A few step indices closed under negation, all GF(p)-rational (every
    coordinate in the prime field) when the flag drawn with them is set."""
    rational = field.h > 1 and draw(st.booleans())
    top = field.p - 1 if rational else field.q - 1
    coords = st.lists(st.integers(0, top), min_size=n, max_size=n).filter(any)
    count = draw(st.integers(1, n * field.h + 1))
    members = set()
    for x in draw(st.lists(coords, min_size=count, max_size=count)):
        members.add(space.canonical_index(field, x))
        members.add(space.canonical_index(field, [field.neg(c) for c in x]))
    return members, rational


# no shrink phase: shrinking a failure reruns the scalar oracle on up to
# 27^3 points once per candidate, for minutes
@pytest.mark.parametrize("p,h,n", ORBITAL_SPACES)
@settings(max_examples=20, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_orbital_connected_matches_oracle_on_random_steps(p, h, n, data):
    field = Field(p, h)
    members, rational = data.draw(symmetric_step_sets(field, n))
    with pytest.MonkeyPatch.context() as mp:
        fake_classes(mp, members)
        got = orbits.orbital_connected(field, n, SphereClass.SQUARE)
        assert got is orbital_connected_oracle(field, n, SphereClass.SQUARE)
    if rational:
        assert got is OrbitalStatus.DISCONNECTED


def test_orbital_rejects_asymmetric_step_class(monkeypatch):
    field = Field(3)
    fake_classes(monkeypatch, {1, 3})          # (1, 0) and (0, 1), no negatives
    with pytest.raises(InternalInconsistencyError):
        orbits.orbital_connected(field, 2, SphereClass.SQUARE)
    with pytest.raises(InternalInconsistencyError):
        orbital_connected_oracle(field, 2, SphereClass.SQUARE)


# -- cones ------------------------------------------------------------------------

def cone(field, n, vertex) -> frozenset:
    """All points at squared distance zero from the vertex (vertex included)."""
    return frozenset(p for p in space.enumerate_points(field, n)
                     if space.distance(field, p, vertex) == 0)


def cone_index_sets(field, n):
    """The cone of every vertex as a set of point indices."""
    zero = space.zero_distance_matrix(field, n)
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in zero)


def preserves_cones_oracle(field, n, perm):
    """transform.preserves_cones with one Python set per cone."""
    transform.check_bijection(perm, space.num_points(field, n))
    cones = cone_index_sets(field, n)
    return all({perm[x] for x in cones[vertex]} == cones[perm[vertex]]
               for vertex in range(len(cones)))


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (7, 3)])
def test_cone_sets_match_scalar_cones(p, n):
    field = Field(p)
    cones = transform._cones(field, n)
    points = space.enumerate_points(field, n)
    assert len(cones) == len(points)
    assert set(map(frozenset, cones.tolist())) <= set(cone_index_sets(field, n))
    for vertex, row in zip(points, cones.tolist()):
        assert row == sorted(space.canonical_index(field, x)
                             for x in cone(field, n, vertex))


# in dimension 3 every cone has more than one point and every automorphism
# of the integral graph preserves the cones
@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
def test_preserves_cones_matches_set_oracle(p, h, n):
    """Random bijections, the engine's generators, and each generator with
    two images swapped."""
    field = Field(p, h)
    total = space.num_points(field, n)
    rng = np.random.default_rng(p * 100 + h * 10 + n)
    perms = [tuple(rng.permutation(total).tolist()) for _ in range(20)]
    aut = graph.automorphism_group(graph.build_integral_graph(field, n))
    for gen in aut.generators:
        perms.append(gen)
        u, v = rng.choice(total, size=2, replace=False).tolist()
        swapped = list(gen)
        swapped[u], swapped[v] = swapped[v], swapped[u]
        perms.append(tuple(swapped))
    verdicts = [transform.preserves_cones(field, n, perm) for perm in perms]
    assert verdicts == [preserves_cones_oracle(field, n, perm) for perm in perms]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("block", [space.BLOCK, 2 ** 16, 40])
@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 3)])
def test_cones_preserved_matches_set_oracle_on_a_stack(monkeypatch, p, h, n, block):
    """One stack of random bijections, the engine's generators and each
    with two images swapped: cones_preserved and zero_iff_preserved give
    every row the set oracle's answer, with the default block, a larger one,
    and when the cones are built and mapped one row per block."""
    monkeypatch.setattr(space, "BLOCK", block)
    field = Field(p, h)
    total = space.num_points(field, n)
    rng = np.random.default_rng(block + p)
    gens = np.array(graph.automorphism_group(graph.build_integral_graph(field, n)).generators)
    swapped = gens.copy()
    cols = rng.choice(total, size=2, replace=False)
    swapped[:, cols] = swapped[:, cols[::-1]]
    perms = np.concatenate([gens, swapped, [rng.permutation(total) for _ in range(5)]])
    perms = perms[rng.permutation(len(perms))]
    want = [preserves_cones_oracle(field, n, tuple(row)) for row in perms.tolist()]
    assert transform.cones_preserved(field, n, perms).tolist() == want
    assert transform.zero_iff_preserved(field, n, perms).tolist() == want
    assert any(want) and not all(want)


# -- cold start -------------------------------------------------------------------

COLD_START = """
import contextlib, io, sys
from intaut import Field, cli, graph, orbits, transform
from intaut.space import SphereClass
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["field-info", "--p", "3", "--h", "6"]) == 0
    assert cli.main(["verify", "--p", "3", "--n", "3"]) == 0
    assert cli.main(["verify", "--p", "5", "--n", "2"]) == 0
    assert cli.main(["spheres", "--p", "31", "--h", "2", "--n", "2",
                     "--max-points", "923521"]) == 0
assert Field(3, 6).tables.mul(2, range(729)).shape == (729,)
f7 = Field(7)
for cls in (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE):
    orbits.orbital_connected(f7, 3, cls)
graph.automorphism_group(graph.build_integral_graph(f7, 3))
swap = list(range(343))
swap[1], swap[2] = 2, 1
assert transform.recognize_semiaffine(f7, 3, tuple(range(343))) is not None
assert transform.recognize_semiaffine(f7, 3, tuple(swap)) is None
print("numpy.ma" in sys.modules)
"""


VERIFY_AND_SEARCH = """
import contextlib, io, sys
import numpy as np
from intaut import Field, cli, graph
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--p", "3", "--n", "3"]) == 0
adj = graph.build_integral_graph(Field(3), 3).adjacency
inv = np.argsort(np.random.default_rng(5).permutation(adj.shape[0]))
assert graph.automorphism_group(adj[inv][:, inv]).order == 1296
print("numpy.ma" in sys.modules)
"""


INTERCHANGE = """
import sys
import numpy as np
from intaut import Field, graph
adj = graph.build_integral_graph(Field(3), 3).adjacency
inv = np.argsort(np.random.default_rng(5).permutation(adj.shape[0]))
adj = adj[inv][:, inv]
assert np.array_equal(graph.parse_dimacs(graph.dimacs_text(adj)), adj)
assert np.array_equal(graph.parse_graph6(graph.graph6_bytes(adj)), adj)
print("numpy.ma" in sys.modules)
"""


def imports_numpy_ma_cold(script):
    """Whether `script`, run in a fresh interpreter, leaves numpy.ma imported."""
    src = str(Path(intaut.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    return res.stdout.strip() == "True"


def test_hot_paths_do_not_import_numpy_ma():
    """numpy.ma costs about 15 ms on first import, which np.unique triggers;
    the verify, ladder and field-table paths must not pull it into a cold
    process."""
    assert not imports_numpy_ma_cold(COLD_START)


def test_search_on_a_relabeled_graph_does_not_import_numpy_ma():
    """The search's orbit masks, splits and replays stay off np.unique."""
    assert not imports_numpy_ma_cold(VERIFY_AND_SEARCH)


def test_interchange_round_trips_do_not_import_numpy_ma():
    """Every aut-ladder instance writes and reads both formats."""
    assert not imports_numpy_ma_cold(INTERCHANGE)


# -- DIMACS -----------------------------------------------------------------------

def dimacs_text_oracle(graph_):
    """DIMACS edge format: p-line then one 1-indexed e-line per edge, u < v."""
    adj = graph._as_matrix(graph_)
    num = adj.shape[0]
    rows, cols = np.nonzero(np.triu(adj, 1))
    lines = [f"p edge {num} {rows.size}"]
    lines.extend(f"e {i} {j}" for i, j in zip((rows + 1).tolist(), (cols + 1).tolist()))
    return "\n".join(lines) + "\n"


def parse_dimacs_oracle(text):
    """Line by line: lines end at \\n, \\v, \\f and \\r, bytes.split()
    separates fields and int() reads each field's text."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    num = None
    adj = None
    for raw in re.split(rb"[\n\v\f\r]", text):
        parts = [part.decode("utf-8") for part in raw.split()]
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"bad DIMACS problem line: {raw!r}")
            if adj is not None:
                raise ValueError(f"second DIMACS problem line: {raw!r}")
            num, declared = int(parts[2]), int(parts[3])
            adj = np.zeros((num, num), dtype=bool)
        elif parts[0] == "e":
            if adj is None:
                raise ValueError("DIMACS edge before problem line")
            try:
                _, a, b = parts
            except ValueError:
                raise ValueError(f"bad DIMACS edge line: {raw!r}") from None
            u, v = int(a) - 1, int(b) - 1
            if not (0 <= u < num and 0 <= v < num):
                raise ValueError(f"DIMACS edge out of range: {raw!r}")
            adj[u, v] = adj[v, u] = True
        else:
            raise ValueError(f"unknown DIMACS line: {raw!r}")
    if adj is None:
        raise ValueError("DIMACS input has no problem line")
    if adj.diagonal().any():
        raise ValueError("DIMACS input has a self-loop")
    edges = int(adj.sum()) // 2
    if edges != declared:
        raise ValueError(f"DIMACS problem line declares {declared} edges, "
                         f"found {edges}")
    return adj


def int_beyond_digits(data):
    """Whether a non-comment line holds a field that int() reads but that is
    not a run of ASCII digits, such as +1, 0_1 or -0."""
    for line in re.split(rb"[\n\v\f\r]", data):
        fields = [field.decode("ascii") for field in line.split()]
        if not fields or fields[0].startswith("c"):
            continue
        for field in fields[1:]:
            try:
                int(field)
            except ValueError:
                continue
            if not field.isdigit():
                return True
    return False


@settings(max_examples=600, deadline=None)
@given(DIMACS_LIKE)
def test_dimacs_parser_matches_oracle(data):
    """Equal matrices, or ValueError from both; the parser alone may reject
    only integers int() reads that are not plain ASCII digits."""
    try:
        expected = parse_dimacs_oracle(data)
    except ValueError:
        expected = None
    for form in (data, data.decode("ascii")):
        try:
            adj = graph.parse_dimacs(form)
        except ValueError:
            assert expected is None or int_beyond_digits(data)
        else:
            assert expected is not None and np.array_equal(adj, expected)


@settings(max_examples=400, deadline=None)
@given(DIMACS_LIKE, st.integers(1, 64))
@example(b"p edge 3 2\ne 1 2\n e 2 3\n", 64)     # one gap of two bytes, break first
@example(b"p edge 3 2\ne 1 2 \ne 2 3\n", 64)     # the same, break last
@example(b"p edge 3 2\ne 1 2\n e 2 3\n", 9)
@example(b"p edge 3 1\re 1 2\x0be 1 2", 5)       # no newline, no final break
def test_dimacs_parser_matches_oracle_at_every_chunk_size(data, chunk):
    """Chunks of 1 to 64 bytes put chunk ends next to every kind of byte:
    inside fields and gaps, at each line end, before an unterminated last
    line.  The parser must read the text as the oracle does regardless."""
    try:
        expected = parse_dimacs_oracle(data)
    except ValueError:
        expected = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "DIMACS_CHUNK", chunk)
        for form in (data, data.decode("ascii")):
            try:
                adj = graph.parse_dimacs(form)
            except ValueError:
                assert expected is None or int_beyond_digits(data)
            else:
                assert expected is not None and np.array_equal(adj, expected)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.integers(1, 64))
def test_dimacs_round_trip_at_every_chunk_size(adj, chunk):
    """The writer lays lines out in blocks of about DIMACS_CHUNK bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "DIMACS_CHUNK", chunk)
        text = graph.dimacs_text(adj)
        assert text == dimacs_text_oracle(adj)
        assert np.array_equal(graph.parse_dimacs(text), adj)


def test_dimacs_parser_narrowed_inputs():
    """What the oracle reads and the parser rejects: integers in other forms
    than ASCII digits, and non-ASCII text."""
    for text in ["p edge +2 1\ne 1 2\n", "p edge 2 1\ne 1 0_2\n",
                 "p edge -0 0\n", "p edge \u0662 0\n", "p edge 2 0\u2028"]:
        parse_dimacs_oracle(text)
        with pytest.raises(ValueError):
            graph.parse_dimacs(text)


def test_dimacs_parser_finds_lines_behind_whitespace():
    """A line's first field may follow whitespace before or after the break,
    also at the start of the input."""
    text = "  p edge 3 2\n e 1 2\r\n\v\te\t2  3 \f c e 9 9\n\n"
    adj = graph.parse_dimacs(text)
    assert np.array_equal(adj, parse_dimacs_oracle(text))
    assert adj.sum() == 4


def test_readers_refuse_a_field_split_by_x1c(tmp_path):
    """\\x1c is whitespace to str.split() but an ordinary byte to all three
    readers, which see one malformed field in "0\\x1c1"."""
    with pytest.raises(ValueError, match="runs of ASCII digits"):
        graph.parse_dimacs("p edge 2 1\ne 2 0\x1c1\n")
    with pytest.raises(ValueError, match="invalid graph6 character"):
        graph.parse_graph6("0\x1c1")
    path = tmp_path / "perm.txt"
    path.write_text("0\x1c1\n")
    with pytest.raises(ValueError, match="not a run of ASCII digits"):
        transform.read_permutation_file(path, 2)


def test_dimacs_parser_reads_lines_across_chunks(monkeypatch):
    """Chunks end at line breaks, a line longer than a chunk included."""
    adj = relabeled(3, 1, 3, seed=5)
    text = dimacs_text_oracle(adj).replace("\ne 1 ", "\ne" + " " * 40 + "1 ", 1)
    monkeypatch.setattr(graph, "DIMACS_CHUNK", 16)
    assert np.array_equal(graph.parse_dimacs(text), adj)
    assert np.array_equal(graph.parse_dimacs(text.replace("\n", "\r\n")), adj)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_dimacs_writer_matches_oracle(adj):
    assert graph.dimacs_text(adj) == dimacs_text_oracle(adj)


@pytest.mark.parametrize("p,h,n", [(3, 1, 6), (5, 2, 2)])
def test_dimacs_writer_matches_oracle_on_relabeled_graphs(p, h, n):
    adj = relabeled(p, h, n, seed=11)
    text = graph.dimacs_text(adj)
    assert text == dimacs_text_oracle(adj)
    assert np.array_equal(graph.parse_dimacs(text), adj)


def path_graph(num):
    adj = np.zeros((num, num), dtype=bool)
    k = np.arange(num - 1)
    adj[k, k + 1] = adj[k + 1, k] = True
    return adj


def random_graph(num, seed, density=0.1):
    adj = np.triu(np.random.default_rng(seed).random((num, num)) < density, 1)
    return adj | adj.T


@pytest.mark.parametrize("num", [9, 10, 99, 100, 999, 1000])
def test_dimacs_writer_where_the_label_width_changes(num):
    for adj in (path_graph(num), random_graph(num, seed=num)):
        text = graph.dimacs_text(adj)
        assert text == dimacs_text_oracle(adj)
        assert np.array_equal(graph.parse_dimacs(text), adj)


def test_dimacs_reads_numbers_of_many_digits():
    """Leading zeros may make a field any length; only the value counts."""
    for field in ["0000000000000000000001", "0" * 17 + "1", "0" * 18 + "1",
                  "0" * 19 + "1"]:
        adj = graph.parse_dimacs(f"p edge 2 1\ne {field} 2\n")
        assert adj[0, 1] and adj[1, 0]
    chunk = np.frombuffer(b" 999999999999999999 0000000000000000000000042\n",
                          dtype=np.uint8)
    got, fault = graph._dimacs_numbers(chunk, np.array([1, 20]), np.array([19, 45]))
    assert got.tolist() == [999999999999999999, 42]
    assert fault.tolist() == [0, 0]


@pytest.mark.parametrize("field", [
    "1000000000000000000",                 # 10^18
    "1000000000000000001",                 # 1 if the place of 10^18 were lost
    "9223372036854775807",                 # the largest int64
    "9999999999999999999",
    "18446744073709551617",                # 2^64 + 1, 1 if it wrapped
    "1" + "0" * 40 + "1",
    "0" * 30 + "1" + "0" * 18 + "1",
])
def test_dimacs_rejects_numbers_of_10_to_the_18_and_above(field):
    for line in (f"e {field} 2", f"e 1 {field}"):
        with pytest.raises(ValueError, match="number out of range"):
            graph.parse_dimacs(f"p edge 2 1\n{line}\n")


def test_dimacs_rejects_a_non_digit_among_leading_zeros():
    with pytest.raises(ValueError, match="ASCII digits"):
        graph.parse_dimacs("p edge 2 1\ne " + "0" * 30 + "x" + "0" * 20 + "1 2\n")
    with pytest.raises(ValueError, match="ASCII digits"):     # before any range error
        graph.parse_dimacs("p edge 2 1\ne " + "9" * 30 + " x2\n")


def test_dimacs_reads_a_long_run_of_zeros_in_linear_time():
    text = "p edge 2 1\ne " + "0" * 100_000 + "1 2\n"
    start = time.perf_counter()
    adj = graph.parse_dimacs(text)
    assert time.perf_counter() - start < 0.5
    assert adj[0, 1] and adj.sum() == 2


# -- graph6 -------------------------------------------------------------------------

GRAPH6_SHIFTS = np.arange(5, -1, -1, dtype=np.uint8)
GRAPH6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1])


def graph6_header_oracle(num):
    if num <= 62:
        return bytes([num + 63])
    count, prefix = (3, b"~") if num <= 258047 else (6, b"~~")
    return prefix + bytes(((num >> shift) & 63) + 63
                          for shift in range((count - 1) * 6, -1, -6))


def graph6_bytes_oracle(graph_):
    """The upper triangle by np.tril_indices, 6 bits at a time by a dot
    product with the bit weights."""
    adj = graph._as_matrix(graph_)
    num = adj.shape[0]
    bits = adj.T[np.tril_indices(num, -1)]       # adj[i, j] for i < j, by j
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bool)])
    body = bits.reshape(-1, 6) @ GRAPH6_WEIGHTS + 63
    return graph6_header_oracle(num) + body.astype(np.uint8).tobytes() + b"\n"


def parse_graph6_oracle(data):
    """Bits by shifting every byte by each of 5..0, stored by np.tril_indices.
    Only ASCII whitespace around the line is dropped."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    line = data.strip(" \t\n\r\v\f")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise ValueError("empty graph6 input")
    try:
        codes = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        raise ValueError("invalid graph6 character") from None
    if ((codes < 63) | (codes > 126)).any():
        raise ValueError("invalid graph6 character")
    codes = codes - np.uint8(63)
    head = codes[:8].tolist()
    if head[0] < 63:
        num, pos = head[0], 1
    elif len(head) >= 4 and head[1] < 63:
        num = (head[1] << 12) | (head[2] << 6) | head[3]
        pos = 4
    elif len(head) == 8 and head[1] == 63:
        num = 0
        for c in head[2:8]:
            num = (num << 6) | c
        pos = 8
    else:
        raise ValueError("truncated graph6 size header")
    needed = num * (num - 1) // 2
    payload = -(-needed // 6)
    if len(codes) - pos != payload:
        raise ValueError(f"graph6 payload of {num} vertices must be {payload} "
                         f"bytes, got {len(codes) - pos}")
    bits = ((codes[pos:, None] >> GRAPH6_SHIFTS) & 1).astype(bool).ravel()
    if bits[needed:].any():
        raise ValueError("graph6 padding bits must be zero")
    adj = np.zeros((num, num), dtype=bool)
    adj.T[np.tril_indices(num, -1)] = bits[:needed]
    return adj | adj.T


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_graph6_matches_oracle(adj):
    data = graph.graph6_bytes(adj)
    assert data == graph6_bytes_oracle(adj)
    back = graph.parse_graph6(data)
    assert np.array_equal(back, parse_graph6_oracle(data))
    assert np.array_equal(back, adj)


@settings(max_examples=300, deadline=None)
@given(GRAPH6_LIKE)
def test_graph6_parser_matches_oracle_on_arbitrary_codes(data):
    """Equal matrices, or ValueError from both."""
    try:
        expected = parse_graph6_oracle(data)
    except ValueError:
        with pytest.raises(ValueError):
            graph.parse_graph6(data)
    else:
        assert np.array_equal(graph.parse_graph6(data), expected)


@pytest.mark.parametrize("data", ["@\u00a0", "@\x1c", b"@\x1c"])
def test_graph6_oracle_and_parser_refuse_non_ascii_whitespace(data):
    """Neither strips a non-breaking space or \\x1c, so neither reads these
    as the one-vertex graph."""
    for parse in (parse_graph6_oracle, graph.parse_graph6):
        with pytest.raises(ValueError):
            parse(data)


# 62 and 63 straddle the change from a one-byte to a four-byte size header.
# N(N-1)/2 mod 6, the number of bits in the last group, is never 2 or 5; it
# is 1, 3, 0, 4 and 1 at 2-5 and 62, and 3, 0, 4 and 1 at 63-65 and 71, so
# each header is met with every padding
GRAPH6_SIZES = [2, 3, 4, 5, 62, 63, 64, 65, 71]


@pytest.mark.parametrize("num", GRAPH6_SIZES)
def test_graph6_at_header_and_padding_boundaries(num):
    for adj in (np.zeros((num, num), dtype=bool), ~np.eye(num, dtype=bool),
                random_graph(num, seed=num, density=0.5)):
        data = graph.graph6_bytes(adj)
        assert data == graph6_bytes_oracle(adj)
        assert data[0] == (num + 63 if num <= 62 else 126)
        assert np.array_equal(graph.parse_graph6(data), adj)


def test_graph6_boundary_sizes_cover_every_padding_residue():
    residues = {0, 1, 3, 4}
    assert {n * (n - 1) // 2 % 6 for n in range(2, 200)} == residues
    assert {n * (n - 1) // 2 % 6 for n in GRAPH6_SIZES if n <= 62} == residues
    assert {n * (n - 1) // 2 % 6 for n in GRAPH6_SIZES if n > 62} == residues


# -- pair class codes ----------------------------------------------------------------

def distance_matrix_oracle(field, n):
    """One q^n x q^n table gather per coordinate: the sum over j of the
    squares of x_u[j] - x_v[j]."""
    tb = field.tables
    pts = space.point_matrix(field, n)
    acc = None
    for j in range(n):
        col = pts[:, j]
        term = tb.square_of[tb.add[col[:, None], tb.neg[col][None, :]]]
        acc = term if acc is None else tb.add[acc, term]
    return acc


def seeded_field(p, h, seed):
    """GF(p^h) under a monic irreducible modulus drawn from the seed."""
    rng = np.random.default_rng(seed)
    while True:
        modulus = [*rng.integers(0, p, h).tolist(), 1]
        if is_irreducible(modulus, p):
            return Field(p, h, modulus)


@pytest.mark.parametrize("p,h,n", [(3, 1, 1), (5, 1, 3), (7, 1, 3), (3, 1, 6),
                                   (3, 2, 3), (5, 2, 2), (3, 3, 2), (3, 3, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_distance_matrix_matches_oracle(p, h, n, seed):
    """space.class_of_pair is the oracle's squared distance mapped through
    the codes of the nonzero classes, with the origin's code 0 on the
    diagonal."""
    field = seeded_field(p, h, seed)
    codes = [list(SphereClass).index(SphereClass.ISOTROPIC)]
    codes += [list(SphereClass).index(SphereClass.SQUARE if field.is_square(w)
                                      else SphereClass.NONSQUARE)
              for w in range(1, field.q)]
    want = np.asarray(codes)[distance_matrix_oracle(field, n)]
    np.fill_diagonal(want, list(SphereClass).index(SphereClass.ORIGIN))
    got = space.class_of_pair(field, n)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert not got.flags.writeable


# the build holds the result, the norms over all but the top coordinate and
# their intp index copy: 1 + 12 / q^2 bytes a pair, 2.3 at q = 3
@pytest.mark.parametrize("p,n", [(3, 6), (5, 4)])
def test_class_of_pair_peak_memory(p, n):
    field = Field(p)
    field.tables                          # built before tracing starts
    space.class_of_pair.cache_clear()
    tracemalloc.start()
    try:
        codes = space.class_of_pair(field, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * codes.size


# -- point permutations of maps -------------------------------------------------------

def map_permutation_array_oracle(field, n, scale, frob, matrix, shift):
    """One gather per matrix entry and point, coordinate by coordinate; the
    products come from the oracle's own table."""
    tb = field.tables
    mul = mul_table_oracle(field_tables_oracle(field))
    pts = space.point_matrix(field, n)
    X = tb.frob[frob][pts]
    cols = []
    for j in range(n):
        acc = mul[X[:, 0], matrix[0][j]]
        for i in range(1, n):
            acc = tb.add[acc, mul[X[:, i], matrix[i][j]]]
        if scale != 1:
            acc = mul[acc, scale]
        if shift[j] != 0:
            acc = tb.add[acc, shift[j]]
        cols.append(acc)
    return encode_points(field, np.stack(cols, axis=1))


def reflection_matrix(field, v) -> tuple:
    """The hyperplane reflection fixing the orthogonal complement of v.

    tau_v(x) = x - (2 <x,v> / <v,v>) v, defined for <v,v> != 0; it satisfies
    tau tau^T = I and depends on v only up to a scalar.
    """
    w = space.norm(field, v)
    if w == 0:
        raise ValueError("reflection vector must have nonzero norm")
    n = len(v)
    factor = field.mul(field.add(1, 1), field.inv(w))  # 2 / <v,v>
    rows = []
    for i in range(n):
        coef = field.mul(factor, v[i])
        row = []
        for j in range(n):
            val = field.neg(field.mul(coef, v[j]))
            if i == j:
                val = field.add(val, 1)
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def m_generators_oracle(field, n):
    """m_generators as a loop over the points with scalar field arithmetic:
    one reflection_matrix and one oracle call per class."""
    total = space.num_points(field, n)
    rho = field.primitive_element()
    scalar_matrix = tuple(tuple(rho if i == j else 0 for j in range(n))
                          for i in range(n))
    gens = [map_permutation_array_oracle(field, n, 1, 0, scalar_matrix, (0,) * n)]
    seen = set()
    for k in range(1, total):
        v = space.point_of_index(field, n, k)
        if space.classify(field, v) is SphereClass.ISOTROPIC:
            continue
        lead = next(c for c in v if c)
        unit = tuple(field.mul(field.inv(lead), c) for c in v)
        if unit in seen:
            continue
        seen.add(unit)
        tau = reflection_matrix(field, unit)
        gens.append(map_permutation_array_oracle(field, n, 1, 0, tau, (0,) * n))
    return gens


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p,h", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_map_permutation_array_matches_oracle(p, h, n):
    """Random parameters, singular matrices among them, one map at a time,
    as a stack sharing scale, frob and shift, and as a stack with one shift
    per matrix."""
    field = Field(p, h)
    q = field.q
    rng = np.random.default_rng(q * 10 + n)
    for _ in range(2):
        scale = int(rng.integers(1, q))
        frob = int(rng.integers(0, h))
        shift = tuple(rng.integers(0, q, n).tolist())
        stack = rng.integers(0, q, (3, n, n))
        stack[1, :, 0] = 0                         # singular
        stack[2, -1] = stack[2, 0]                 # singular when n > 1
        expected = [map_permutation_array_oracle(field, n, scale, frob, m.tolist(), shift)
                    for m in stack]
        for m, want in zip(stack, expected):
            got = transform.map_permutation_array(field, n, scale, frob,
                                                  tuple(map(tuple, m.tolist())), shift)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        got = transform.map_permutation_array(field, n, scale, frob, stack, shift)
        assert got.shape == (3, q ** n) and np.array_equal(got, np.stack(expected))
        shifts = rng.integers(0, q, (3, n))
        got = transform.map_permutation_array(field, n, scale, frob, stack, shifts)
        assert np.array_equal(got, [map_permutation_array_oracle(
            field, n, scale, frob, m.tolist(), tuple(b)) for m, b in zip(stack, shifts)])


@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 3), (3, 2, 2), (3, 1, 6)])
def test_m_generators_match_oracle(p, h, n):
    field = Field(p, h)
    got = orbits.m_generators(field, n)
    want = m_generators_oracle(field, n)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
