"""Vectorised fast paths against the scalar code they replaced.

Equitable refinement, the orbital-graph breadth-first search and the cone
sets each have a numpy implementation in the library.  The scalar versions
are kept here as oracles, and both must give the same answers: the same
ordered cells, the same connectivity verdicts, the same cone sets, and an
identical `AutGroupResult` when the search runs on the oracle refinement.
"""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import intaut
from intaut import Field, InternalInconsistencyError, graph, orbits, space
from intaut.orbits import OrbitalStatus
from intaut.space import SphereClass
from intaut.transform import _cone_index_sets

# (p, h, n) of the integral graphs the refinement is compared on
GRAPHS = [(3, 1, 3), (5, 1, 2), (3, 2, 2), (7, 1, 3)]
NONZERO = (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE)


def refine_cells_oracle(adj, cells, worklist=None):
    """Equitable refinement trying every splitter on every cell in Python.

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


def orbital_connected_oracle(field, n, sphere_class):
    """Breadth-first search with one scalar vector addition per step."""
    total = space.num_points(field, n)
    classes = space.class_of_point(field, n, total)
    steps = [space.point_of_index(field, n, k)
             for k in range(total) if classes[k] is sphere_class]
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

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p,h,n", GRAPHS)
def test_refinement_matches_oracle_on_integral_graphs(p, h, n, seed):
    adj = relabeled(p, h, n, seed)
    cols = graph._columns(adj)
    unit = [list(range(adj.shape[0]))]
    root = graph._refine_cells(cols, unit)
    assert root == refine_cells_oracle(adj, unit)
    target = root[graph._first_target_cell(root)]
    for v in target:
        split, frags = graph._individualize(root, v)
        assert (graph._refine_cells(cols, split, worklist=frags)
                == refine_cells_oracle(adj, split, worklist=frags))


@st.composite
def partitioned_graphs(draw, directed=False):
    """A 0-40 vertex graph, an ordered partition (empty cells allowed) and a
    worklist: None, or a list of arbitrary vertex lists.  The graph is
    undirected, or with `directed` an arbitrary loopless digraph."""
    m = draw(st.integers(0, 40))
    bits = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    adj = np.array(bits, dtype=bool).reshape(m, m)
    np.fill_diagonal(adj, False)
    if not directed:
        adj = np.triu(adj, 1)
        adj |= adj.T
    vertices = draw(st.permutations(range(m)))
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=6)))
    bounds = [0, *cuts, m]
    cells = [list(vertices[a:b]) for a, b in zip(bounds, bounds[1:])]
    worklist = draw(st.none() | st.lists(
        st.lists(st.integers(0, max(m - 1, 0)), max_size=m, unique=True),
        max_size=6))
    return adj, cells, worklist


@settings(max_examples=300, deadline=None)
@given(partitioned_graphs())
def test_refinement_matches_oracle_on_random_partitions(case):
    adj, cells, worklist = case
    assert (graph._refine_cells(graph._columns(adj), cells, worklist)
            == refine_cells_oracle(adj, cells, worklist))


@settings(max_examples=300, deadline=None)
@given(partitioned_graphs(directed=True))
def test_refinement_counts_arcs_into_the_splitter_on_digraphs(case):
    """A refinement that read rows of the adjacency instead of columns
    agrees with the oracle on every symmetric input, but not here."""
    adj, cells, worklist = case
    assert (graph._refine_cells(graph._columns(adj), cells, worklist)
            == refine_cells_oracle(adj, cells, worklist))


@pytest.mark.parametrize("p,h,n", GRAPHS)
def test_search_on_oracle_refinement_is_identical(p, h, n, monkeypatch):
    adj = relabeled(p, h, n, seed=7)
    fast = graph.automorphism_group(adj)
    monkeypatch.setattr(graph, "_refine_cells",
                        lambda c, cells, worklist=None:
                        refine_cells_oracle(c.T, cells, worklist))
    assert graph.automorphism_group(adj) == fast


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
    """Make SQUARE the class of exactly the given point indices."""
    def class_of_point(field, n, max_points=space.DEFAULT_MAX_POINTS):
        total = space.check_size(field, n, max_points)
        return tuple(SphereClass.SQUARE if k in members else SphereClass.NONSQUARE
                     for k in range(total))
    monkeypatch.setattr(space, "class_of_point", class_of_point)


def test_orbital_disconnected_when_steps_lie_on_one_axis(monkeypatch):
    field = Field(3)
    fake_classes(monkeypatch, {1, 2})          # (1, 0) and (2, 0)
    assert orbits.orbital_connected(field, 2, SphereClass.SQUARE) \
        is OrbitalStatus.DISCONNECTED
    assert orbital_connected_oracle(field, 2, SphereClass.SQUARE) \
        is OrbitalStatus.DISCONNECTED


def test_orbital_rejects_asymmetric_step_class(monkeypatch):
    field = Field(3)
    fake_classes(monkeypatch, {1, 3})          # (1, 0) and (0, 1), no negatives
    with pytest.raises(InternalInconsistencyError):
        orbits.orbital_connected(field, 2, SphereClass.SQUARE)
    with pytest.raises(InternalInconsistencyError):
        orbital_connected_oracle(field, 2, SphereClass.SQUARE)


# -- cones ------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (7, 3)])
def test_cone_sets_match_scalar_cones(p, n):
    field = Field(p)
    cones = _cone_index_sets(field, n)
    points = space.enumerate_points(field, n)
    assert len(cones) == len(points)
    for vertex, cone in zip(points, cones):
        assert cone == {space.canonical_index(field, x)
                        for x in space.cone(field, n, vertex)}


# -- cold start -------------------------------------------------------------------

COLD_START = """
import contextlib, io, sys
from intaut import Field, cli, graph, orbits
from intaut.space import SphereClass
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--p", "3", "--n", "3"]) == 0
    assert cli.main(["verify", "--p", "5", "--n", "2"]) == 0
f7 = Field(7)
for cls in (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE):
    orbits.orbital_connected(f7, 3, cls)
graph.automorphism_group(graph.build_integral_graph(f7, 3))
print("numpy.ma" in sys.modules)
"""


def test_hot_paths_do_not_import_numpy_ma():
    """numpy.ma costs about 15 ms on first import, which np.unique triggers;
    the verify and ladder paths must not pull it into a cold process."""
    src = str(Path(intaut.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
