"""The integral-distance graph and an independent automorphism-group engine.

The engine knows nothing about fields or the map family: it computes the
automorphism group of an arbitrary undirected graph by equitable-coloring
refinement and individualization backtracking, so it serves as an unbiased
cross-check for the group assembled from map parameters.

Colorings are ordered partitions (lists of vertex lists).  Refinement splits
cells by neighbor counts into a splitter cell and orders the fragments by
count value.  Both choices are label-invariant: an automorphism carrying one
individualization sequence to another carries the refined partitions onto
each other cell by cell, which is what makes cross-branch comparison by cell
positions sound.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, TooLargeError
from .field import Field
from . import orbits, space, transform
from .space import DEFAULT_MAX_POINTS

MAX_AUT_VERTICES = 750


@dataclass(frozen=True)
class IntegralGraph:
    """Vertices are canonical point indices; edge u~v iff the squared
    distance between the points is a square (u != v)."""

    adjacency: np.ndarray
    field: Field
    n: int

    @property
    def num_vertices(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2


def build_integral_graph(field: Field, n: int,
                         max_points: int = DEFAULT_MAX_POINTS) -> IntegralGraph:
    total = space.check_size(field, n, max_points)
    adj = space.integral_matrix(field, n, max_points).copy()
    np.fill_diagonal(adj, False)
    adj.setflags(write=False)
    return IntegralGraph(adj, field, n)


def complement_graph(graph: IntegralGraph) -> IntegralGraph:
    adj = ~graph.adjacency
    np.fill_diagonal(adj, False)
    adj.setflags(write=False)
    return IntegralGraph(adj, graph.field, graph.n)


def flip_edge(graph: IntegralGraph, u: int, v: int) -> IntegralGraph:
    """Copy of the graph with one adjacency bit toggled (a test hook)."""
    if u == v:
        raise ValueError("cannot toggle a loop")
    adj = graph.adjacency.copy()
    adj[u, v] = not adj[u, v]
    adj[v, u] = adj[u, v]
    adj.setflags(write=False)
    return IntegralGraph(adj, graph.field, graph.n)


def _as_matrix(graph) -> np.ndarray:
    if isinstance(graph, IntegralGraph):
        return graph.adjacency
    adj = np.asarray(graph, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    return adj


# ---------------------------------------------------------------------------
# equitable refinement on ordered partitions
# ---------------------------------------------------------------------------

def _columns(adj: np.ndarray) -> np.ndarray:
    """The adjacency columns as contiguous uint8 rows: row v is adj[:, v]."""
    return np.ascontiguousarray(adj.T).view(np.uint8)


def _refine_cells(cols: np.ndarray, cells, worklist=None):
    """Coarsest equitable refinement of an ordered partition.

    `cols` is `_columns(adj)`.  The neighbor counts into a splitter S are
    adj[:, S].sum(axis=1): the row cols[v] when S = [v], a sum of rows of
    cols otherwise.

    Every splitter snapshot is a former cell, hence a union of current
    cells, so splitting by it is sound; new fragments are enqueued, which
    guarantees every surviving cell was used as a splitter after its
    creation.  Fragment order inside a split is by neighbor count.

    The vertices of the cells with more than one vertex are held in one
    cell-ordered array, rebuilt only after a real split, next to a mask of
    the positions whose successor lies in the same cell.  A splitter splits
    exactly the cells in which two such neighbors get different counts, so
    one comparison over that array finds them, and only those are grouped
    vertex by vertex.  Once every cell is a singleton the remaining
    splitters are dropped.
    """
    cells = [list(c) for c in cells]
    queue = deque([list(c) for c in (worklist if worklist is not None else cells)])
    if queue:
        cells = [c for c in cells if c]   # any splitter drops empty cells
    order = None
    while queue and cells:
        splitter = queue.popleft()
        if order is None:
            big = [k for k, c in enumerate(cells) if len(c) > 1]
            if not big:
                break
            order = np.fromiter((v for k in big for v in cells[k]), np.intp)
            cell_of = np.repeat(big, [len(cells[k]) for k in big])
            inner = cell_of[1:] == cell_of[:-1]
        if len(splitter) == 1:
            counts = cols[splitter[0]]
        else:
            counts = cols[splitter].sum(axis=0)
        ordered = counts[order]
        moved = (ordered[1:] != ordered[:-1]) & inner
        if not moved.any():
            continue
        new_cells = []
        done = 0
        for pos in sorted(set(cell_of[1:][moved].tolist())):
            new_cells.extend(cells[done:pos])
            done = pos + 1
            groups = {}
            for v in cells[pos]:
                groups.setdefault(int(counts[v]), []).append(v)
            for key in sorted(groups):
                new_cells.append(groups[key])
                queue.append(groups[key])
        new_cells.extend(cells[done:])
        cells = new_cells
        order = None
    return cells


def _individualize(cells, v):
    out = []
    fragments = None
    for cell in cells:
        if v in cell:
            rest = [w for w in cell if w != v]
            out.append([v])
            fragments = [[v]]
            if rest:
                out.append(rest)
                fragments.append(rest)
        else:
            out.append(cell)
    if fragments is None:
        raise ValueError(f"vertex {v} not present in the coloring")
    return out, fragments


def refine_coloring(graph, initial=None):
    """Public equitable refinement; cells are returned ordered by their
    least vertex so the color numbering follows first-seen vertex index."""
    adj = _as_matrix(graph)
    if initial is None:
        initial = [list(range(adj.shape[0]))]
    covered = sorted(v for cell in initial for v in cell)
    if covered != list(range(adj.shape[0])):
        raise ValueError("initial coloring must partition the vertex set")
    cells = _refine_cells(_columns(adj), initial)
    cells.sort(key=lambda c: min(c))
    return [tuple(sorted(c)) for c in cells]


# ---------------------------------------------------------------------------
# automorphism group search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutGroupResult:
    order: int
    generators: tuple
    node_count: int


def _first_target_cell(cells):
    best_pos, best_len = -1, None
    for pos, cell in enumerate(cells):
        m = len(cell)
        if m > 1 and (best_len is None or m < best_len):
            best_pos, best_len = pos, m
    return best_pos


def _cell_sizes(cells):
    return tuple(len(c) for c in cells)


def automorphism_group(graph, *, max_vertices: int = MAX_AUT_VERTICES) -> AutGroupResult:
    """Exact automorphism group order and verified generators.

    A base of vertices is fixed along the leftmost individualization path
    until the refinement is discrete.  Levels are processed deepest first:
    at level i the orbit of base[i] under the stabilizer of base[:i] is
    grown by exhaustive search for one automorphism per orbit candidate,
    every found generator being checked edge by edge before use.  The group
    order is the product of the orbit lengths, and any automorphism fixing
    the whole base is the identity because the final coloring is discrete.
    """
    adj = _as_matrix(graph)
    num = adj.shape[0]
    if num > max_vertices:
        raise TooLargeError(f"{num} vertices exceed the search bound {max_vertices}")
    if num == 0:
        return AutGroupResult(1, (), 0)

    node_count = 0
    cols = _columns(adj)

    root = _refine_cells(cols, [list(range(num))])
    path = [root]
    base = []
    target_pos = []
    cur = root
    while True:
        pos = _first_target_cell(cur)
        if pos < 0:
            break
        v = min(cur[pos])
        base.append(v)
        target_pos.append(pos)
        split, frags = _individualize(cur, v)
        cur = _refine_cells(cols, split, worklist=frags)
        path.append(cur)
    path_sizes = [_cell_sizes(c) for c in path]
    leaf_base = [c[0] for c in path[-1]]

    def verify(perm: np.ndarray) -> bool:
        return bool(np.array_equal(adj[perm][:, perm], adj))

    def extend(depth, cells):
        """Search for one automorphism extending the current branch."""
        nonlocal node_count
        node_count += 1
        if _cell_sizes(cells) != path_sizes[depth]:
            return None
        if depth == len(base):
            perm = np.empty(num, dtype=np.int64)
            for k, cell in enumerate(cells):
                perm[leaf_base[k]] = cell[0]
            return perm if verify(perm) else None
        pos = target_pos[depth]
        for v in sorted(cells[pos]):
            split, frags = _individualize(cells, v)
            result = extend(depth + 1, _refine_cells(cols, split, worklist=frags))
            if result is not None:
                return result
        return None

    generators = []

    def orbit_of(start, level):
        """Orbit of `start` under the found generators; every generator in
        hand fixes base[:level] pointwise, so this closure stays inside the
        stabilizer of the level prefix."""
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for g in generators:
                y = int(g[x])
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    order = 1
    for level in range(len(base) - 1, -1, -1):
        cell = path[level][target_pos[level]]
        b = base[level]
        orbit = orbit_of(b, level)
        for c in sorted(cell):
            if c in orbit:
                continue
            split, frags = _individualize(path[level], c)
            found = extend(level + 1, _refine_cells(cols, split, worklist=frags))
            if found is not None:
                generators.append(found)
                orbit = orbit_of(b, level)
        order *= len(orbit)

    for g in generators:
        if not verify(g):
            raise InternalInconsistencyError(
                "search produced a non-automorphism generator")
    gens = tuple(tuple(g.tolist()) for g in generators)
    return AutGroupResult(order, gens, node_count)


# ---------------------------------------------------------------------------
# classification verdict
# ---------------------------------------------------------------------------

class Verdict(enum.Enum):
    EQUAL = "equal"
    STRICTLY_LARGER = "strictly-larger"
    VIOLATION = "violation"


@dataclass(frozen=True)
class ClassificationReport:
    verdict: Verdict
    aut_order: int
    semiaffine_order: int
    containment_ok: bool
    extra_example: tuple | None
    node_count: int
    aut_generators: tuple


def expected_verdict(field: Field, n: int) -> Verdict:
    """Equal for n >= 3 and for planes over q = 3 mod 4, strictly larger
    for planes over q = 1 mod 4."""
    if n >= 3 or field.q % 4 == 3:
        return Verdict.EQUAL
    return Verdict.STRICTLY_LARGER


def verify_classification(field: Field, n: int, *,
                          graph: IntegralGraph | None = None,
                          max_points: int = DEFAULT_MAX_POINTS) -> ClassificationReport:
    """Compare the graph automorphism group with the map-family group.

    Every family generator must preserve adjacency and every engine generator
    must be recognized as a family map; orders come from the engine and the
    closed form.  Equal and StrictlyLarger are the two legitimate outcomes;
    anything else (containment failure, or a smaller graph group) is a
    Violation.
    """
    if graph is None:
        graph = build_integral_graph(field, n, max_points)
    aut = automorphism_group(graph)
    gens = orbits.semiaffine_generators(field, n, max_points)
    ok = bool(transform.batch_preserves(np.stack(gens), graph.adjacency).all())
    sa_order = transform.semiaffine_order(field, n)
    extra = next((g for g in aut.generators
                  if transform.recognize_semiaffine(field, n, g, max_points) is None),
                 None)
    if ok and aut.order > sa_order:
        verdict = Verdict.STRICTLY_LARGER
    elif ok and aut.order == sa_order and extra is None:
        verdict = Verdict.EQUAL
    else:
        verdict, extra = Verdict.VIOLATION, None
    return ClassificationReport(verdict, aut.order, sa_order, ok, extra,
                                aut.node_count, aut.generators)


# ---------------------------------------------------------------------------
# interchange formats
# ---------------------------------------------------------------------------

GRAPH6_MAX = 68719476735
GRAPH6_SHIFTS = np.arange(5, -1, -1, dtype=np.uint8)
GRAPH6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1])


def graph6_bytes(graph) -> bytes:
    """Standard 6-bit upper-triangle encoding with size header."""
    adj = _as_matrix(graph)
    num = adj.shape[0]
    if num > GRAPH6_MAX:
        raise ValueError(f"graph6 supports at most {GRAPH6_MAX} vertices")
    if num <= 62:
        header = bytes([num + 63])
    elif num <= 258047:
        header = bytes([126]) + _graph6_chunks(num, 3)
    else:
        header = bytes([126, 126]) + _graph6_chunks(num, 6)
    bits = adj.T[np.tril_indices(num, -1)]       # adj[i, j] for i < j, by j
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bool)])
    body = bits.reshape(-1, 6) @ GRAPH6_WEIGHTS + 63
    return header + body.astype(np.uint8).tobytes() + b"\n"


def _graph6_chunks(value: int, count: int) -> bytes:
    out = bytearray()
    for shift in range((count - 1) * 6, -1, -6):
        out.append(((value >> shift) & 63) + 63)
    return bytes(out)


def parse_graph6(data) -> np.ndarray:
    if isinstance(data, bytes):
        data = data.decode("ascii")
    line = data.strip()
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


def dimacs_text(graph) -> str:
    """DIMACS edge format: p-line then one 1-indexed e-line per edge, u < v."""
    adj = _as_matrix(graph)
    num = adj.shape[0]
    rows, cols = np.nonzero(np.triu(adj, 1))
    lines = [f"p edge {num} {rows.size}"]
    lines.extend(f"e {i} {j}" for i, j in zip((rows + 1).tolist(), (cols + 1).tolist()))
    return "\n".join(lines) + "\n"


def parse_dimacs(text) -> np.ndarray:
    if isinstance(text, bytes):
        text = text.decode("ascii")
    num = None
    adj = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
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
