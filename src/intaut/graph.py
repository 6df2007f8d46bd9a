"""The integral-distance graph and an independent automorphism-group engine.

The engine knows nothing about fields or the map family: it computes the
automorphism group of an arbitrary simple graph by equitable-coloring
refinement and individualization backtracking, so it serves as an unbiased
cross-check for the group assembled from map parameters.  An asymmetric or
looped adjacency matrix raises ValueError.

Colorings are ordered partitions, held as two arrays: the vertices in cell
order, and a boolean mask marking where each cell starts.  Refinement splits
cells by neighbor counts into a splitter cell, orders the fragments by count
value and enqueues every fragment but the first largest one as a new
splitter.  These choices are label-invariant: an automorphism carrying one
individualization sequence to another carries the refined partitions onto
each other cell by cell, which is what makes cross-branch comparison by cell
positions sound.

Label invariance also makes the base path's refinement a script for its
automorphic images.  While the search builds the path it records a trace
per individualization: the position of every splitter that split, as a
version of the vertex order (the individualized vertex, or the order after
an earlier split) and a range of positions in it.  In a branch that is an
image of the path under an automorphism the same positions hold the images
of the same cells, so the branch can be refined by replaying the trace: no
queue, and no splitter checked.  For each orbit candidate the search first
chases the one branch the exhaustive search would descend first and
replays the traces along it; if the leaf verifies, that branch was an image
of the path, the replay was exact and the exhaustive search would have
returned the same automorphism after the same nodes.  Otherwise the
exhaustive search runs as before, so the result never depends on the
replay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .field import Field
from . import orbits, space, transform


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


def build_integral_graph(field: Field, n: int) -> IntegralGraph:
    adj = space.integral_matrix(field, n)
    np.fill_diagonal(adj, False)
    adj.setflags(write=False)
    return IntegralGraph(adj, field, n)


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
    """The adjacency matrix of a simple graph, which the engine and the
    interchange writers take: square and symmetric with an empty diagonal.
    `graph` is such a matrix, or any object whose `adjacency` is one; a
    nonzero entry is an edge."""
    adj = np.asarray(getattr(graph, "adjacency", graph), dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if (adj != adj.T).any() or adj.diagonal().any():
        raise ValueError("adjacency must be symmetric with an empty diagonal")
    # the search gathers rows: a column-major matrix, which adj[p][:, p]
    # returns, is read through its transpose, a row-major view of the same
    # values since adj is symmetric
    if adj.flags.f_contiguous:
        return adj.T
    return np.ascontiguousarray(adj)


# ---------------------------------------------------------------------------
# equitable refinement on ordered partitions
# ---------------------------------------------------------------------------

def _columns(adj: np.ndarray) -> np.ndarray:
    """The adjacency columns as uint8 rows: row v is adj[:, v], which is
    adj[v] since adj is symmetric, so this is a view, not a copy."""
    return adj.view(np.uint8)


def _refine(cols: np.ndarray, order: np.ndarray, bnd: np.ndarray, splitters,
            record=None, replay=None):
    """Coarsest equitable refinement of the ordered partition (order, bnd).

    `order` holds the vertices cell by cell and bnd[i] marks that a cell
    starts at position i.  `cols` is `_columns(adj)`: the counts of arcs from
    every vertex into a splitter S are the row cols[v] when S = [v], a sum of
    rows of cols otherwise.  `splitters` are vertex sequences, each a union
    of cells, processed first in, first out.

    A splitter splits exactly the cells in which two vertices adjacent in
    `order` get different counts, so one comparison over those vertex pairs
    tells whether it splits anything; if it does, one stable argsort on
    (cell, count) splits every such cell, fragments ordered by count.
    Every fragment except the first largest of its cell is enqueued
    (Hopcroft's rule): the counts into that one are the counts into the
    former cell minus those into the other fragments, and the partition ends
    equitable with respect to the former cell, which was a splitter before
    or is still queued.  So the starting partition must already be equitable
    with respect to every cell not in `splitters`.  Once every cell is a
    singleton the remaining splitters are dropped.

    Splitters are named by position.  Versions 0..k-1 are the k given
    splitters and version k + i is `order` after the i-th split; a queued
    splitter is a triple (version, start, end), the vertices
    versions[version][start:end], so every queued one is a cell of the
    partition it was cut from.  The trace of a refinement lists the triple
    of every splitter that splits.  With `record`, a list, the trace is
    appended to it.  With `replay`, a trace recorded on another partition,
    there is no queue and no splitter is checked: each entry reads its
    splitter from this refinement's own versions at the recorded positions
    and splits with it.  On the image of the recorded partition and
    splitters under an automorphism, the same positions hold the images of
    the same cells, so each splitter is the image of the recorded one, it
    splits the image partition exactly where the recorded one split, and
    the replay equals the refinement; elsewhere it is a cheap guess that
    the caller must check.

    The arguments are never written to: a split makes new arrays.
    """
    versions = list(splitters)
    if replay is not None:
        for version, a, b in replay:
            order, bnd = _split(order, bnd, _counts(cols, versions[version], a, b))
            versions.append(order)
        return order, bnd
    queue = [(k, 0, len(s)) for k, s in enumerate(versions)]
    head = 0
    pairs = np.flatnonzero(~bnd[1:])    # positions p and p + 1 share a cell
    left, right = order[pairs], order[pairs + 1]
    while head < len(queue) and pairs.size:
        version, a, b = entry = queue[head]
        head += 1
        counts = _counts(cols, versions[version], a, b)
        # equal bytes, equal counts: far cheaper than np.array_equal here
        if counts[left].tobytes() == counts[right].tobytes():
            continue
        if record is not None:
            record.append(entry)
        order, bnd = _split(order, bnd, counts, queue, len(versions))
        versions.append(order)
        pairs = np.flatnonzero(~bnd[1:])
        left, right = order[pairs], order[pairs + 1]
    return order, bnd


def _counts(cols: np.ndarray, vertices, a: int, b: int) -> np.ndarray:
    """Arcs from every vertex into the splitter vertices[a:b]: one row of
    `cols` for a single vertex, a sum of rows otherwise, accumulated in
    uint16 when no count can reach 2^16 (about three times faster than the
    default uint64)."""
    if b - a == 1:
        return cols[vertices[a]]
    dtype = np.uint16 if b - a < 1 << 16 else np.intp
    return cols[vertices[a:b]].sum(axis=0, dtype=dtype)


def _split(order, bnd, counts, queue=None, version=None):
    """Split every cell of (order, bnd) by `counts`, fragments in the order
    of their counts, with one stable argsort on (cell, count).  With
    `queue`, append to it the triple (version, start, end) of every
    fragment of a split cell but the first largest one, in position order;
    `version` names the returned order."""
    num = order.size
    cell = np.cumsum(bnd)               # the cell at every position, from 1
    key = cell * (num + 1) + counts[order]     # no count exceeds num
    sort = key.argsort(kind="stable")
    order, key = order[sort], key[sort]
    split = np.empty(num, dtype=bool)
    split[:1] = True
    np.not_equal(key[1:], key[:-1], out=split[1:])
    if queue is not None:
        cuts = np.flatnonzero(split)
        ends = np.append(cuts[1:], num)
        owner = cell[cuts]
        twin = owner[1:] == owner[:-1]          # two fragments of one cell
        moved = np.zeros(cuts.size, dtype=bool)
        moved[1:] = twin
        moved[:-1] |= twin
        cuts, ends, owner = cuts[moved], ends[moved], owner[moved]
        # by cell, then largest first, then leftmost first
        rank = np.lexsort((cuts, cuts - ends, owner))
        lead = np.ones(rank.size, dtype=bool)
        lead[1:] = owner[rank[1:]] != owner[rank[:-1]]
        rest = np.ones(cuts.size, dtype=bool)
        rest[rank[lead]] = False
        queue.extend(zip(repeat(version), cuts[rest].tolist(), ends[rest].tolist()))
    return order, split


def _individualize(cols, order, bnd, a, b, v, record=None, replay=None):
    """Refinement after v, a vertex of the cell order[a:b], is split off in
    front of the rest of that cell; `record` and `replay` are passed to
    `_refine`.

    The partition is equitable, hence equitable with respect to the cell, so
    [v] is the only splitter needed.
    """
    cell = order[a:b]
    order = np.concatenate((order[:a], [v], cell[cell != v], order[b:]))
    bnd = bnd.copy()
    bnd[a + 1] = True
    return _refine(cols, order, bnd, [order[a:a + 1]], record, replay)


def refine_coloring(graph, initial=None):
    """Public equitable refinement; cells are returned ordered by their
    least vertex so the color numbering follows first-seen vertex index."""
    adj = _as_matrix(graph)
    num = adj.shape[0]
    if initial is None:
        initial = [list(range(num))]
    covered = sorted(v for cell in initial for v in cell)
    if covered != list(range(num)):
        raise ValueError("initial coloring must partition the vertex set")
    if num == 0:
        return []
    cells = [np.asarray(c, dtype=np.intp) for c in initial if len(c)]
    bnd = np.zeros(num, dtype=bool)
    bnd[np.cumsum([0] + [c.size for c in cells[:-1]])] = True
    order, bnd = _refine(_columns(adj), np.concatenate(cells), bnd, cells)
    return sorted(tuple(sorted(c.tolist()))
                  for c in np.split(order, np.flatnonzero(bnd)[1:]))


# ---------------------------------------------------------------------------
# automorphism group search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutGroupResult:
    order: int
    generators: tuple
    node_count: int


def _target_cell(bnd):
    """(start, end) of the first smallest cell of more than one vertex, or
    None when every cell is a singleton."""
    starts = np.flatnonzero(bnd)
    sizes = np.diff(starts, append=bnd.size)
    k = int(np.where(sizes > 1, sizes, bnd.size + 1).argmin())
    if sizes[k] == 1:
        return None
    return int(starts[k]), int(starts[k] + sizes[k])


def automorphism_group(graph) -> AutGroupResult:
    """Exact automorphism group order and verified generators.

    A base of vertices is fixed along the leftmost individualization path
    until the refinement is discrete.  Levels are processed deepest first:
    at level i the orbit of base[i] under the stabilizer of base[:i] is
    grown by exhaustive search for one automorphism per orbit candidate,
    every found generator being checked edge by edge before use.  The group
    order is the product of the orbit lengths, and any automorphism fixing
    the whole base is the identity because the final coloring is discrete.

    A branch whose cell sizes differ from the path's at the same depth is
    rejected by comparing cell-start masks; at a leaf the candidate maps
    the path's leaf order onto the branch's, position by position.

    Building the path records each refinement's trace (see `_refine`).
    Each candidate c is first chased: c, then the least vertex of each
    later target cell, each refined by replaying the path's trace at that
    depth, every mask compared with the path's.  If the leaf's candidate
    verifies, it is an automorphism g fixing base[:level] that maps the
    path onto the chased branch.  Then every node of the branch is the
    image under g of the path's node at its depth, the replay there equals
    the refinement, and the exhaustive search from c descends exactly this
    branch and returns g at its first leaf.  So the chase returns g and
    counts the len(base) - level nodes that search would visit; on any
    other outcome the exhaustive search runs from c.  The order, the
    generators and the node count are those of the exhaustive search on
    every graph.

    Its memory is a fixed multiple of the N x N adjacency, which the caller
    already holds, so a bound on the adjacency bounds the search too.
    """
    adj = _as_matrix(graph)
    num = adj.shape[0]
    if num == 0:
        return AutGroupResult(1, (), 0)

    node_count = 0
    cols = _columns(adj)

    whole = np.arange(num)
    order, bnd = _refine(cols, whole, whole == 0, [whole])    # from one cell
    path = [(order, bnd)]
    base = []
    targets = []
    traces = []
    while (cell := _target_cell(bnd)) is not None:
        a, b = cell
        v = int(order[a:b].min())
        base.append(v)
        targets.append(cell)
        traces.append([])
        order, bnd = _individualize(cols, order, bnd, a, b, v, record=traces[-1])
        path.append((order, bnd))
    leaf_order = order
    mapped = np.empty((num, num), dtype=bool)
    back = np.empty((num, num), dtype=bool)
    same = np.empty((num, num), dtype=bool)

    def leaf(order):
        """The permutation mapping the path's leaf onto a discrete `order`
        position by position, if it is an automorphism.

        With inv its inverse, adj[perm][:, perm] == adj iff adj[perm] ==
        adj[inv]^T, adj being symmetric: two row gathers and a transposed
        compare into buffers shared by all leaves, no column gather."""
        perm = np.empty(num, dtype=np.int64)
        perm[leaf_order] = order
        inv = np.empty(num, dtype=np.int64)
        inv[order] = leaf_order
        np.take(adj, perm, axis=0, out=mapped, mode="clip")
        np.take(adj, inv, axis=0, out=back, mode="clip")
        np.equal(mapped, back.T, out=same)
        return perm if same.all() else None

    def extend(depth, order, bnd):
        """Search for one automorphism extending the current branch."""
        nonlocal node_count
        node_count += 1
        if not np.array_equal(bnd, path[depth][1]):
            return None
        if depth == len(base):
            return leaf(order)
        a, b = targets[depth]
        for v in np.sort(order[a:b]).tolist():
            result = extend(depth + 1, *_individualize(cols, order, bnd, a, b, v))
            if result is not None:
                return result
        return None

    def chase(level, c):
        """The first branch that extend(level + 1, ...) from c descends:
        c, then the least vertex of each target cell, refined by replaying
        the path's traces.  Its automorphism if every cell-start mask
        matches the path's and the leaf verifies, else None."""
        order, bnd = path[level]
        for depth in range(level, len(base)):
            a, b = targets[depth]
            v = c if depth == level else int(order[a:b].min())
            order, bnd = _individualize(cols, order, bnd, a, b, v,
                                        replay=traces[depth])
            if not np.array_equal(bnd, path[depth + 1][1]):
                return None
        return leaf(order)

    generators = []

    def orbit_of(start):
        """Orbit of `start` under the found generators, as a vertex mask
        grown one frontier at a time.  At level i every generator in hand
        fixes base[:i] pointwise, so this closure stays inside the
        stabilizer of that prefix."""
        images = np.array(generators, dtype=np.intp).reshape(-1, num)
        seen = np.zeros(num, dtype=bool)
        seen[start] = True
        frontier = [start]
        while len(frontier):
            reached = np.zeros(num, dtype=bool)
            reached[images[:, frontier]] = True
            reached &= ~seen
            seen |= reached
            frontier = np.flatnonzero(reached)
        return seen

    group_order = 1
    for level in range(len(base) - 1, -1, -1):
        b = base[level]
        orbit = orbit_of(b)
        start, end = targets[level]
        for c in np.sort(path[level][0][start:end]).tolist():
            if orbit[c]:
                continue
            found = chase(level, c)
            if found is not None:
                node_count += len(base) - level     # the nodes extend would visit
            else:
                found = extend(level + 1, *_individualize(cols, *path[level],
                                                          start, end, c))
            if found is not None:
                generators.append(found)
                orbit = orbit_of(b)
        group_order *= int(np.count_nonzero(orbit))

    # extend reaches itself through its closure; break that cycle so the
    # leaf buffers and cols are freed on return, not at a later collection
    extend = None
    gens = tuple(tuple(g.tolist()) for g in generators)
    return AutGroupResult(group_order, gens, node_count)


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
    """The verdict verify expects for n >= 2: strictly larger for planes
    over q = 1 mod 4 with h > 1 or q = 5, equal otherwise."""
    if n == 2 and field.q % 4 == 1 and (field.h > 1 or field.q == 5):
        return Verdict.STRICTLY_LARGER
    return Verdict.EQUAL


def verify_classification(field: Field, n: int, *,
                          graph: IntegralGraph | None = None) -> ClassificationReport:
    """Compare the graph automorphism group with the map-family group.

    Every family generator must preserve adjacency and every engine generator
    must be recognized as a family map; orders come from the engine and the
    closed form.  Equal and StrictlyLarger are the two legitimate outcomes;
    anything else (containment failure, or a smaller graph group) is a
    Violation.
    """
    if graph is None:
        graph = build_integral_graph(field, n)
    aut = automorphism_group(graph)
    gens = orbits.semiaffine_generators(field, n)
    ok = transform.cayley_preserves(field, n, gens, graph.adjacency)
    sa_order = transform.semiaffine_order(field, n)
    maps = transform.recognize_semiaffine_batch(
        field, n, np.asarray(aut.generators, dtype=np.intp).reshape(
            len(aut.generators), graph.num_vertices))
    extra = next((g for g, m in zip(aut.generators, maps) if m is None), None)
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
    bits = adj.T[np.tri(num, num, -1, dtype=bool)]   # adj[i, j] for i < j, by j
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bool)])
    body = bits.view(np.uint8).reshape(-1, 6) @ _GRAPH6_WEIGHTS
    body += np.uint8(63)
    return header + body.tobytes() + b"\n"


_GRAPH6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def _graph6_chunks(value: int, count: int) -> bytes:
    out = bytearray()
    for shift in range((count - 1) * 6, -1, -6):
        out.append(((value >> shift) & 63) + 63)
    return bytes(out)


def parse_graph6(data) -> np.ndarray:
    """Adjacency matrix of a graph6 line (str or bytes).

    ASCII whitespace (space, \\t, \\n, \\r, \\v, \\f) around the line and a
    leading >>graph6<< are dropped; every other character must lie in
    63..126, so any non-ASCII one is an invalid graph6 character in either
    form."""
    if isinstance(data, str):
        if not data.isascii():
            raise ValueError("invalid graph6 character")
        data = data.encode("ascii")
    line = bytes(data).strip()                      # ASCII whitespace only
    if line.startswith(b">>graph6<<"):
        line = line[len(b">>graph6<<"):]
    if not line:
        raise ValueError("empty graph6 input")
    codes = np.frombuffer(line, dtype=np.uint8)
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
    bits = np.unpackbits(codes[pos:]).reshape(-1, 8)[:, 2:].ravel()
    if bits[needed:].any():
        raise ValueError("graph6 padding bits must be zero")
    adj = np.zeros((num, num), dtype=bool)
    adj.T[np.tri(num, num, -1, dtype=bool)] = bits[:needed]
    adj |= adj.T
    return adj


def dimacs_text(graph) -> str:
    """DIMACS edge format: p-line then one 1-indexed e-line per edge, u < v,
    in row-major order.

    Every e-line is laid out at one fixed width, in two parts: the head
    'e', a space, U and a space, and the tail V and a newline, each label
    right-aligned in as many bytes as N has digits and padded with zero
    bytes.  The lines are laid out in blocks of whole rows, about
    DIMACS_CHUNK bytes each, so every temporary stays small: a block
    repeats each row's head by the row's number of edges and gathers one
    tail per edge by V, drops the zero bytes and decodes what is left.  The
    text is the p-line and the blocks, joined.
    """
    adj = _as_matrix(graph)
    num = adj.shape[0]
    upper = np.greater(adj, np.tri(num, num, dtype=bool))    # the edges u < v
    degrees = np.count_nonzero(upper, axis=1)
    width = len(str(num))
    labels = np.arange(1, num + 1)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1)
    digits = np.where(labels >= powers, labels // powers % 10 + ord("0"), 0)
    heads = np.empty((num, width + 3), dtype=np.uint8)
    heads[:, 0], heads[:, 1], heads[:, -1] = ord("e"), ord(" "), ord(" ")
    heads[:, 2:-1] = digits
    tails = np.empty((num, width + 1), dtype=np.uint8)
    tails[:, :-1] = digits
    tails[:, -1] = ord("\n")
    heads = heads.view(f"V{width + 3}").ravel()
    tails = tails.view(f"V{width + 1}").ravel()
    line = np.dtype([("u", heads.dtype), ("v", tails.dtype)])
    # a block ends after the row in which its edge count reaches the block size
    ends = np.cumsum(degrees)
    count = int(ends[-1]) if num else 0
    size = max(DIMACS_CHUNK // line.itemsize, 1)
    cuts = np.searchsorted(ends, np.arange(size, count, size)) + 1
    cuts = [0, *cuts.tolist(), num]
    text = [f"p edge {num} {count}\n"]
    for a, b in zip(cuts[:-1], cuts[1:]):
        v = np.flatnonzero(upper[a:b])
        np.remainder(v, num, out=v)
        lines = np.empty(v.size, dtype=line)
        lines["u"] = np.repeat(heads[a:b], degrees[a:b])
        # the indices are in range; "clip" only lets take write in place
        np.take(tails, v, out=lines["v"], mode="clip")
        raw = lines.view(np.uint8)
        text.append(str(raw[raw != 0], "ascii"))
    return "".join(text)


# numbers with a nonzero digit at 10^18 or above exceed any vertex count
_DIMACS_PLACES = 18
DIMACS_CHUNK = 1 << 16


def _dimacs_breaks(chunk):
    """Where a line ends: \\n, \\v, \\f and \\r."""
    return (chunk - np.uint8(10)) <= 3


def parse_dimacs(text) -> np.ndarray:
    """Adjacency matrix of a graph in DIMACS edge format (str or bytes).

    The input must be ASCII.  Lines end at \\n, \\r, \\v and \\f; fields
    are separated by runs of those, spaces and tabs, the ASCII whitespace
    of bytes.split().  A line is one of:

    - blank, or a comment: its first field starts with ``c``;
    - the problem line ``p edge N M``, exactly once and before every edge;
    - an edge line ``e U V`` with 1 <= U, V <= N and U != V.

    N, M, U and V are runs of ASCII digits; leading zeros are allowed.
    Repeated and reversed edges count once, and M must equal the number of
    distinct edges.  Anything else raises ValueError, and so does a size N
    whose matrix cannot be allocated.  Of several faulty lines the first in
    text order is reported, whatever the chunking below; a self-loop, a
    missing problem line and the edge count are checked once every line
    has passed.

    The text is read in chunks of about DIMACS_CHUNK bytes that end at their
    last line break, so the per-byte temporaries stay small, and a str is
    encoded one chunk at a time; the search for that break starts after the
    last newline.  In a chunk, bytes are classified by comparisons, fields
    are bounded where the class of a byte differs from the one before it,
    and numbers are read a decimal place at a time over all U and V fields.
    Every edge is checked before the matrix is allocated; then each chunk's
    edges are set by one scatter of flat indices (U - 1) N + V - 1, and the
    transpose completes the matrix.
    """
    if isinstance(text, str):
        if not text.isascii():
            raise ValueError("DIMACS input must be ASCII")
        newline = "\n"

        def window(a, b):
            return np.frombuffer(text[a:b].encode("ascii"), dtype=np.uint8)
    else:
        text = bytes(text)
        buf = np.frombuffer(text, dtype=np.uint8)
        if buf.size and buf.max() >= 128:
            raise ValueError("DIMACS input must be ASCII")
        newline = b"\n"

        def window(a, b):
            return buf[a:b]
    problem = None
    edges = []
    loop = False
    size = len(text) + 1                  # read as if one more newline ended it
    start = 0
    while start < size:
        width = DIMACS_CHUNK
        while start + width < size:
            # cut after the window's last break, which follows its last
            # newline when it has one
            end = start + width
            after = text.rfind(newline, start, end) + 1 or start
            tail = _dimacs_breaks(window(after, end))
            if tail.any():
                stop = end - int(tail[::-1].argmax())
                break
            if after > start:
                stop = after
                break
            width *= 2                    # a line longer than the window
        else:
            stop = size
        chunk = window(start, stop) if stop < size else np.append(
            window(start, size - 1), np.uint8(ord("\n")))
        problem, uv = _dimacs_chunk(chunk, problem)
        loop = loop or bool((uv[0] == uv[1]).any())
        edges.append(uv)
        start = stop
    if problem is None:
        raise ValueError("DIMACS input has no problem line")
    num, declared = problem
    if loop:
        raise ValueError("DIMACS input has a self-loop")
    try:
        adj = np.zeros((num, num), dtype=bool)
    except MemoryError:
        raise ValueError(f"a DIMACS graph of {num} vertices does not fit "
                         f"in memory") from None
    for u, v in edges:
        flat = np.multiply(u, num, dtype=np.intp)
        flat += v
        flat -= num + 1                               # (U - 1) N + V - 1
        adj.ravel()[flat] = True
    adj |= adj.T
    found = np.count_nonzero(adj) // 2
    if found != declared:
        raise ValueError(f"DIMACS problem line declares {declared} edges, "
                         f"found {found}")
    return adj


def _dimacs_chunk(chunk, problem):
    """Check the lines of one chunk, which ends with a line break, and
    return the (N, M) of the problem line read so far (or None) and the
    chunk's edges as a 2 x k array of 1-based endpoints, U in row 0 and V
    in row 1.  A fault raises ValueError with the message of the chunk's
    first faulty line: the line faults found by masks give a first
    candidate, and only the edge lines before it are read as numbers.
    Their U and V fields get fault codes: 3 not ASCII digits, 2 10^18 or
    more, 1 outside [1, N], else 0; the first line with a fault names it by
    its higher code."""
    breaks = _dimacs_breaks(chunk)
    # space[i + 1]: chunk[i] separates fields; space[0] stands for a break
    space = np.empty(chunk.size + 1, dtype=bool)
    space[0] = True
    np.logical_or(breaks, (chunk == 9) | (chunk == 32), out=space[1:])
    # field j is chunk[bounds[2j]:bounds[2j + 1]]
    bounds = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    # a field heads its line when it is the chunk's first or a break lies in
    # the gap before it: the byte before it when the gap is one byte wide,
    # else the breaks counted on either side of the gap.  A gap is wider
    # when the chunk has more separator bytes than separator runs.
    before = starts - 1
    heads = breaks[before]
    heads[:1] = True
    if np.count_nonzero(space) > starts.size + int(space[1]) + 1:
        wide = space[before]                     # chunk[start - 2] separates too
        wide[:1] = False
        wide = np.flatnonzero(wide)
        line_ends = np.flatnonzero(breaks)
        heads[wide] = (np.searchsorted(line_ends, starts[wide])
                       > np.searchsorted(line_ends, ends[wide - 1]))
    heads = np.flatnonzero(heads)
    fields = np.empty_like(heads)                # the number of fields per line
    np.subtract(heads[1:], heads[:-1], out=fields[:-1])
    fields[-1:] = starts.size - heads[-1:]
    at = starts[heads]
    first = chunk[at]
    single = space[at + 2]                       # the first field is one byte

    def text(k):
        a, b = heads[k], heads[k] + fields[k] - 1
        return chunk[starts[a]:ends[b]].tobytes().decode("ascii")

    is_edge = single & (first == ord("e"))
    is_problem = single & (first == ord("p"))
    edges = np.flatnonzero(is_edge)
    # candidate faults as (line, message); the first line in text order is
    # reported, and of two faults on one line the one listed first
    faults = []
    unknown = np.flatnonzero(~(is_edge | is_problem | (first == ord("c"))))
    if unknown.size:
        faults.append((unknown[0], f"unknown DIMACS line: {text(unknown[0])!r}"))
    for k in np.flatnonzero(is_problem).tolist():
        if problem is None and edges.size and edges[0] < k:
            break                             # the edge line before it is at fault
        if problem is not None:
            faults.append((k, f"second DIMACS problem line: {text(k)!r}"))
            break
        parts = text(k).encode("ascii").split()     # at ASCII whitespace only
        if len(parts) != 4 or parts[1] != b"edge" or not all(
                x.isdigit() for x in parts[2:]):
            faults.append((k, f"bad DIMACS problem line: {text(k)!r}"))
            break
        problem = int(parts[2]), int(parts[3])
    if problem is None and edges.size:
        faults.append((edges[0], "DIMACS edge before problem line"))
    bad = np.flatnonzero(is_edge & (fields != 3))
    if bad.size:
        faults.append((bad[0], f"bad DIMACS edge line: {text(bad[0])!r}"))
    stop, message = min(faults, key=lambda f: f[0], default=(heads.size, None))
    edges = edges[edges < stop]       # well formed, after a good problem line

    if not edges.size:
        uv = np.zeros((2, 0), dtype=np.int32)
    else:
        uv = heads[edges] + _UV                  # the U and V fields
        uv, fault = _dimacs_numbers(chunk, starts[uv], ends[uv])
        fault = np.where(fault, fault + 1, (uv < 1) | (uv > problem[0])).max(axis=0)
        faulty = np.flatnonzero(fault)
        if faulty.size:                           # a line before stop
            message = (None, f"DIMACS edge out of range: endpoints must lie in "
                             f"[1, {problem[0]}]", "DIMACS number out of range",
                       "DIMACS numbers must be runs of ASCII digits")[fault[faulty[0]]]
    if message is not None:
        raise ValueError(message)
    return problem, uv


_UV = np.array([[1], [2]])


def _dimacs_numbers(chunk, starts, ends):
    """The decimal numbers in chunk[starts[i]:ends[i]] and a fault code for
    each, in two arrays of the bounds' shape.  The code is 0 for a run of
    ASCII digits below 10^18, 1 for one of 10^18 or more and 2 for a field
    that is not ASCII digits; a field's value is meaningful only where its
    code is 0.  The values are int32 when no field is longer than 9 digits,
    else int64.

    One gather per decimal place reads that digit of every field, highest
    place first.  From the shortest field's length up, a field shorter than
    the place reads a masked 0 (its index may be clipped to the chunk's
    start).  Only the rare fields longer than 18 digits are read above that,
    one at a time, and there every byte must be a 0.
    """
    lengths = ends - starts
    longest = int(lengths.max())
    places = min(longest, _DIMACS_PLACES)
    shortest = int(lengths.min())
    values = np.zeros(ends.shape, dtype=np.int32 if places <= 9 else np.int64)
    top = np.zeros(ends.shape, dtype=np.uint8)           # the largest digit read
    at = ends - places
    for place in range(places - 1, -1, -1):
        digits = np.take(chunk, at, mode="clip")
        digits -= np.uint8(ord("0"))
        if place >= shortest:
            digits *= lengths > place
        np.maximum(top, digits, out=top)
        values *= 10
        values += digits
        at += 1
    fault = (top > 9) * np.uint8(2)
    for i in np.flatnonzero(lengths > _DIMACS_PLACES).tolist():
        high = chunk[starts.flat[i]:ends.flat[i] - _DIMACS_PLACES]
        high = high - np.uint8(ord("0"))                 # the places from 10^18 up
        fault.flat[i] = 2 if fault.flat[i] or (high > 9).any() else high.any()
    return values, fault
