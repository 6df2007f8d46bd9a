import ast
import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intaut import Field, graph
from intaut.graph import (IntegralGraph, Verdict, automorphism_group, build_integral_graph,
                          dimacs_text, expected_verdict, flip_edge, graph6_bytes,
                          parse_dimacs, parse_graph6, refine_coloring,
                          verify_classification)
from intaut.orbits import classify_partition
from intaut.space import sphere_counts_formula
from intaut.transform import SemiaffineMap, to_permutation
from oracles import enumerate_orthogonal, mat_identity, semiaffine_group


def complete(m):
    adj = np.ones((m, m), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


# -- construction --------------------------------------------------------------

def test_graph_27_shape_and_degree(graph33):
    assert graph33.num_vertices == 27
    degrees = graph33.adjacency.sum(axis=1)
    assert (degrees == 14).all()          # isotropic + square = 8 + 6
    assert not graph33.adjacency.diagonal().any()
    assert (graph33.adjacency == graph33.adjacency.T).all()


def test_graph_plane_degree(f3):
    g = build_integral_graph(f3, 2)
    assert g.num_vertices == 9
    assert (g.adjacency.sum(axis=1) == 4).all()
    assert g.num_edges == 18


@pytest.mark.parametrize("p,h,n", [(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_graph_regular_of_predicted_degree(p, h, n):
    f = Field(p, h)
    g = build_integral_graph(f, n)
    counts = sphere_counts_formula(f, n)
    assert (g.adjacency.sum(axis=1) == counts.isotropic + counts.square).all()


def test_translations_are_automorphisms(f3, graph33):
    adj = graph33.adjacency
    for b in [(1, 0, 0), (2, 1, 0), (1, 1, 1)]:
        perm = np.array(
            to_permutation(f3, 3, SemiaffineMap(1, 0, mat_identity(3), b)))
        assert (adj[perm][:, perm] == adj).all()


# -- refinement -----------------------------------------------------------------

def test_refinement_of_regular_graph_is_monochrome(graph33):
    cells = refine_coloring(graph33)
    assert cells == [tuple(range(27))]


def test_refinement_idempotent(graph33):
    once = refine_coloring(graph33)
    assert refine_coloring(graph33, [list(c) for c in once]) == once


def test_refinement_after_individualization_respects_classes(f3, graph33):
    start = [[0], list(range(1, 27))]
    cells = refine_coloring(graph33, start)
    assert (0,) in [tuple(c) for c in cells]
    # every norm class must live inside a single cell: the refinement is
    # never finer than the true stabilizer orbits
    cell_of = {}
    for idx, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = idx
    for orbit in classify_partition(f3, 3).orbits:
        assert len({cell_of[v] for v in orbit}) == 1


def test_refinement_requires_partition(graph33):
    with pytest.raises(ValueError):
        refine_coloring(graph33, [[0, 1]])


# -- automorphism engine ----------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7])
def test_complete_graph_order(m):
    res = automorphism_group(complete(m))
    assert res.order == math.factorial(m)


def test_empty_graph_order():
    res = automorphism_group(np.zeros((5, 5), dtype=bool))
    assert res.order == 120


def test_path_graph_order():
    adj = np.zeros((4, 4), dtype=bool)
    for i in range(3):
        adj[i, i + 1] = adj[i + 1, i] = True
    assert automorphism_group(adj).order == 2


def test_aut_27_order(aut33, sa33):
    assert aut33.order == 1296
    assert aut33.order == len(sa33)


def test_aut_generators_preserve_edges(graph33, aut33):
    adj = graph33.adjacency
    for g in aut33.generators:
        perm = np.array(g)
        assert (adj[perm][:, perm] == adj).all()
        assert sorted(g) == list(range(27))


def test_generated_subgroup_order_divides_total(aut33):
    from oracles import close_permutation_group
    sub = close_permutation_group(aut33.generators[:1], 27)
    assert aut33.order % len(sub) == 0


def test_aut_deterministic(graph33):
    a = automorphism_group(graph33)
    b = automorphism_group(graph33)
    assert a.order == b.order
    assert a.generators == b.generators
    assert a.node_count == b.node_count


def test_complement_has_same_group(graph33, aut33):
    comp = ~graph33.adjacency
    np.fill_diagonal(comp, False)
    assert automorphism_group(comp).order == aut33.order


def brute_force_aut_order(adj):
    import itertools
    m = adj.shape[0]
    count = 0
    for perm in itertools.permutations(range(m)):
        p = np.array(perm)
        if (adj[p][:, p] == adj).all():
            count += 1
    return count


@pytest.mark.parametrize("seed", range(8))
def test_engine_against_brute_force_on_random_graphs(seed):
    import random
    rng = random.Random(seed)
    m = rng.choice([5, 6, 7])
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.45:
                adj[i, j] = adj[j, i] = True
    assert automorphism_group(adj).order == brute_force_aut_order(adj)


@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_column_major_input_reads_as_its_row_major_copy(p, h, n):
    """A relabeled graph adj[inv][:, inv] comes out column-major; the engine
    and the writers read it through a row-major view that shares its memory,
    with the results of a row-major copy."""
    adj = build_integral_graph(Field(p, h), n).adjacency
    inv = np.random.default_rng(p + n).permutation(len(adj))
    relabeled = adj[inv][:, inv]
    assert relabeled.flags.f_contiguous and not relabeled.flags.c_contiguous
    rows = np.ascontiguousarray(relabeled)
    view = graph._as_matrix(relabeled)
    assert view.flags.c_contiguous and np.shares_memory(view, relabeled)
    assert np.array_equal(view, rows)
    assert automorphism_group(relabeled) == automorphism_group(rows)
    cells = [list(range(0, len(adj), 2)), list(range(1, len(adj), 2))]
    assert refine_coloring(relabeled, cells) == refine_coloring(rows, cells)
    assert graph6_bytes(relabeled) == graph6_bytes(rows)
    assert dimacs_text(relabeled) == dimacs_text(rows)


@pytest.mark.parametrize("p,h,n", [(3, 1, 2), (3, 1, 3), (5, 1, 2)])
def test_integer_adjacency_reads_as_its_bool_form(p, h, n):
    """A 0/1 integer adjacency, bare or held by an IntegralGraph, is the
    graph of its bool form to the engine and the writers."""
    g = build_integral_graph(Field(p, h), n)
    wide = IntegralGraph(g.adjacency.astype(np.int64), g.field, g.n)
    cells = [list(range(0, len(g.adjacency), 2)), list(range(1, len(g.adjacency), 2))]
    for form in (wide, wide.adjacency):
        assert automorphism_group(form) == automorphism_group(g)
        assert refine_coloring(form, cells) == refine_coloring(g, cells)
        assert graph6_bytes(form) == graph6_bytes(g)
        assert dimacs_text(form) == dimacs_text(g)


# the automorphism engine and the interchange formats
ENGINE = {"_as_matrix", "_columns", "_refine", "_counts", "_split", "_individualize",
          "refine_coloring", "_target_cell", "automorphism_group", "graph6_bytes",
          "_graph6_chunks", "parse_graph6", "dimacs_text", "_dimacs_breaks",
          "parse_dimacs", "_dimacs_chunk", "_dimacs_numbers"}


def test_engine_knows_nothing_about_fields():
    """No engine or interchange function of graph.py loads a global name of
    the field side, or a function or class of graph.py outside the engine:
    the engine's group is evidence for the map family's only while the two
    share no code."""
    tree = ast.parse(Path(graph.__file__).read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert ENGINE <= defined.keys()
    forbidden = ({"transform", "orbits", "space", "Field", "IntegralGraph"}
                 | defined.keys() - ENGINE - {"AutGroupResult"})
    for name in sorted(ENGINE):
        nodes = list(ast.walk(defined[name]))
        loaded = {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        bound = {node.id for node in nodes                # locals, such as a mask
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
        bound |= {node.arg for node in nodes if isinstance(node, ast.arg)}
        assert not (loaded - bound) & forbidden, name


def test_engine_on_cycles():
    for m in (4, 5, 6, 8):
        adj = np.zeros((m, m), dtype=bool)
        for i in range(m):
            adj[i, (i + 1) % m] = adj[(i + 1) % m, i] = True
        assert automorphism_group(adj).order == 2 * m


def test_engine_on_petersen_graph():
    # vertices 0-4 outer cycle, 5-9 inner pentagram, spokes i ~ i+5
    adj = np.zeros((10, 10), dtype=bool)
    for i in range(5):
        for u, v in [(i, (i + 1) % 5), (i + 5, (i + 2) % 5 + 5), (i, i + 5)]:
            adj[u, v] = adj[v, u] = True
    assert automorphism_group(adj).order == 120


def test_engine_on_disjoint_union():
    # two triangles: each S_3, swappable: 6 * 6 * 2 = 72
    adj = np.zeros((6, 6), dtype=bool)
    for block in (0, 3):
        for i in range(3):
            for j in range(i + 1, 3):
                adj[block + i, block + j] = adj[block + j, block + i] = True
    assert automorphism_group(adj).order == 72


# -- classification ----------------------------------------------------------------

def test_verify_equal_27(f3):
    rep = verify_classification(f3, 3)
    assert rep.verdict is Verdict.EQUAL
    assert rep.aut_order == rep.semiaffine_order == 1296
    assert rep.containment_ok
    assert rep.extra_example is None


def test_verify_plane_q3(f3):
    rep = verify_classification(f3, 2)
    assert rep.verdict is Verdict.EQUAL
    assert rep.aut_order == 72


def test_verify_plane_q5(f5):
    rep = verify_classification(f5, 2)
    assert rep.verdict is Verdict.STRICTLY_LARGER
    assert rep.semiaffine_order == 400
    assert rep.aut_order > 400
    assert rep.extra_example is not None
    # the emitted representative really is an automorphism outside the family
    g = build_integral_graph(f5, 2)
    perm = np.array(rep.extra_example)
    assert (g.adjacency[perm][:, perm] == g.adjacency).all()
    assert rep.extra_example not in set(semiaffine_group(f5, 2))


def test_verify_corrupted_graph_is_violation(f3):
    g = flip_edge(build_integral_graph(f3, 2), 0, 1)
    rep = verify_classification(f3, 2, graph=g)
    assert rep.verdict is Verdict.VIOLATION
    assert not rep.containment_ok


def test_aut_order_matches_family_formula_at_343_points(f7):
    # the family itself is too large to materialize here, but its order
    # q^n * (q-1) * |O(3,7)| / 2 must equal the engine's count
    g = build_integral_graph(f7, 3)
    res = automorphism_group(g)
    assert res.order == 343 * 6 * len(enumerate_orthogonal(f7, 3)) // 2 == 691488


def test_aut_order_matches_family_formula_at_729_points(f9):
    # h = 2: the engine must see the extra Frobenius factor of the family,
    # q^n * h * (q-1) * |O(3,9)| / 2
    g = build_integral_graph(f9, 3)
    res = automorphism_group(g)
    orth = len(enumerate_orthogonal(f9, 3))
    assert orth == 1440
    assert res.order == 729 * 2 * 8 * orth // 2 == 8398080


def test_automorphism_group_frees_its_buffers_on_return(f7):
    """The leaf check's N x N buffers and the transposed adjacency go when
    the search returns, with the cyclic collector off: nothing of N^2
    bytes outlives the call."""
    adj = build_integral_graph(f7, 3).adjacency
    gc.disable()
    tracemalloc.start()
    try:
        assert automorphism_group(adj).order == 691488
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < adj.size


def test_expected_verdicts(f3, f5, f7, f9):
    assert expected_verdict(f3, 3) is Verdict.EQUAL
    assert expected_verdict(f3, 2) is Verdict.EQUAL
    assert expected_verdict(f7, 2) is Verdict.EQUAL
    assert expected_verdict(f5, 2) is Verdict.STRICTLY_LARGER
    assert expected_verdict(f9, 2) is Verdict.STRICTLY_LARGER
    assert expected_verdict(Field(13), 2) is Verdict.EQUAL
    assert expected_verdict(Field(17), 2) is Verdict.EQUAL
    assert expected_verdict(Field(5, 2), 2) is Verdict.STRICTLY_LARGER
    assert expected_verdict(f9, 3) is Verdict.EQUAL


# -- formats -------------------------------------------------------------------------

def test_graph6_single_vertex():
    adj = np.zeros((1, 1), dtype=bool)
    assert graph6_bytes(adj).strip() == b"@"


def test_graph6_round_trip(graph33, f3):
    for g in [graph33, build_integral_graph(f3, 2)]:
        data = graph6_bytes(g)
        back = parse_graph6(data)
        assert (back == g.adjacency).all()


def test_graph6_known_encodings():
    # K_2: one edge, bit string 1 -> 100000b + 63 = 'G'... verified via networkx
    assert graph6_bytes(complete(2)).strip() == b"A_"
    assert graph6_bytes(complete(3)).strip() == b"Bw"


def test_graph6_large_header_round_trip():
    adj = np.zeros((70, 70), dtype=bool)
    adj[0, 69] = adj[69, 0] = True
    back = parse_graph6(graph6_bytes(adj))
    assert (back == adj).all()


def test_dimacs_header_and_round_trip(f3):
    g = build_integral_graph(f3, 2)
    text = dimacs_text(g)
    assert text.startswith("p edge 9 18\n")
    back = parse_dimacs(text)
    assert (back == g.adjacency).all()


def test_dimacs_round_trip_27(graph33):
    assert (parse_dimacs(dimacs_text(graph33)) == graph33.adjacency).all()


def test_dimacs_accepts_comments():
    adj = parse_dimacs("c hello\np edge 3 1\ne 1 3\n")
    assert adj[0, 2] and adj[2, 0] and not adj[0, 1]


def test_dimacs_rejects_garbage():
    for text in ["p edge 3 1\nx 1 2\n",
                 "e 1 2\n",
                 "p edge 3 1\ne 1 1\n",              # self-loop
                 "p edge 3 5\ne 1 2\n",              # declared edge count
                 "p edge 3 1\ne 1\n",                # missing endpoint
                 "p edge 3 1\ne 1 2 3\n",            # extra endpoint
                 "p edge 3 1\ne 1 2\np edge 3 0\n",   # second problem line
                 "p edge 1000000000 0\n",             # cannot be allocated
                 "p edge 1000000000 1\ne 1 2\n"]:
        with pytest.raises(ValueError):
            parse_dimacs(text)


# inputs with several faulty lines, and the message of the first; a
# self-loop and the declared edge count are whole-input checks, made after
# every line has passed
FIRST_FAULTS = [
    ("p edge 3 1\np edge 3 1\nxx\n", "second DIMACS problem line: 'p edge 3 1'"),
    ("p edge 3 1\nxx\np edge 3 1\n", "unknown DIMACS line: 'xx'"),
    ("p edge 3 2\ne 1 5\ne 1 2\nxx\n",
     "DIMACS edge out of range: endpoints must lie in [1, 3]"),
    ("p edge 3 2\ne 1 2\ne 1 x\ne 1 0000000000000000000009\nq\n",
     "DIMACS numbers must be runs of ASCII digits"),
    ("p edge 3 2\ne 1 2\ne 1 10000000000000000000\ne 1 x\n",
     "DIMACS number out of range"),
    ("e 1 2\np edge 3 1\nxx\n", "DIMACS edge before problem line"),
    ("p edge 3 1\ne 1 2 3\ne 1 x\n", "bad DIMACS edge line: 'e 1 2 3'"),
    ("p edge 3 1\ne 1 x\ne 1 2 3\n", "DIMACS numbers must be runs of ASCII digits"),
    ("p edge x 1\ne 1 2\nxx\n", "bad DIMACS problem line: 'p edge x 1'"),
    ("p edge 3 9\ne 2 2\nxx\n", "unknown DIMACS line: 'xx'"),
    ("p edge 3 9\ne 2 2\ne 1 2\n", "DIMACS input has a self-loop"),
    # of one line's faults, digits come before 10^18 and 10^18 before range
    ("p edge 3 1\ne 10000000000000000000 x\n",
     "DIMACS numbers must be runs of ASCII digits"),
    ("p edge 3 1\ne 0 10000000000000000000\n", "DIMACS number out of range"),
    ("p edge 3 1\ne 5 x\n", "DIMACS numbers must be runs of ASCII digits"),
    ("p edge 3 2\ne 1 4\ne 1 x\n",
     "DIMACS edge out of range: endpoints must lie in [1, 3]"),
    ("p edge 3 2\ne 1 2\ne 1 x\ne 0 10000000000000000000\n",
     "DIMACS numbers must be runs of ASCII digits"),
]


@pytest.mark.parametrize("text, message", FIRST_FAULTS)
def test_dimacs_reports_the_first_fault_in_text_order(monkeypatch, text, message):
    """Whatever the chunk size, from one byte to the default."""
    for chunk in [*range(1, len(text) + 2), 1 << 16]:
        monkeypatch.setattr(graph, "DIMACS_CHUNK", chunk)
        for form in (text, text.encode("ascii")):
            with pytest.raises(ValueError) as info:
                parse_dimacs(form)
            assert str(info.value) == message


def test_writers_reject_asymmetric_or_looped_matrices():
    """So do the engine's two entry points: they take simple graphs only."""
    for adj in ([[0, 1, 0], [0, 0, 0], [0, 1, 1]],     # arc 3->2 and a loop at 3
                [[0, 1], [0, 0]],
                [[1]]):
        for take in (graph6_bytes, dimacs_text, automorphism_group, refine_coloring):
            with pytest.raises(ValueError, match="symmetric with an empty diagonal"):
                take(adj)


def test_graph6_rejects_bad_input():
    for data in ["", "\x01\x02",
                 b"~",            # truncated 3-byte size header
                 b"~??",
                 b"~~??",         # truncated 6-byte size header
                 b"A_junk",       # trailing bytes after the payload
                 b"B",            # payload too short
                 b"Aa"]:          # nonzero padding bits (K_2 is b"A_")
        with pytest.raises(ValueError):
            parse_graph6(data)


@pytest.mark.parametrize("text", ["@ ", " @", "@\u0085", "é",
                                  ">>graph6<<@ ", "@\x1c"])
def test_graph6_refuses_non_ascii_whitespace_in_both_forms(text):
    """Only ASCII whitespace around the line is dropped; a non-ASCII
    character is an invalid graph6 character whether it comes as str or as
    its UTF-8 bytes."""
    for data in (text, text.encode("utf-8")):
        with pytest.raises(ValueError, match="^invalid graph6 character$"):
            parse_graph6(data)


def test_graph6_strips_ascii_whitespace_in_both_forms():
    for text in ["@", " @\n", "\t@\r\n", "\x0b\x0c@ ", ">>graph6<<@\n"]:
        for data in (text, text.encode("ascii")):
            assert parse_graph6(data).shape == (1, 1)


@st.composite
def small_graphs(draw):
    m = draw(st.integers(0, 40))
    bits = draw(st.lists(st.booleans(), min_size=m * (m - 1) // 2,
                         max_size=m * (m - 1) // 2))
    adj = np.zeros((m, m), dtype=bool)
    adj[np.triu_indices(m, 1)] = bits
    return adj | adj.T


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_formats_round_trip_random_graphs(adj):
    assert np.array_equal(parse_graph6(graph6_bytes(adj)), adj)
    assert np.array_equal(parse_dimacs(dimacs_text(adj)), adj)


# Inputs in each format's own alphabet reach the parsers' checks far more
# often than raw bytes do, and keep every declared size small.
GRAPH6_LIKE = st.lists(st.integers(63, 126), max_size=12).map(bytes)
# the line ends of parse_dimacs, \n, \r, \v and \f, and runs of space and
# tab: the ASCII whitespace that every reader shares
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c"]
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t"])
# an integer as int() reads it: plain, with leading zeros, a sign or an
# underscore between digits
DIMACS_INT = st.tuples(st.integers(-1, 6), st.sampled_from(["", "0", "00", "+", "0_"])).map(
    lambda t: str(t[0]) if t[0] < 0 else t[1] + str(t[0]))
DIMACS_FIELD = DIMACS_INT | st.sampled_from(["p", "edge", "e", "c", "x", "a", "1a", "0x1"])


@st.composite
def dimacs_like(draw):
    """DIMACS-shaped text: a problem line and edge lines (repeated, reversed
    and looped edges among them, the declared count usually right), blank,
    whitespace-only, comment and junk lines anywhere, fields split by runs
    of whitespace, lines ended by any of LINE_ENDS."""
    num = draw(st.integers(0, 5))
    ends = st.integers(1, max(num, 1))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=8))
    if draw(st.booleans()):
        pairs = [e for e in pairs if e[0] != e[1]]
    distinct = len({frozenset(e) for e in pairs if e[0] != e[1]})
    declared = draw(st.just(distinct) | st.integers(-1, 6))
    lines = [["p", "edge", num, declared], *(["e", u, v] for u, v in pairs)]
    for _ in range(draw(st.integers(0, 4))):
        junk = draw(st.integers(0, 3)) == 0
        extra = draw(st.lists(DIMACS_FIELD, max_size=4) if junk else st.sampled_from(
            [[], ["c"], ["c", "p", "edge", 1, 1], ["cx", "e"]]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    forms = draw(st.sampled_from(["0{}", "+{}", "0_{}"]).map(lambda f: f.format)
                 | st.just(str))      # other forms int() reads, or none
    out = []
    for fields in lines:
        text = [f if isinstance(f, str) else draw(st.sampled_from([str, forms]))(f)
                for f in fields]
        body = "".join(draw(SEPARATORS) + f for f in text)
        out.append(draw(st.sampled_from(["", " ", "\t "])) + body[1:]
                   + draw(st.sampled_from(LINE_ENDS)))
    return "".join(out)


DIMACS_LINE = st.lists(DIMACS_FIELD, max_size=5).map(" ".join)
DIMACS_LIKE = (st.lists(DIMACS_LINE, max_size=6).map("\n".join)
               | dimacs_like()).map(str.encode)


@settings(max_examples=300, deadline=None)
@given(st.lists(DIMACS_LIKE, min_size=1, max_size=3).map(b"\n".join),
       st.integers(1, 64))
def test_dimacs_message_does_not_depend_on_the_chunk_size(data, chunk):
    """Texts with several faulty lines give the same message, or the same
    matrix, at chunk sizes of 1 to 64 bytes as at the default."""
    def outcome():
        try:
            return parse_dimacs(data).tobytes()
        except ValueError as exc:
            return str(exc)

    whole = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "DIMACS_CHUNK", chunk)
        assert outcome() == whole


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), GRAPH6_LIKE, DIMACS_LIKE))
def test_parsers_raise_only_value_error(data):
    for parse in (parse_graph6, parse_dimacs):
        try:
            adj = parse(data)
        except ValueError:
            continue
        assert adj.dtype == bool and adj.shape[0] == adj.shape[1]
        assert (adj == adj.T).all() and not adj.diagonal().any()
