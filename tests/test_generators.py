"""The generator path of `verify` against explicit element lists.

`verify_classification` and `intaut verify` hold every group as generators.
Here the same questions are answered from materialized element lists (the
whole map family, and the closure of the engine's generators) on every
instance of at most 125 points, and both answers must agree.
"""

import numpy as np
import pytest

from intaut import Field, cli
from intaut.graph import (Verdict, automorphism_group, build_integral_graph,
                          flip_edge, verify_classification)
from intaut.orbits import semiaffine_generators
from intaut.transform import batch_preserves, semiaffine_order
from oracles import (close_group_array, enumerate_orthogonal, semiaffine_group,
                     stabilizer_orbits)

# (p, h, n, corrupt)
INSTANCES = [(3, 1, 2, False), (5, 1, 2, False), (7, 1, 2, False),
             (3, 1, 3, False), (3, 1, 3, True), (3, 2, 2, False),
             (3, 1, 4, False), (11, 1, 2, False), (5, 1, 3, False)]


def element_path(field, n, graph):
    """Verdict, orders, containment, extra automorphism, rank and subdegrees
    from the full family and the full automorphism group."""
    aut = automorphism_group(graph)
    sa = semiaffine_group(field, n)
    ok = bool(batch_preserves(np.asarray(sa, dtype=np.int32),
                              graph.adjacency).all())
    extra = rank = subdegrees = None
    if ok and aut.order > len(sa):
        verdict = Verdict.STRICTLY_LARGER
        sa_set = set(sa)
        extra = next(g for g in aut.generators if g not in sa_set)
    elif ok and aut.order == len(sa):
        verdict = Verdict.EQUAL
    else:
        verdict = Verdict.VIOLATION
    if verdict is not Verdict.VIOLATION:
        stab = stabilizer_orbits(
            close_group_array(aut.generators, graph.num_vertices), 0)
        rank = str(stab.rank)
        subdegrees = " ".join(map(str, sorted(
            len(o) for o in stab.orbits if 0 not in o)))
    return (verdict, aut.order, len(sa), ok, extra), (rank, subdegrees)


@pytest.mark.parametrize("p, h, n, corrupt", INSTANCES,
                         ids=[f"{p ** h}^{n}{'-corrupt' if c else ''}"
                              for p, h, n, c in INSTANCES])
def test_generator_path_matches_element_path(p, h, n, corrupt, capsys):
    field = Field(p, h)
    graph = build_integral_graph(field, n)
    if corrupt:
        graph = flip_edge(graph, 0, 1)
    report = verify_classification(field, n, graph=graph)
    classification, stabilizer = element_path(field, n, graph)
    assert (report.verdict, report.aut_order, report.semiaffine_order,
            report.containment_ok, report.extra_example) == classification
    assert semiaffine_order(field, n) == classification[2]

    argv = ["verify", "--p", str(p), "--h", str(h), "--n", str(n),
            "--output", "tsv"] + (["--corrupt"] if corrupt else [])
    cli.main(argv)
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert (out.get("rank"), out.get("subdegrees")) == stabilizer


ORDER_GRID = [(p, h, n) for p in (3, 5, 7, 11, 13, 17) for h in (1, 2, 3, 4, 5)
              for n in (1, 2, 3, 4) if (p ** h) ** n <= 343]


@pytest.mark.parametrize("p, h, n", ORDER_GRID)
def test_semiaffine_order_matches_orthogonal_enumeration(p, h, n):
    field = Field(p, h)
    q = field.q
    assert semiaffine_order(field, n) == (
        q ** n * h * (q - 1) * len(enumerate_orthogonal(field, n)) // 2)


@pytest.mark.parametrize("p, h, n", [(3, 1, 2), (3, 1, 3), (5, 1, 2),
                                     (3, 2, 1), (3, 2, 2)])
def test_semiaffine_generators_generate_the_family(p, h, n):
    field = Field(p, h)
    gens = semiaffine_generators(field, n)
    assert len(close_group_array(gens, field.q ** n)) == semiaffine_order(field, n)
