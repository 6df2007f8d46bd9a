"""Run one benchmark instance in a fresh interpreter and print its outcome.

    python3 perfbench/instance.py '<instance JSON>' [--trace]

The instance JSON comes from run.py.  The last stdout line is a JSON object
with the in-process wall time (imports excluded), peak RSS, the outcome that
run.py checks against its pinned expectation and, with --trace, the per-layer
summary and the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import numpy as np

import intaut
from intaut import cli, graph, orbits, transform
from intaut.field import Field
from intaut.space import SphereClass

CLASSES = (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE)


def run_cli(argv):
    """intaut CLI invocation; outcome = exit code plus the tsv key/values."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--output", "tsv"])
    outcome = dict(line.split("\t", 1) for line in buf.getvalue().splitlines())
    outcome["exit"] = code
    return outcome


def run_ladder(inst):
    """Order-level classification through the library on a relabeled graph."""
    p, h, n = inst["p"], inst["h"], inst["n"]
    field = Field(p, h, inst.get("modulus"))
    out = {"m_orbits_match": orbits.m_orbits(field, n).as_sets()
           == orbits.classify_partition(field, n).as_sets()}
    out["orbital"] = [orbits.orbital_connected(field, n, cls).value
                      for cls in CLASSES]

    adjacency = graph.build_integral_graph(field, n).adjacency
    # vertex v of the integral graph becomes sigma[v]
    sigma = np.random.default_rng(inst["relabel_seed"]).permutation(adjacency.shape[0])
    inv = np.argsort(sigma)
    relabeled = adjacency[inv][:, inv]
    aut = graph.automorphism_group(relabeled)
    out["order"] = aut.order
    out["generators"] = len(aut.generators)

    recognized = round_trips = 0
    for gen in aut.generators:
        # conjugate back to canonical point indices: x -> inv[gen[sigma[x]]]
        perm = tuple(inv[np.asarray(gen)[sigma]].tolist())
        found = transform.recognize_semiaffine(field, n, perm)
        if found is not None:
            recognized += 1
            round_trips += transform.to_permutation(field, n, found) == perm
    out["recognized"] = recognized
    out["round_trips"] = round_trips

    g6 = graph.graph6_bytes(relabeled)
    out["graph6_round_trip"] = bool(np.array_equal(graph.parse_graph6(g6), relabeled))
    dimacs = graph.dimacs_text(relabeled)
    out["dimacs_round_trip"] = bool(np.array_equal(graph.parse_dimacs(dimacs), relabeled))
    return out


def run(inst):
    if inst["kind"] == "cli":
        return run_cli(inst["argv"])
    return run_ladder(inst)


def main():
    inst = json.loads(sys.argv[1])
    trace = "--trace" in sys.argv[2:]
    src = os.path.realpath(os.path.join("src", "intaut"))
    if os.path.dirname(os.path.realpath(intaut.__file__)) != src:
        sys.exit(f"intaut imported from {intaut.__file__}, not from {src}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(intaut)
    start = perf_counter()
    outcome = run(inst)
    wall = perf_counter() - start
    result = {"wall_s": wall,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "outcome": outcome}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.span_records(start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
