"""CLI stdout, exported files and search results against committed goldens.

Each case runs `python -m intaut` in a fresh directory and compares its exit
code, its stdout with tests/golden/<case>.txt, its stderr with
tests/golden/<case>.err (empty when that file does not exist) and, for
exports, the written file with tests/golden/<case>.<format>.  tests/golden/aut-ladder.txt pins the
`AutGroupResult` of the automorphism search on relabeled graphs of 343 to 729
points: order, node count, number of generators and a sha256 of the
generators.  After an intended output change, regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import hashlib

import numpy as np
import pytest

import intaut
from intaut import Field, automorphism_group, build_integral_graph

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (argv, exit code, exported file name or None)
CASES = {
    "field-info-3": (["field-info", "--p", "3"], 0, None),
    "field-info-9": (["field-info", "--p", "3", "--h", "2", "--output", "tsv"], 0, None),
    "field-info-729": (["field-info", "--p", "3", "--h", "6"], 0, None),
    "field-info-961": (["field-info", "--p", "31", "--h", "2"], 0, None),
    "spheres-27": (["spheres", "--p", "3", "--n", "3"], 0, None),
    "spheres-81": (["spheres", "--p", "3", "--h", "2", "--n", "2", "--output", "tsv"],
                   0, None),
    "spheres-729": (["spheres", "--p", "3", "--h", "6", "--n", "1"], 0, None),
    "verify-27": (["verify", "--p", "3", "--n", "3"], 0, None),
    "verify-27-corrupt": (["verify", "--p", "3", "--n", "3", "--corrupt"], 1, None),
    "verify-25": (["verify", "--p", "5", "--n", "2", "--output", "tsv"], 0, None),
    "verify-81": (["verify", "--p", "3", "--h", "2", "--n", "2"], 0, None),
    "verify-125": (["verify", "--p", "5", "--n", "3"], 0, None),
    "verify-343": (["verify", "--p", "7", "--n", "3"], 0, None),
    "verify-169": (["verify", "--p", "13", "--n", "2"], 0, None),
    "verify-729": (["verify", "--p", "3", "--n", "6"], 0, None),
    "verify-1331": (["verify", "--p", "11", "--n", "3"], 0, None),
    "recognize-81": (["recognize", "--p", "3", "--h", "2", "--n", "2",
                      "--perm-file", str(GOLDEN / "recognize-81.perm")], 0, None),
    "recognize-27-swap": (["recognize", "--p", "3", "--n", "3",
                           "--perm-file", str(GOLDEN / "recognize-27-swap.perm")],
                          1, None),
    "export-graph6": (["export", "--p", "5", "--n", "2", "--format", "graph6",
                       "--out", "graph.graph6"], 0, "graph.graph6"),
    "export-dimacs": (["export", "--p", "3", "--n", "3", "--format", "dimacs",
                       "--out", "graph.dimacs"], 0, "graph.dimacs"),
    # --max-points refuses q^n above it with exit 2, or admits it when raised
    "spheres-27-refused": (["spheres", "--p", "3", "--n", "3", "--max-points", "10"],
                           2, None),
    "verify-27-refused": (["verify", "--p", "3", "--n", "3", "--max-points", "10"],
                          2, None),
    "recognize-27-refused": (["recognize", "--p", "3", "--n", "3", "--perm-file",
                              str(GOLDEN / "recognize-27-swap.perm"),
                              "--max-points", "10"], 2, None),
    "export-27-refused": (["export", "--p", "3", "--n", "3", "--format", "dimacs",
                           "--out", "graph.dimacs", "--max-points", "10"], 2, None),
    "spheres-961-raised": (["spheres", "--p", "31", "--h", "2", "--n", "2",
                            "--max-points", "923521"], 0, None),
    # a command's help, and a bad flag value in its usage error
    "verify-help": (["verify", "-h"], 0, None),
    "verify-27-bad-output": (["verify", "--p", "3", "--n", "3", "--output", "csv"],
                             2, None),
}


# (p, h, n) of the relabeled graphs whose search result is pinned
LADDER = [(7, 1, 3), (3, 1, 6), (3, 2, 3), (3, 3, 2), (5, 2, 2)]
LADDER_SEED = 2014
LADDER_GOLDEN = GOLDEN / "aut-ladder.txt"


def ladder_text():
    """One tab-separated line per ladder graph: q^n label, order, node count,
    number of generators and sha256 of the generators as little-endian int32."""
    lines = []
    for p, h, n in LADDER:
        adj = build_integral_graph(Field(p, h), n).adjacency
        inv = np.argsort(np.random.default_rng(LADDER_SEED).permutation(adj.shape[0]))
        res = automorphism_group(adj[inv][:, inv])
        gens = np.asarray(res.generators, dtype="<i4").reshape(-1, adj.shape[0])
        digest = hashlib.sha256(gens.tobytes()).hexdigest()
        lines.append(f"{p ** h}^{n}\t{res.order}\t{res.node_count}"
                     f"\t{len(res.generators)}\t{digest}")
    return "\n".join(lines) + "\n"


def run_case(case, workdir):
    """Exit code, stdout bytes, stderr bytes and exported bytes (or None) of
    one case."""
    argv, _, exported = CASES[case]
    env = dict(os.environ, PYTHONPATH=str(Path(intaut.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "intaut", *argv], cwd=workdir,
                          env=env, capture_output=True)
    payload = (Path(workdir) / exported).read_bytes() if exported else None
    return proc.returncode, proc.stdout, proc.stderr, payload


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    code, stdout, stderr, payload = run_case(case, tmp_path)
    assert code == CASES[case][1]
    assert stdout == (GOLDEN / f"{case}.txt").read_bytes()
    err = GOLDEN / f"{case}.err"
    assert stderr == (err.read_bytes() if err.exists() else b"")
    if payload is not None:
        suffix = Path(CASES[case][2]).suffix
        assert payload == (GOLDEN / f"{case}{suffix}").read_bytes()


def test_aut_ladder_golden():
    assert ladder_text() == LADDER_GOLDEN.read_text()


PUBLIC_API = [
    "AutGroupResult", "ClassificationReport", "DEFAULT_MAX_POINTS", "Field",
    "IntegralGraph", "InternalInconsistencyError", "NotABijectionError",
    "OrbitDecomposition", "OrbitalStatus", "SemiaffineMap", "SphereClass",
    "SphereCounts", "TooLargeError", "Verdict", "automorphism_group",
    "build_integral_graph", "canonical_index", "classify", "classify_partition",
    "dimacs_text", "distance", "enumerate_points",
    "expected_verdict", "flip_edge", "graph6_bytes", "is_integral",
    "is_irreducible", "least_irreducible", "m_orbits", "norm", "normalize_map",
    "orbital_connected", "orbits_under", "parse_dimacs", "parse_graph6",
    "point_of_index", "poly_str", "preserves_cones",
    "preserves_integral", "read_permutation_file", "recognize_semiaffine",
    "refine_coloring", "satisfies_zero_iff", "sphere_counts_enumerated",
    "sphere_counts_formula", "to_permutation", "verify_classification",
    "write_permutation_file",
]


def test_public_api_is_pinned():
    """The names `intaut` exports, submodules aside; the element-list and
    brute-force oracles live in tests/oracles.py, not here."""
    names = sorted(name for name, value in vars(intaut).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC_API


if __name__ == "__main__":
    import tempfile
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, stderr, payload = run_case(case, tmp)
        if code != CASES[case][1]:
            sys.exit(f"{case}: exit {code}, expected {CASES[case][1]}")
        (GOLDEN / f"{case}.txt").write_bytes(stdout)
        (GOLDEN / f"{case}.err").unlink(missing_ok=True)
        if stderr:
            (GOLDEN / f"{case}.err").write_bytes(stderr)
        if payload is not None:
            (GOLDEN / f"{case}{Path(CASES[case][2]).suffix}").write_bytes(payload)
        print(f"{case}: {len(stdout)} bytes")
    LADDER_GOLDEN.write_text(ladder_text())
    print(f"aut-ladder: {LADDER_GOLDEN.stat().st_size} bytes")
