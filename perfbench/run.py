"""intaut benchmark: cold-start instances of three workloads, timed from outside.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 38 --trace 0

Run from the repository root; the library is imported from ./src.  Every
instance runs in a fresh interpreter (cold caches, as a CLI invocation), one
at a time, with BLAS/OpenMP pools at one thread.  A run measures set-up, then
runs the workload's instances round-robin while the next one is predicted to
end within --seconds (each at least once), and reports the sum of
per-instance medians.  On aut-ladder every sample relabels the graph afresh
from the seed.  A fixed reference computation, timed in this process before
every instance, gives the machine's speed during the run; the time metrics
are scaled to a nominal reference speed, so that a shared machine's drift
from one run to the next does not read as a change of the program.  Set-up
is scaled the same way, by references timed between its repetitions.  With
--trace 1 it runs every instance untraced and then traced, and reports the
per-layer metrics instead.  Every outcome is checked against a pinned
expectation; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from collections import Counter
from itertools import count, product
from time import monotonic, perf_counter

import numpy

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_REPS = 15
CHILD_TIMEOUT_S = 150
# the reference computation's typical time on a 2-vCPU Xeon VM at 2.1 GHz;
# time metrics are reported as if every reference had taken this long
REF_NOMINAL_S = 0.1

EQUAL = {"exit": 0, "verdict": "equal", "containment": "yes",
         "zero_iff_failures": "0", "cone_failures": "0", "status": "ok",
         "sphere_match": "yes", "m_orbits_match": "yes"}
LARGER = {"exit": 0, "verdict": "strictly-larger", "containment": "yes",
          "status": "ok", "sphere_match": "yes", "m_orbits_match": "yes"}
CONNECTED = {f"orbital_{c}": "connected" for c in ("isotropic", "square", "nonsquare")}
ALL_CONNECTED = ["connected"] * 3

# (name, p, h, n, extra argv, pinned outcome); group_elements, zero_iff_checked
# and cone_checked are left unpinned on purpose, their meaning is due to change
VERIFY = [
    ("3^3", 3, 1, 3, [], {**EQUAL, **CONNECTED, "aut_order": "1296",
                          "semiaffine_order": "1296", "rank": "4",
                          "subdegrees": "6 8 12"}),
    ("3^3-corrupt", 3, 1, 3, ["--corrupt"],
     {"exit": 1, "verdict": "violation", "containment": "no", "status": "fail"}),
    ("5^2", 5, 1, 2, [], {**LARGER, **CONNECTED, "aut_order": "28800",
                          "semiaffine_order": "400", "rank": "3",
                          "subdegrees": "8 16"}),
    ("5^3", 5, 1, 3, [], {**EQUAL, **CONNECTED, "aut_order": "60000",
                          "semiaffine_order": "60000", "rank": "4",
                          "subdegrees": "24 40 60"}),
    ("9^2", 3, 2, 2, [], {**LARGER, **CONNECTED, "aut_order": "186624",
                          "semiaffine_order": "10368", "rank": "3",
                          "subdegrees": "32 48"}),
]

# (name, p, h, n, orbital statuses, automorphism group order, whether Aut
# equals the map family: false only on planes over q = 1 mod 4)
LADDER = [
    ("7^3", 7, 1, 3, ALL_CONNECTED, 691488, True),
    ("3^6", 3, 1, 6, ALL_CONNECTED, 19046845440, True),
    ("9^3", 3, 2, 3, ALL_CONNECTED, 8398080, True),
    ("27^2", 3, 3, 2, ["degenerate", "connected", "connected"], 1592136, True),
    ("25^2", 5, 2, 2, ALL_CONNECTED, 1440000, False),
]

# (name, p, h): spheres over the plane GF(q)^2
FIELDS = [("243", 3, 5), ("343", 7, 3), ("729", 3, 6), ("961", 31, 2)]

METRICS = {
    "wall_adj_s": "s", "largest_adj_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "cli.self_s": "s",
    "field.self_s": "s", "field.fields_built": "count",
    "space.self_s": "s", "space.calls": "count", "space.bulk_tables_s": "s",
    "space.distance_matrix_s": "s",
    "transform.self_s": "s", "transform.calls": "count",
    "transform.semiaffine_group_s": "s", "transform.family_elements": "count",
    "transform.batch_preserves_s": "s", "transform.pairs_checked": "count",
    "transform.preserves_cones_s": "s", "transform.recognize_s": "s",
    "transform.recognized": "count", "transform.recognize_calls": "count",
    "orbits.self_s": "s", "orbits.calls": "count",
    "orbits.close_group_array_s": "s", "orbits.closure_elements": "count",
    "orbits.stabilizer_orbits_s": "s", "orbits.m_orbits_s": "s",
    "orbits.orbital_connected_s": "s",
    "graph.self_s": "s", "graph.calls": "count",
    "graph.automorphism_group_s": "s", "graph.search_nodes": "count",
    "graph.generators": "count", "graph.interchange_s": "s",
    "graph.interchange_bytes": "bytes",
    "trace.coverage": "ratio", "trace.overhead_frac": "ratio",
}
# counts that must repeat exactly at a fixed seed and program
EXACT_COUNTS = ("graph.search_nodes", "graph.generators",
                "transform.family_elements", "transform.pairs_checked",
                "orbits.closure_elements", "transform.recognized")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _is_irreducible(f, p):
    """Monic f (constant term first) has no monic factor of degree <= deg/2."""
    h = len(f) - 1
    for d in range(1, h // 2 + 1):
        for tail in product(range(p), repeat=d):
            rem = list(f)
            for top in range(h, d - 1, -1):  # divide by x^d + tail
                c = rem[top]
                if c:
                    for j, t in enumerate(tail):
                        rem[top - d + j] = (rem[top - d + j] - c * t) % p
                    rem[top] = 0
            if not any(rem):
                return False
    return True


def seeded_modulus(rng, p, h):
    """A uniformly drawn monic irreducible of degree h, constant term first."""
    while True:
        f = [rng.randrange(p) for _ in range(h)] + [1]
        if _is_irreducible(f, p):
            return f


def instances(workload, seed):
    """The workload's instances, with seed-drawn moduli and relabelings."""
    out = []
    table = {"verify": VERIFY, "aut-ladder": LADDER, "fields": FIELDS}[workload]
    for index, row in enumerate(table):
        name, p, h = row[:3]
        rng = random.Random(f"{seed}/{workload}/{name}")
        modulus = seeded_modulus(rng, p, h) if h > 1 else None
        flags = ["--modulus", ",".join(map(str, modulus))] if modulus else []
        if workload == "verify":
            n, extra, expect = row[3:]
            inst = {"kind": "cli", "argv": ["verify", "--p", str(p), "--h", str(h),
                                            "--n", str(n)] + flags + extra,
                    "expect": expect}
        elif workload == "aut-ladder":
            n, orbital, order, equal = row[3:]
            inst = {"kind": "ladder", "p": p, "h": h, "n": n, "modulus": modulus,
                    "relabel_seed": [seed, index], "equal": equal,
                    "expect": {"m_orbits_match": True, "orbital": orbital,
                               "order": order, "graph6_round_trip": True,
                               "dimacs_round_trip": True}}
        else:
            n = 2
            inst = {"kind": "cli", "argv": ["spheres", "--p", str(p), "--h", str(h),
                                            "--n", "2", "--max-points",
                                            str((p ** h) ** n)] + flags,
                    "expect": {"exit": 0, "verdict": "MATCH"}}
        inst.update(name=name, points=(p ** h) ** n)
        out.append(inst)
    return out


def outcome_ok(inst, outcome):
    if outcome is None:
        return False
    if any(outcome.get(k) != v for k, v in inst["expect"].items()):
        return False
    if inst["kind"] != "ladder":
        return True
    # every recognized generator round-trips, and all are recognized exactly
    # when Aut equals the map family
    recognized = outcome["recognized"]
    return (outcome["round_trips"] == recognized
            and (recognized == outcome["generators"]) == inst["equal"])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env):
    """Median time from spawning an interpreter to the end of its
    `import intaut`, and the median reference time, timed before each spawn.
    The child reads the system-wide monotonic clock itself, so the parent's
    polling wait for its exit is not counted."""
    cmd = [sys.executable, "-c", "import intaut, time; print(time.monotonic())"]
    subprocess.run(cmd, env=env, check=True, capture_output=True,
                   timeout=CHILD_TIMEOUT_S)  # writes the .pyc files
    time_reference()  # warm-up
    times, refs = [], []
    for _ in range(SETUP_REPS):
        refs.append(time_reference())
        start = monotonic()
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(proc.stdout) - start)
    return statistics.median(times), statistics.median(refs)


def reference():
    """A fixed computation of the program's kinds of numpy work, independent
    of the program: row-subset sums, stable argsorts and uniques over a
    729 x 729 int8 matrix, as in partition refinement, then permuting and
    sorting an 8 MB array.  Only its time is used."""
    rng = numpy.random.default_rng(0)
    colour = rng.integers(0, 8, size=729)
    cells = [numpy.flatnonzero(colour == c) for c in range(8)]
    m = rng.integers(0, 3, size=(729, 729), dtype=numpy.int8)
    total = 0
    for r in range(300):
        v = m[cells[r % 8]].sum(axis=0)
        total += int(v[numpy.argsort(v, kind="stable")[-1]]) + len(numpy.unique(v))
    a = rng.integers(0, 1 << 16, size=(1024, 1024), dtype=numpy.int64)
    for _ in range(3):
        perm = rng.permutation(1024)
        b = a[perm][:, perm]
        total += int(numpy.count_nonzero(b == a)) + int(numpy.sort(b[:256], axis=1)[:, 0].sum())
    return total


def time_reference():
    start = perf_counter()
    reference()
    return perf_counter() - start


def run_instance(inst, env, trace, sample=0):
    """One cold-start instance: the child's result, or on a crash or timeout
    the time until failure with no outcome.  `sample` picks the relabeling."""
    spec = {k: v for k, v in inst.items() if k != "expect"}
    if "relabel_seed" in spec:
        spec["relabel_seed"] = spec["relabel_seed"] + [sample]
    cmd = [sys.executable, os.path.join(HERE, "instance.py"), json.dumps(spec)]
    if trace:
        cmd.append("--trace")
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        print(f"  {inst['name']}: timed out after {CHILD_TIMEOUT_S} s")
    except (IndexError, json.JSONDecodeError):
        print(f"  {inst['name']}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")
    return {"wall_s": perf_counter() - start, "rss_mb": 0.0, "outcome": None}


def checked_run(inst, env, trace, tally, sample=0):
    """run_instance, with its outcome checked and tallied."""
    res = run_instance(inst, env, trace, sample)
    ok = outcome_ok(inst, res["outcome"])
    tally["attempted"] += 1
    tally["failed"] += not ok
    print(f"  {inst['name']:>12} {inst['points']:>7} pts  "
          f"{res['wall_s']:8.3f} s  {res['rss_mb']:7.1f} MB  "
          f"{'ok' if ok else 'FAILED ' + json.dumps(res['outcome'])}")
    return res


def timed_samples(insts, env, seconds, tally):
    """Untraced instances round-robin while the next one is predicted to end
    within `seconds`, each at least once; the reference is timed before every
    instance and once at the end."""
    samples = [[] for _ in insts]
    cost = [0.0] * len(insts)  # the last sample's elapsed time, reference included
    refs = []
    time_reference()  # warm-up
    start = perf_counter()
    for k in count():
        for i, inst in enumerate(insts):
            if k and perf_counter() - start + cost[i] > seconds:
                refs.append(time_reference())
                return samples, refs
            t = perf_counter()
            refs.append(time_reference())
            samples[i].append(checked_run(inst, env, False, tally, k))
            cost[i] = perf_counter() - t


def end_to_end(insts, samples, refs, setup):
    """Sums of per-instance medians.  Every time metric is scaled by the
    nominal over the median reference time taken alongside it."""
    top = max(inst["points"] for inst in insts)
    medians = [statistics.median(r["wall_s"] for r in s) for s in samples]
    wall = sum(medians)
    largest_s = sum(m for m, inst in zip(medians, insts) if inst["points"] == top)
    ref = statistics.median(refs)
    setup_s, setup_ref = setup
    print(f"{'wall_s':32} {wall:.6g} s (unscaled; "
          f"{min(map(len, samples))}-{max(map(len, samples))} samples an instance)")
    print(f"{'largest_s':32} {largest_s:.6g} s (unscaled)")
    print(f"{'setup_unscaled_s':32} {setup_s:.6g} s")
    print(f"{'reference_s':32} {ref:.6g} s (median of {len(refs)}; "
          f"{setup_ref:.6g} s at set-up; nominal {REF_NOMINAL_S} s)")
    return {
        "wall_adj_s": wall * REF_NOMINAL_S / ref,
        "largest_adj_s": largest_s * REF_NOMINAL_S / ref,
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in s) for s in samples),
        "setup_s": setup_s * REF_NOMINAL_S / setup_ref,
    }


def per_layer(traced, untraced_wall):
    """Layer metrics summed over the traced pass's instances."""
    layers = Counter()
    for res in traced:
        layers.update(res.get("layers", {}))
    wall = sum(res["wall_s"] for res in traced)
    layers["trace.coverage"] = layers.pop("covered_s", 0.0) / wall
    layers["trace.overhead_frac"] = wall / untraced_wall - 1
    print("self-time share of traced wall: " + ", ".join(
        f"{layer} {layers[layer + '.self_s'] / wall:.3f}" for layer in LAYERS))
    print("Field.__init__ + space.bulk_tables share: "
          f"{(layers['field.self_s'] + layers['space.bulk_tables_s']) / wall:.3f}")
    return layers


def program_digest():
    h = hashlib.sha256()
    for top in ("src/intaut", HERE):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def check_exact_counts(workload, seed, layers):
    """Counts recorded at this seed and program must repeat exactly."""
    path = os.path.join(OUT_DIR, "counts.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    key = f"{program_digest()}/{workload}/{seed}"
    counts = {k: layers[k] for k in EXACT_COUNTS}
    previous = known.setdefault(key, counts)
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    if previous != counts:
        print(f"exact counts differ from an earlier run: {previous} vs {counts}")
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "aut-ladder", "fields"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "intaut", "__init__.py")):
        sys.exit("error: run from the repository root (src/intaut not found)")

    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, workload {args.workload}, seed {args.seed}")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    insts = instances(args.workload, args.seed)
    tally = {"attempted": 0, "failed": 0}
    correct = True
    if args.trace:
        # each traced instance runs right after its untraced twin, so the
        # overhead estimate is not swamped by the machine's drift over a pass
        print("each instance untraced, then traced")
        untraced, traced = [], []
        for inst in insts:
            untraced.append(checked_run(inst, env, False, tally))
            traced.append(checked_run(inst, env, True, tally))
        metrics = per_layer(traced, sum(r["wall_s"] for r in untraced))
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"),
                  "w") as fh:
            json.dump({inst["name"]: res.get("spans")
                       for inst, res in zip(insts, traced)}, fh)
        correct = check_exact_counts(args.workload, args.seed, metrics)
        units = PER_LAYER
    else:
        setup = measure_setup(env)
        samples, refs = timed_samples(insts, env, args.seconds, tally)
        metrics = end_to_end(insts, samples, refs, setup)
        units = METRICS
    print(f"{'failed_frac':32} {tally['failed'] / tally['attempted']:.6g} ratio "
          f"({tally['failed']} of {tally['attempted']} instances)")
    for name, unit in units.items():
        print(f"{name:32} {metrics[name]:.6g} {unit}")
    result = {"correct": correct and tally["failed"] == 0,
              "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
