"""Command-line front end.

Every subcommand prints key/value pairs: aligned text for humans, or one
key<TAB>value pair per line with --output tsv for scripting.  Exit codes:
0 all checks in their predicted state, 1 a mathematical check failed,
2 usage or configuration error, 3 internal error (the traceback goes to
stderr).  Each command that takes --n refuses q^n above --max-points with
exit 2; the library takes no such bound, only its bulk bounds on memory.

A run builds only its own command's parser, which prints its own help and
errors, 0 and 2 as exit codes, as the full parser (`build_parser`) would:
that hands the arguments after the command to a subparser with the same
flags and prog.  The full parser serves an argv that starts with no
command, and one that leaves arguments over ("unrecognized arguments").

`verify` holds every group as generators, never as an element list: the
classification, the distance-zero and cone checks, and the rank and
subdegrees all come from the automorphism engine's generators and the map
family's generators.
"""

from __future__ import annotations

import argparse
import sys
import traceback

import numpy as np

from .errors import InternalInconsistencyError, TooLargeError
from .field import Field, poly_str
from . import graph as graphmod
from . import orbits as orbitsmod
from . import space, transform
from .graph import Verdict
from .orbits import OrbitalStatus
from .space import SphereClass

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3


class Reporter:
    def __init__(self, mode):
        self.mode = mode
        self.pairs = []

    def emit(self, key, value):
        if isinstance(value, bool):
            value = "yes" if value else "no"
        self.pairs.append((key, str(value)))

    def flush(self):
        if self.mode == "tsv":
            for k, v in self.pairs:
                print(f"{k}\t{v}")
        else:
            width = max((len(k) for k, _ in self.pairs), default=0)
            for k, v in self.pairs:
                print(f"{k:<{width}}  {v}")


class ConfigError(Exception):
    pass


def _parse_modulus(text):
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"modulus must be a comma-separated integer list: {text!r}")


def _build_field(args) -> Field:
    try:
        modulus = _parse_modulus(args.modulus) if args.modulus else None
        return Field(args.p, args.h, modulus)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _common_flags(sub, with_n=True):
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--h", type=int, default=1, help="extension degree")
    if with_n:
        sub.add_argument("--n", type=int, required=True, help="space dimension")
    sub.add_argument("--modulus", type=str, default=None,
                     help="modulus coefficients, constant term first, e.g. 1,0,1")
    if with_n:   # field-info has no q^n to bound
        sub.add_argument("--max-points", type=int,
                         default=space.DEFAULT_MAX_POINTS,
                         help="enumeration bound on q^n")
    sub.add_argument("--output", choices=("text", "tsv"), default="text")


def _validate_common(args, min_n):
    if args.max_points < 1:
        raise ConfigError("--max-points must be >= 1")
    if args.n < min_n:
        raise ConfigError(f"--n must be >= {min_n} for this subcommand")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_field_info(args) -> int:
    field = _build_field(args)
    rep = Reporter(args.output)
    rep.emit("p", field.p)
    rep.emit("h", field.h)
    rep.emit("q", field.q)
    rep.emit("modulus", poly_str(field.modulus))
    squares = np.flatnonzero(field.tables.is_square)
    rep.emit("square_count", squares.size)
    rep.emit("nonsquare_count", field.q - squares.size)
    if field.q <= 128:
        rep.emit("squares", " ".join(map(str, squares.tolist())))
    rep.flush()
    return 0


def cmd_spheres(args) -> int:
    _validate_common(args, min_n=1)
    field = _build_field(args)
    formula = space.sphere_counts_formula(field, args.n)
    space.check_size(field, args.n, args.max_points)
    enumerated = space.sphere_counts_enumerated(field, args.n)
    rep = Reporter(args.output)
    rep.emit("q", field.q)
    rep.emit("n", args.n)
    rep.emit("eps", formula.eps)
    rep.emit("isotropic_formula", formula.isotropic)
    rep.emit("square_formula", formula.square)
    rep.emit("nonsquare_formula", formula.nonsquare)
    rep.emit("isotropic_enumerated", enumerated.isotropic)
    rep.emit("square_enumerated", enumerated.square)
    rep.emit("nonsquare_enumerated", enumerated.nonsquare)
    match = formula == enumerated
    rep.emit("verdict", "MATCH" if match else "MISMATCH")
    rep.flush()
    return 0 if match else CHECK_FAILED


def _orbital_report(rep, field, n):
    statuses = {}
    for cls in (SphereClass.ISOTROPIC, SphereClass.SQUARE, SphereClass.NONSQUARE):
        status = orbitsmod.orbital_connected(field, n, cls)
        statuses[cls] = status
        rep.emit(f"orbital_{cls.value}", status.value)
    return statuses


def cmd_verify(args) -> int:
    _validate_common(args, min_n=2)
    field = _build_field(args)
    n = args.n
    rep = Reporter(args.output)
    rep.emit("q", field.q)
    rep.emit("n", n)
    gates = []

    formula = space.sphere_counts_formula(field, n)
    space.check_size(field, n, args.max_points)
    enumerated = space.sphere_counts_enumerated(field, n)
    sphere_ok = formula == enumerated
    rep.emit("sphere_match", sphere_ok)
    gates.append(sphere_ok)

    # the graph holds the bulk bound, verify's one size limit: refuse before
    # the relation-side work
    g = graphmod.build_integral_graph(field, n)
    if args.corrupt:
        g = graphmod.flip_edge(g, 0, 1)
    report = graphmod.verify_classification(field, n, graph=g)

    morb = orbitsmod.m_orbits(field, n)
    part = orbitsmod.classify_partition(field, n)
    morb_ok = morb.as_sets() == part.as_sets()
    rep.emit("m_orbits_match", morb_ok)
    gates.append(morb_ok)

    statuses = _orbital_report(rep, field, n)
    if n >= 3:
        gates.append(all(s is OrbitalStatus.CONNECTED for s in statuses.values()))

    if args.corrupt:
        rep.emit("corrupted", True)
    rep.emit("aut_order", report.aut_order)
    rep.emit("semiaffine_order", report.semiaffine_order)
    rep.emit("containment", report.containment_ok)
    rep.emit("verdict", report.verdict.value)
    expected = graphmod.expected_verdict(field, n)
    rep.emit("expected_verdict", expected.value)
    gates.append(report.verdict is expected)
    if report.verdict is Verdict.STRICTLY_LARGER:
        rep.emit("aut_to_semiaffine_ratio",
                 f"{report.aut_order}/{report.semiaffine_order}")
        if report.extra_example is not None:
            rep.emit("extra_automorphism",
                     " ".join(map(str, report.extra_example)))

    if report.verdict is not Verdict.VIOLATION:
        # a group preserves a relation iff its generators do
        gens = np.asarray(report.aut_generators, dtype=np.intp).reshape(
            len(report.aut_generators), g.num_vertices)
        zero_failures = int(np.count_nonzero(~transform.zero_iff_preserved(field, n, gens)))
        rep.emit("zero_iff_checked", len(gens))
        rep.emit("zero_iff_failures", zero_failures)

        cone_failures = int(np.count_nonzero(~transform.cones_preserved(field, n, gens)))
        rep.emit("cone_checked", len(gens))
        rep.emit("cone_failures", cone_failures)

        # Aut is transitive, so the engine's generators fixing 0 generate its stabilizer
        if orbitsmod.orbits_under(gens, g.num_vertices).rank != 1:
            raise InternalInconsistencyError("automorphism group is not transitive")
        stab = orbitsmod.orbits_under(gens[gens[:, 0] == 0], g.num_vertices)
        subdegrees = sorted(len(o) for o in stab.orbits if 0 not in o)
        rep.emit("rank", stab.rank)
        rep.emit("subdegrees", " ".join(map(str, subdegrees)))
        if expected is Verdict.EQUAL:
            gates.append(zero_failures == 0 and cone_failures == 0)
        if n >= 3:
            expected_sub = sorted(x for x in (formula.isotropic, formula.square,
                                              formula.nonsquare) if x)
            gates.append(stab.rank == len(expected_sub) + 1
                         and subdegrees == expected_sub)

    ok = all(gates)
    rep.emit("status", "ok" if ok else "fail")
    rep.flush()
    return 0 if ok else CHECK_FAILED


def cmd_recognize(args) -> int:
    _validate_common(args, min_n=1)
    field = _build_field(args)
    n = args.n
    space.check_size(field, n, args.max_points)
    try:
        perm = transform.read_permutation_file(args.perm_file, field.q ** n)
    except (OSError, ValueError) as exc:
        # NotABijectionError is a ValueError: malformed input, not a math failure
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    result = transform.recognize_semiaffine(field, n, perm)
    rep = Reporter(args.output)
    if result is None:
        rep.emit("result", "NOT-SEMIAFFINE")
        rep.flush()
        return CHECK_FAILED
    rep.emit("result", "semiaffine")
    rep.emit("scale", result.scale)
    rep.emit("frob", result.frob)
    rep.emit("matrix", "; ".join(" ".join(map(str, row)) for row in result.matrix))
    rep.emit("shift", " ".join(map(str, result.shift)))
    rep.flush()
    return 0


def cmd_export(args) -> int:
    _validate_common(args, min_n=1)
    field = _build_field(args)
    space.check_size(field, args.n, args.max_points)
    g = graphmod.build_integral_graph(field, args.n)   # or TooLargeError, exit 2
    if args.format == "graph6":
        payload = graphmod.graph6_bytes(g)
    else:
        payload = graphmod.dimacs_text(g).encode("ascii")
    try:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rep = Reporter(args.output)
    rep.emit("format", args.format)
    rep.emit("vertices", g.num_vertices)
    rep.emit("edges", g.num_edges)
    rep.emit("path", args.out)
    rep.flush()
    return 0


def _verify_flags(sub):
    _common_flags(sub)
    sub.add_argument("--corrupt", action="store_true",
                     help="test hook: toggle one adjacency bit before verifying")


def _recognize_flags(sub):
    _common_flags(sub)
    sub.add_argument("--perm-file", required=True, help="permutation file path")


def _export_flags(sub):
    _common_flags(sub)
    sub.add_argument("--format", choices=("graph6", "dimacs"), required=True)
    sub.add_argument("--out", required=True, help="output file path")


# name -> (help, the function that adds its flags, handler), in help order
_COMMANDS = {
    "field-info": ("field parameters and square census",
                   lambda sub: _common_flags(sub, with_n=False), cmd_field_info),
    "spheres": ("norm-class sizes: formula vs enumeration", _common_flags, cmd_spheres),
    "verify": ("full verification suite for one instance", _verify_flags, cmd_verify),
    "recognize": ("decompose a permutation file", _recognize_flags, cmd_recognize),
    "export": ("write the graph in graph6 or DIMACS form", _export_flags, cmd_export),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command, its help and its error messages."""
    parser = argparse.ArgumentParser(
        prog="intaut",
        description="Integral-distance geometry over GF(p^h): sphere counts, "
                    "symmetry groups and their verification.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, handler) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        add_flags(sub)
        sub.set_defaults(func=handler)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The full parser's namespace for argv.  When argv[0] names a command,
    that command's parser reads the rest, printing and exiting as the full
    parser would.  The full parser reads every other argv, and one that the
    command's parser leaves arguments of."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        _, add_flags, handler = _COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"intaut {argv[0]}")
        add_flags(parser)
        parser.set_defaults(command=argv[0], func=handler)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        # InternalInconsistencyError or any other crash: not a failed check
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
