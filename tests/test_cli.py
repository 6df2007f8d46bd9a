import argparse
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import intaut
from intaut import (Field, InternalInconsistencyError, TooLargeError, cli, graph,
                    orbits, space, to_permutation, transform, write_permutation_file)
from intaut import field as fieldmod
from intaut.transform import SemiaffineMap
from oracles import enumerate_orthogonal


def run_cli(*args):
    """`python -m intaut` on the package under test, wherever it is imported
    from."""
    env = dict(os.environ, PYTHONPATH=str(Path(intaut.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "intaut", *args],
                          capture_output=True, text=True, env=env)


def tsv_dict(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        out[key] = value
    return out


# -- field-info ---------------------------------------------------------------

class NoLargeArrays:
    """numpy, except that np.zeros of more than 10^8 entries fails the way
    an allocation beyond the machine's memory does."""

    refused = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        if np.prod(shape, dtype=object) > 10 ** 8:
            self.refused += 1
            raise MemoryError(f"Unable to allocate an array of shape {shape}")
        return np.zeros(shape, dtype=dtype)


def test_field_tables_beyond_memory_exit_2(monkeypatch, capsys):
    """GF(99991) lies beyond the q bound, so its tables are refused before
    any allocation; GF(10007) lies under it, and its failed allocation of
    10007 x 10007 entries is the same refusal.  Either is one error line,
    not a crash."""
    fake = NoLargeArrays()
    monkeypatch.setattr(fieldmod, "np", fake)
    for p, refused in ((99991, 0), (10007, 1)):
        assert cli.main(["spheres", "--p", str(p), "--n", "1"]) == cli.USAGE_ERROR
        assert capsys.readouterr() == (
            "", f"error: the arithmetic tables of GF({p}) do not fit in memory\n")
        assert fake.refused == refused
    f = Field(3, 7)                        # q = 2187: tables of 4.8 M entries
    assert f.tables.add.shape == (2187, 2187) and fake.refused == 1


def test_tables_beyond_the_q_bound_allocate_nothing(monkeypatch):
    """q = 3^10 = 59,049 exceeds 32,767, the largest index int16 holds: the
    refusal comes before any np.zeros call."""
    fake = SquareTables()
    monkeypatch.setattr(fieldmod, "np", fake)
    f = Field(3, 10)
    with pytest.raises(TooLargeError, match=r"^the arithmetic tables of GF\(59049\) "
                                            "do not fit in memory$"):
        f.tables
    assert fake.zeros_calls == 0 and f._tables is None


class SquareTables:
    """numpy, counting the np.zeros calls and recording the shape and dtype
    of every square one of more than one entry, the q x q tables."""

    def __init__(self):
        self.square = []
        self.zeros_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        self.zeros_calls += 1
        if isinstance(shape, tuple) and len(shape) == 2 and shape[0] == shape[1] > 1:
            self.square.append((shape, np.dtype(dtype)))
        return np.zeros(shape, dtype=dtype)


def _clear_bulk_caches():
    # a cached bulk table would skip the table reads of a fresh field
    for cached in (space.point_matrix, space.class_of_pair, space.class_of_point,
                   orbits._m_images):
        cached.cache_clear()


@pytest.mark.parametrize("argv, tables", [
    (["spheres", "--p", "31", "--h", "2", "--n", "2", "--max-points", "923521"],
     [((961, 961), np.int16)]),
    (["field-info", "--p", "31", "--h", "2"], [((961, 961), np.int16)]),
    (["export", "--p", "3", "--n", "3", "--format", "graph6"], [((3, 3), np.int16)]),
    (["verify", "--p", "3", "--n", "3"], [((3, 3), np.int16)]),
    (["recognize", "--p", "3", "--n", "3"], [((3, 3), np.int16)])])
def test_only_commands_that_multiply_build_mul(monkeypatch, tmp_path, argv, tables):
    """No command builds a product table: every command, verify and
    recognize that multiply included, allocates exactly one (q, q) array,
    the int16 add."""
    _clear_bulk_caches()
    fake = SquareTables()
    monkeypatch.setattr(fieldmod, "np", fake)
    if argv[0] == "export":
        argv = argv + ["--out", str(tmp_path / "g.g6")]
    if argv[0] == "recognize":
        write_permutation_file(tmp_path / "id.perm", range(27))
        argv = argv + ["--perm-file", str(tmp_path / "id.perm")]
    assert cli.main(argv) == 0
    assert fake.square == tables


@pytest.mark.parametrize("argv", [
    ["spheres", "--p", "3", "--h", "25", "--n", "1", "--max-points", str(10 ** 15)],
    ["field-info", "--p", "3", "--h", "25"]])
def test_field_tables_beyond_the_address_space_exit_2(argv):
    """GF(3^25) lies far beyond the q bound, and its q x q tables beyond
    numpy's largest array size; that too is a refusal with one error line,
    not a crash."""
    res = run_cli(*argv)
    assert (res.returncode, res.stdout, res.stderr) == (
        2, "", "error: the arithmetic tables of GF(847288609443) do not fit in memory\n")


def test_field_info_prime_field():
    res = run_cli("field-info", "--p", "3", "--h", "1", "--output", "tsv")
    assert res.returncode == 0
    d = tsv_dict(res.stdout)
    assert d["q"] == "3"
    assert d["squares"] == "0 1"


def test_field_info_extension():
    res = run_cli("field-info", "--p", "3", "--h", "2", "--output", "tsv")
    assert res.returncode == 0
    d = tsv_dict(res.stdout)
    assert d["q"] == "9"
    assert d["modulus"] == "x^2 + 1"
    assert d["square_count"] == "5"


def test_field_info_invalid_prime_exits_2():
    res = run_cli("field-info", "--p", "4", "--h", "1")
    assert res.returncode == 2
    assert "prime" in res.stderr


def test_explicit_modulus_accepted():
    res = run_cli("field-info", "--p", "3", "--h", "2", "--modulus", "2,2,1",
                  "--output", "tsv")
    assert res.returncode == 0
    assert tsv_dict(res.stdout)["modulus"] == "x^2 + 2x + 2"


def test_field_info_takes_no_max_points():
    # field-info has no q^n to bound
    res = run_cli("field-info", "--p", "3", "--max-points", "5")
    assert res.returncode == 2
    assert "unrecognized arguments: --max-points 5" in res.stderr


def test_bad_modulus_exits_2():
    res = run_cli("field-info", "--p", "3", "--h", "2", "--modulus", "1,1")
    assert res.returncode == 2


def test_out_of_range_modulus_exits_2(capsys):
    argv = ["spheres", "--p", "3", "--h", "2", "--n", "2", "--modulus", "5,4,4"]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr() == (
        "", "error: modulus coefficients must lie in [0, 3), got (5, 4, 4)\n")


# -- spheres --------------------------------------------------------------------

def test_spheres_27():
    res = run_cli("spheres", "--p", "3", "--h", "1", "--n", "3", "--output", "tsv")
    assert res.returncode == 0
    d = tsv_dict(res.stdout)
    assert (d["isotropic_formula"], d["square_formula"], d["nonsquare_formula"]) \
        == ("8", "6", "12")
    assert d["verdict"] == "MATCH"


def test_spheres_plane():
    res = run_cli("spheres", "--p", "3", "--h", "1", "--n", "2", "--output", "tsv")
    d = tsv_dict(res.stdout)
    assert (d["isotropic_formula"], d["square_formula"], d["nonsquare_formula"]) \
        == ("0", "4", "4")
    assert res.returncode == 0


def test_spheres_q5():
    res = run_cli("spheres", "--p", "5", "--h", "1", "--n", "3", "--output", "tsv")
    assert res.returncode == 0
    assert tsv_dict(res.stdout)["verdict"] == "MATCH"


def test_spheres_deterministic_bytes():
    a = run_cli("spheres", "--p", "7", "--h", "1", "--n", "2", "--output", "tsv")
    b = run_cli("spheres", "--p", "7", "--h", "1", "--n", "2", "--output", "tsv")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# -- verify ----------------------------------------------------------------------

def test_verify_27_all_pass():
    res = run_cli("verify", "--p", "3", "--h", "1", "--n", "3", "--output", "tsv")
    assert res.returncode == 0
    d = tsv_dict(res.stdout)
    assert d["verdict"] == "equal"
    assert d["rank"] == "4"
    assert d["zero_iff_failures"] == "0"
    assert d["cone_failures"] == "0"
    assert d["status"] == "ok"


def test_verify_plane_anomaly_is_predicted_state():
    res = run_cli("verify", "--p", "5", "--h", "1", "--n", "2", "--output", "tsv")
    assert res.returncode == 0
    d = tsv_dict(res.stdout)
    assert d["verdict"] == "strictly-larger"
    assert d["expected_verdict"] == "strictly-larger"
    assert "extra_automorphism" in d
    assert d["status"] == "ok"


# every plane up to 729 points, q = 1 mod 4 with h = 1 and q > 5 included
@pytest.mark.parametrize("p,h", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
                                 (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)])
def test_verify_passes_on_every_plane(p, h, capsys):
    argv = ["verify", "--p", str(p), "--h", str(h), "--n", "2", "--output", "tsv"]
    assert cli.main(argv) == 0
    d = tsv_dict(capsys.readouterr().out)
    assert d["verdict"] == d["expected_verdict"]
    assert d["status"] == "ok"


def test_verify_corrupt_negative_control():
    res = run_cli("verify", "--p", "3", "--h", "1", "--n", "2", "--corrupt",
                  "--output", "tsv")
    assert res.returncode == 1
    d = tsv_dict(res.stdout)
    assert d["verdict"] == "violation"
    assert d["status"] == "fail"


def _fails_its_first_row(check):
    def fake(field, n, perms):
        ok = check(field, n, perms)
        ok[0] = False
        return ok
    return fake


# the batched check that verify calls, by the one-permutation check it batches
BATCHED = {"preserves_cones": "cones_preserved", "satisfies_zero_iff": "zero_iff_preserved"}


@pytest.mark.parametrize("check, key", [("preserves_cones", "cone_failures"),
                                        ("satisfies_zero_iff", "zero_iff_failures")])
@pytest.mark.parametrize("p, expected, failures, status", [
    (13, "equal", "1", "fail"), (5, "strictly-larger", "5", "ok")])
def test_verify_gates_zero_and_cone_checks_when_equal_is_expected(
        monkeypatch, capsys, check, key, p, expected, failures, status):
    """A generator failing the zero-distance or cone check fails status
    whenever the expected verdict is equal, on planes over q = 1 mod 4 from
    13 up as well; on the strictly-larger planes, whose generators already
    fail both checks (verify-25.txt), failures are printed only."""
    batched = BATCHED[check]
    monkeypatch.setattr(transform, batched, _fails_its_first_row(getattr(transform, batched)))
    code = cli.main(["verify", "--p", str(p), "--n", "2", "--output", "tsv"])
    d = tsv_dict(capsys.readouterr().out)
    assert (d["expected_verdict"], d[key], d["status"]) == (expected, failures, status)
    assert code == (cli.CHECK_FAILED if status == "fail" else 0)


@pytest.mark.parametrize("argv", [["--p", "3", "--n", "3"], ["--p", "5", "--n", "2"],
                                  ["--p", "3", "--h", "2", "--n", "2"]])
def test_verify_maps_the_reflections_once(capsys, argv):
    """The classification and the m-orbit check share one batch of
    reflection images, built once per verify; m_generators still checks the
    bulk bound on every call."""
    orbits._m_images.cache_clear()
    assert cli.main(["verify", *argv]) == 0
    assert capsys.readouterr().out.split()[-2:] == ["status", "ok"]
    assert orbits._m_images.cache_info().misses == 1
    field = Field(*map(int, argv[1::2][:-1]))
    assert not orbits._m_images(field, int(argv[-1])).flags.writeable


def test_verify_peak_memory_per_pair(capsys):
    """verify at 3^6 from cleared bulk caches peaks under 12 bytes of numpy
    allocations per pair of points (9.9 measured).  The engine's 8
    generators are checked as one stack, and a stacked check holding one
    N x N block per generator would add 8 bytes per pair."""
    Field(3).tables                       # built before tracing starts
    _clear_bulk_caches()
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--p", "3", "--n", "6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out.split()[-2:] == ["status", "ok"]
    assert peak < 12 * 729 ** 2


def test_verify_rejects_n_one():
    res = run_cli("verify", "--p", "3", "--h", "1", "--n", "1")
    assert res.returncode == 2


def test_verify_deterministic_bytes():
    a = run_cli("verify", "--p", "3", "--h", "1", "--n", "2", "--output", "tsv")
    b = run_cli("verify", "--p", "3", "--h", "1", "--n", "2", "--output", "tsv")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def _intransitive_report(field, n, **_):
    # claims equality but hands over only the identity: the transitivity
    # self-check in cmd_verify must refuse it
    return graph.ClassificationReport(graph.Verdict.EQUAL, 1, 1, True, None, 0,
                                      (tuple(range(field.q ** n)),))


def _inconsistent(*args, **kwargs):
    raise InternalInconsistencyError("boom")


def _crash(*args, **kwargs):
    raise KeyError("boom")


@pytest.mark.parametrize("fake, name", [
    (_inconsistent, "InternalInconsistencyError"), (_crash, "KeyError"),
    (_intransitive_report, "InternalInconsistencyError")])
def test_verify_internal_error_exits_3(monkeypatch, capsys, fake, name):
    monkeypatch.setattr(graph, "verify_classification", fake)
    assert cli.main(["verify", "--p", "3", "--n", "2"]) == cli.INTERNAL_ERROR == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and name in err


def test_verify_refuses_bulk_bound_before_relation_work(monkeypatch, capsys):
    # 3^8 passes --max-points but not the pair class codes' bulk bound
    monkeypatch.setattr(orbits, "m_generators", _crash)
    assert cli.main(["verify", "--p", "3", "--n", "8"]) == cli.USAGE_ERROR
    assert capsys.readouterr() == (
        "", "error: pairwise table with 6561^2 entries exceeds the bulk bound\n")


# -- recognize -------------------------------------------------------------------

def test_recognize_identity(tmp_path):
    path = tmp_path / "id.txt"
    write_permutation_file(path, range(27))
    res = run_cli("recognize", "--p", "3", "--h", "1", "--n", "3",
                  "--perm-file", str(path), "--output", "tsv")
    assert res.returncode == 0
    d = tsv_dict(res.stdout)
    assert d["result"] == "semiaffine"
    assert d["scale"] == "1"
    assert d["frob"] == "0"
    assert d["matrix"] == "1 0 0; 0 1 0; 0 0 1"
    assert d["shift"] == "0 0 0"


def test_recognize_random_map_round_trip(tmp_path):
    f3 = Field(3)
    A = enumerate_orthogonal(f3, 3)[17]
    perm = to_permutation(f3, 3, SemiaffineMap(2, 0, A, (0, 2, 1)))
    path = tmp_path / "m.txt"
    write_permutation_file(path, perm)
    res = run_cli("recognize", "--p", "3", "--h", "1", "--n", "3",
                  "--perm-file", str(path), "--output", "tsv")
    assert res.returncode == 0
    d = tsv_dict(res.stdout)
    assert d["result"] == "semiaffine"
    assert d["shift"] == "0 2 1"


def test_recognize_transposition_not_semiaffine(tmp_path):
    perm = list(range(27))
    perm[4], perm[9] = perm[9], perm[4]
    path = tmp_path / "swap.txt"
    write_permutation_file(path, perm)
    res = run_cli("recognize", "--p", "3", "--h", "1", "--n", "3",
                  "--perm-file", str(path), "--output", "tsv")
    assert res.returncode == 1
    assert tsv_dict(res.stdout)["result"] == "NOT-SEMIAFFINE"


def test_recognize_repeated_image_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(" ".join(["0"] + [str(i) for i in range(26)]) + "\n")
    res = run_cli("recognize", "--p", "3", "--h", "1", "--n", "3",
                  "--perm-file", str(path))
    assert res.returncode == 2


@pytest.mark.parametrize("token", ["+8", "0_8", "\u0668"])   # the last: Arabic-Indic 8
def test_recognize_refuses_non_ascii_digit_tokens(token, tmp_path, capsys):
    path = tmp_path / "perm.txt"
    path.write_text(" ".join([*map(str, range(8)), token]) + "\n", encoding="utf-8")
    code = cli.main(["recognize", "--p", "3", "--n", "2", "--perm-file", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.USAGE_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(token) in err


@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x1c"])
def test_recognize_splits_only_at_ascii_whitespace(space, tmp_path, capsys):
    """With the space between 0 and 1 not ASCII whitespace, "0<space>1" is
    one malformed token, not the first two images of the identity."""
    path = tmp_path / "perm.txt"
    path.write_text("0" + space + "1 2 3 4 5 6 7 8\n", encoding="utf-8")
    code = cli.main(["recognize", "--p", "3", "--n", "2", "--perm-file", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.USAGE_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr("0" + space + "1") in err


def test_recognize_missing_file_exits_2():
    res = run_cli("recognize", "--p", "3", "--h", "1", "--n", "3",
                  "--perm-file", "/nonexistent/x.txt")
    assert res.returncode == 2


def test_recognize_checks_the_size_before_the_file(tmp_path, capsys):
    """Over --max-points the size refuses the instance before the q^n
    entries of the permutation file are read, so a missing file is not
    reported."""
    missing = tmp_path / "missing.perm"
    code = cli.main(["recognize", "--p", "3", "--n", "3", "--perm-file", str(missing),
                     "--max-points", "10"])
    assert (code, *capsys.readouterr()) == (
        cli.USAGE_ERROR, "", "error: q^n = 27 exceeds the enumeration bound 10\n")


# -- export ----------------------------------------------------------------------

def test_export_dimacs_header(tmp_path):
    out = tmp_path / "g.dimacs"
    res = run_cli("export", "--p", "3", "--h", "1", "--n", "2",
                  "--format", "dimacs", "--out", str(out))
    assert res.returncode == 0
    assert out.read_text().startswith("p edge 9 18\n")


def test_export_graph6_round_trip(tmp_path):
    from intaut import build_integral_graph, parse_graph6
    out = tmp_path / "g.g6"
    res = run_cli("export", "--p", "3", "--h", "1", "--n", "3",
                  "--format", "graph6", "--out", str(out))
    assert res.returncode == 0
    adj = parse_graph6(out.read_bytes())
    expected = build_integral_graph(Field(3), 3).adjacency
    assert (adj == expected).all()


def test_export_to_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "g.g6"
    res = run_cli("export", "--p", "3", "--h", "1", "--n", "2",
                  "--format", "graph6", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert str(out) in res.stderr
    assert not out.parent.exists()


def test_export_too_large_exits_2(tmp_path):
    out = tmp_path / "g.g6"
    res = run_cli("export", "--p", "3", "--h", "1", "--n", "3",
                  "--format", "graph6", "--out", str(out), "--max-points", "5")
    assert res.returncode == 2


def test_export_over_the_bulk_bound_exits_2(tmp_path, capsys):
    """2,187 points lie under --max-points but their pair table over the
    bulk bound: main reports the refusal and writes no file."""
    out = tmp_path / "g.g6"
    code = cli.main(["export", "--p", "3", "--n", "7", "--format", "graph6",
                     "--out", str(out)])
    assert (code, *capsys.readouterr()) == (
        cli.USAGE_ERROR, "",
        "error: pairwise table with 2187^2 entries exceeds the bulk bound\n")
    assert not out.exists()


@pytest.mark.parametrize("n", [9000, 10 ** 4, 10 ** 9])
@pytest.mark.parametrize("command", ["spheres", "verify", "recognize", "export"])
def test_a_very_large_n_is_refused_at_once(command, n, tmp_path, capsys):
    """q^n is not built past --max-points.  The message gives it in full
    while Python prints it (3^9000 has 4,295 digits, under the default
    limit of 4,300) and as a power beyond."""
    files = {"recognize": ["--perm-file", str(tmp_path / "missing.perm")],
             "export": ["--format", "dimacs", "--out", str(tmp_path / "g.dimacs")]}
    start = time.perf_counter()
    code = cli.main([command, "--p", "3", "--n", str(n), *files.get(command, [])])
    elapsed = time.perf_counter() - start
    shown = 3 ** n if n == 9000 else f"3^{n}"
    assert (code, *capsys.readouterr()) == (
        cli.USAGE_ERROR, "", f"error: q^n = {shown} exceeds the enumeration bound 100000\n")
    assert elapsed < 1


# -- argument parsing --------------------------------------------------------------

# every command, --p=3, the abbreviations --max and --corr, repeated flags
# and --output tsv
VALID_ARGVS = [
    ["field-info", "--p", "3"],
    ["field-info", "--p=3", "--h", "2", "--modulus", "2,2,1", "--output", "tsv"],
    ["spheres", "--p", "3", "--n", "3", "--max", "10"],
    ["spheres", "--p=3", "--n", "2", "--max-points", "10", "--p", "5"],
    ["verify", "--p", "3", "--n", "3", "--corr"],
    ["verify", "--p", "5", "--n", "2", "--output", "tsv", "--output", "text"],
    ["recognize", "--n", "2", "--p", "3", "--perm-file", "perm.txt"],
    ["export", "--p", "3", "--n", "2", "--format", "dimacs", "--out", "g.dimacs",
     "--output", "tsv"],
]

# help, abbreviated help, missing and bad flag values, an unknown command and
# stray arguments; "-h x" is a flag to the full parser and --m is ambiguous.
# The command's parser reports a flag fault itself, the full parser an argv
# with no command or with arguments left over.
OTHER_ARGVS = [
    [], ["--help"], ["-h"], ["verify", "-h"], ["verify", "--he"],
    ["verify", "--p", "3"], ["verify", "--p", "x", "--n", "3"],
    ["verify", "--p", "3", "--n", "3", "--output", "csv"],
    ["field-info", "--p", "3", "--max-points", "5"], ["bogus"],
    ["verify", "--p", "3", "--n", "3", "extra"],
    ["verify", "--p", "3", "--n", "3", "--modulus", "-h x"],
    ["verify", "--p", "3", "--n", "3", "--m", "4"],
    ["verify", "--p", "3", "--n", "3", "--corrupt=x"],
    ["export", "--p", "3", "--n", "2", "--format", "xml", "--out", "g.xml"],
    ["recognize", "--p", "3", "--n", "2"],
    ["verify", "--p", "3", "--n", "3", "--modulus"],
    ["spheres", "--n", "3"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS)
def test_parse_args_matches_the_full_parser(argv):
    assert vars(cli.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", OTHER_ARGVS)
def test_other_argvs_get_the_full_parsers_output(argv, capsys):
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as run:
        cli.main(argv)
    assert (run.value.code, capsys.readouterr()) == (full.value.code, expected)


def test_a_run_builds_only_its_commands_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["verify", "--p", "3", "--n", "2"]) == 0
    assert built == ["intaut verify"]
    assert capsys.readouterr().out.split()[-2:] == ["status", "ok"]
    built.clear()
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "--p", "x", "--n", "3"])     # a bad flag value
    assert exit_.value.code == 2
    assert built == ["intaut verify"]
    assert "intaut verify: error: argument --p" in capsys.readouterr().err
    built.clear()
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    assert built == ["intaut", "intaut field-info", "intaut spheres", "intaut verify",
                     "intaut recognize", "intaut export"]


def test_import_intaut_loads_no_argument_parser():
    env = dict(os.environ, PYTHONPATH=str(Path(intaut.__file__).resolve().parents[1]))
    code = "import sys, intaut; print(sorted({'argparse', 'intaut.cli'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env)
    assert (res.returncode, res.stdout) == (0, "[]\n")
