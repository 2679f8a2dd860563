"""Command-line interface: subcommands, golden outputs, determinism,
round-trips, and failure exit codes."""

import io
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from arrmono import ParseError, laurent_ring, poly_ring
from arrmono.cli import main
from arrmono.serialize import extract_matrix
from conftest import (
    DELTA0,
    DELTA1,
    FIXTURES,
    MU0,
    MU1,
    OMEGA1,
    OMEGA2,
    OMEGABAR_NONRES,
    OMEGABAR_RES,
    PHI1,
    PHI2,
    PHIBAR_NONRES,
    PHIBAR_RES,
    mat,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
L = laurent_ring(4)
R = poly_ring(4)

ARGS = {
    "-a": str(FIXTURES / "pencil4.arr"),
    "-p": str(FIXTURES / "pencil4.pres"),
    "-e": str(FIXTURES / "pencil4_twist12.endo"),
    "-c": str(FIXTURES / "pencil4_twist12.cert"),
    "xi1": str(FIXTURES / "pencil4_proj_nonres.txt"),
    "xi2": str(FIXTURES / "pencil4_proj_res.txt"),
}


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def structured(*argv) -> tuple[int, str]:
    return run_cli(*argv, "--format", "structured")


@pytest.mark.parametrize("name,argv", [
    ("info", ("info", "-a", ARGS["-a"])),
    ("fox", ("fox", "-p", ARGS["-p"])),
    ("aomoto", ("aomoto", "-a", ARGS["-a"])),
    ("connection", ("connection", "-a", ARGS["-a"], "-p", ARGS["-p"],
                    "-e", ARGS["-e"], "-c", ARGS["-c"])),
    ("induced", ("induced", "-a", ARGS["-a"], "-p", ARGS["-p"], "-e", ARGS["-e"],
                 "-c", ARGS["-c"], "--xi", ARGS["xi1"], "--xi", ARGS["xi2"])),
    ("verify", ("verify", "-a", ARGS["-a"], "-p", ARGS["-p"], "-e", ARGS["-e"],
                "-c", ARGS["-c"], "--xi", ARGS["xi1"], "--xi", ARGS["xi2"])),
    # The non-canonical fallback: its numerator, denominator (with its sign)
    # and kernel dimension come from the symbolic solve alone.
    ("monodromy_fallback", ("monodromy", "-p", ARGS["-p"], "-e", ARGS["-e"],
                            "--fallback-solve")),
])
def test_golden_outputs_byte_for_byte(name, argv):
    code, out = structured(*argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


_PEC = ("-p", ARGS["-p"], "-e", ARGS["-e"], "-c", ARGS["-c"])
_XI = ("--xi", ARGS["xi1"], "--xi", ARGS["xi2"])
BATTERY = {
    "info": ("info", "-a", ARGS["-a"]),
    "aomoto": ("aomoto", "-a", ARGS["-a"]),
    "fox": ("fox", "-p", ARGS["-p"]),
    "monodromy": ("monodromy",) + _PEC,
    "connection": ("connection", "-a", ARGS["-a"]) + _PEC,
    "connection-at": ("connection", "-a", ARGS["-a"]) + _PEC
    + ("--at", "2,3,1/6,1", "--ring", "x"),
    "specialize-x": ("specialize", "-p", ARGS["-p"], "--ring", "x", "--at", "2,2,2,2"),
    "specialize-y": ("specialize", "-a", ARGS["-a"], "--ring", "y", "--at", "0,0,0,0"),
    "induced": ("induced", "-a", ARGS["-a"]) + _PEC + _XI,
    "verify": ("verify", "-a", ARGS["-a"]) + _PEC + _XI,
}
STAGES = ("load_arrangement", "load_presentation", "load_endomorphism", "load_certificate",
          "load_projection", "compute_dependencies", "nbc_basis", "aomoto_boundary",
          "universal_complex", "phi1", "phi2_from_certificate", "formal_connection")


@pytest.mark.parametrize("name", list(BATTERY))
def test_golden_battery_runs_each_stage_once(name, monkeypatch):
    """Each stage of a job runs at most once (load_projection once per
    --xi), under the name cli calls or the same name in the module that
    would otherwise build it, and D1 is built once if at all."""
    import arrmono.cli as cli
    import arrmono.fox as fox
    import arrmono.oscomplex as oscomplex

    calls = dict.fromkeys(STAGES + ("_boundaries",), 0)

    def counted(stage, orig):
        def wrapper(*args, **kwargs):
            calls[stage] += 1
            return orig(*args, **kwargs)
        return wrapper

    for stage in STAGES:
        wrapper = counted(stage, getattr(cli, stage))
        for module in (cli, fox, oscomplex):
            if hasattr(module, stage):
                monkeypatch.setattr(module, stage, wrapper)
    monkeypatch.setattr(fox, "_boundaries", counted("_boundaries", fox._boundaries))
    argv = BATTERY[name]
    code, _ = structured(*argv)
    assert code == 0
    assert calls.pop("load_projection") == argv.count("--xi")
    assert calls.pop("_boundaries") == ("-p" in argv)
    assert all(n <= 1 for n in calls.values()), calls


def test_golden_verify_proves_each_connection_fact_once(monkeypatch):
    """verify reads the abelianization off phi1 and Phi_q(1) = I off
    formal_connection, and the gauge system reads Omega's terms directly:
    Omega_q is split into coefficient matrices by formal_connection (three
    degrees) and eigen_linear_forms (Omega_1, Omega_2 and the two induced
    maps) alone."""
    import arrmono.cli as cli
    import arrmono.connection as connection
    from arrmono.fox import Endomorphism

    calls = {"linear_coefficients": 0, "preserves_abelianization": 0, "evaluate_matrix": 0}

    def counted(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(connection, "linear_coefficients",
                        counted("linear_coefficients", connection.linear_coefficients))
    monkeypatch.setattr(Endomorphism, "preserves_abelianization",
                        counted("preserves_abelianization",
                                Endomorphism.preserves_abelianization))
    monkeypatch.setattr(cli, "evaluate_matrix", counted("evaluate_matrix", cli.evaluate_matrix))
    code, out = structured(*BATTERY["verify"])
    assert code == 0
    assert out == (GOLDEN / "verify.txt").read_text()
    assert calls == {"linear_coefficients": 7, "preserves_abelianization": 1,
                     "evaluate_matrix": 0}


def test_verify_reads_the_connection_before_reporting_identity_at_one(tmp_path):
    """A valid certificate whose Phi_2 is not the identity at x = 1: the
    presentation repeats [g1, g2], and the certificate writes relators 1
    and 2 both as relator 2.  formal_connection raises before any line
    could report monodromy.identity_at_one_deg2 as passed."""
    files = {
        "b3.arr": "dim 3\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
        "z3.pres": "generators 3\n[g1, g2]\n[g1, g2]\n[g2, g3]\n",
        "id.endo": "g1\ng2\ng3\n",
        "twice.cert": ("relator 1\n( 1 , 2 , +1 )\nrelator 2\n( 1 , 2 , +1 )\n"
                       "relator 3\n( 1 , 3 , +1 )\n"),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("verify", "-a", str(tmp_path / "b3.arr"),
                            "-p", str(tmp_path / "z3.pres"), "-e", str(tmp_path / "id.endo"),
                            "-c", str(tmp_path / "twice.cert"))
    assert code == 1 and out == ""
    assert err.getvalue().startswith("NotIdentityAtOne")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", list(BATTERY))
def test_golden_battery_multiplies_each_complex_out_once(name, monkeypatch):
    """d_q * d_{q+1} is multiplied out exactly once for every complex a job
    builds, whether over Q[y], the Laurent ring or Q at a point."""
    from arrmono import RingComplex, RingMatrix

    built, products = [], {}
    post_init, mul = RingComplex.__post_init__, RingMatrix.__mul__

    def recording_post_init(self):
        built.append(self)
        post_init(self)

    def counting_mul(self, other):
        key = (id(self), id(other))
        products[key] = products.get(key, 0) + 1
        return mul(self, other)

    monkeypatch.setattr(RingComplex, "__post_init__", recording_post_init)
    monkeypatch.setattr(RingMatrix, "__mul__", counting_mul)
    code, _ = structured(*BATTERY[name])
    assert code == 0
    assert built or name == "info"
    counts = [products.get((id(d), id(e)), 0)
              for cx in built for d, e in zip(cx.boundaries, cx.boundaries[1:])]
    assert counts == [1] * len(counts), counts


def test_repeated_main_calls_share_no_state():
    """The parser is built once per process; a second job sees only its own
    arguments."""
    from arrmono.cli import build_parser
    assert build_parser() is build_parser()
    code, first = structured(*BATTERY["verify"])
    assert code == 0 and "projection1.verified" in first
    code, second = structured(*BATTERY["verify"][:-2])
    assert code == 0 and "projection0.verified" in second
    assert "projection1" not in second


def test_golden_matrices_carry_the_displayed_values():
    """The goldens are not self-fulfilling: parse them back and compare with
    matrices keyed in directly from the published displays."""
    fox = (GOLDEN / "fox.txt").read_text()
    assert extract_matrix(fox, "Delta0") == mat(L, DELTA0)
    assert extract_matrix(fox, "Delta1") == mat(L, DELTA1)
    aomoto = (GOLDEN / "aomoto.txt").read_text()
    assert extract_matrix(aomoto, "mu0") == mat(R, MU0)
    assert extract_matrix(aomoto, "mu1") == mat(R, MU1)
    conn = (GOLDEN / "connection.txt").read_text()
    assert extract_matrix(conn, "Phi1") == mat(L, PHI1)
    assert extract_matrix(conn, "Phi2") == mat(L, PHI2)
    assert extract_matrix(conn, "Omega1") == mat(R, OMEGA1)
    assert extract_matrix(conn, "Omega2") == mat(R, OMEGA2)
    induced = (GOLDEN / "induced.txt").read_text()
    assert extract_matrix(induced, "PhiBar0") == mat(L, PHIBAR_NONRES)
    assert extract_matrix(induced, "OmegaBar0") == mat(R, OMEGABAR_NONRES)
    assert extract_matrix(induced, "PhiBar1") == mat(L, PHIBAR_RES)
    assert extract_matrix(induced, "OmegaBar1") == mat(R, OMEGABAR_RES)


def test_every_emitted_matrix_reparses_to_equal_lines():
    """Round-trip: each matrix block in each golden report parses back and
    re-serializes to the identical bytes."""
    from arrmono.serialize import matrix_lines, parse_matrix_block
    for path in sorted(GOLDEN.glob("*.txt")):
        lines = path.read_text().splitlines()
        i = 0
        blocks = 0
        while i < len(lines):
            if lines[i].startswith("matrix "):
                j = lines.index("endmatrix", i)
                name, m = parse_matrix_block(lines[i:j + 1])
                assert matrix_lines(name, m) == lines[i:j + 1]
                blocks += 1
                i = j + 1
            else:
                i += 1
        if path.name in ("fox.txt", "aomoto.txt", "connection.txt", "induced.txt"):
            assert blocks > 0


def test_projection_upsilon_defaults_to_linear_part(tmp_path):
    from arrmono import parse_projection
    text = (FIXTURES / "pencil4_proj_nonres.txt").read_text()
    head, _, _ = text.partition("\nupsilon\n")
    derived = parse_projection(head)
    explicit = parse_projection(text)
    assert derived.upsilon == explicit.upsilon


def test_structured_output_is_deterministic():
    argv = ("connection", "-p", ARGS["-p"], "-e", ARGS["-e"], "-c", ARGS["-c"])
    assert structured(*argv) == structured(*argv)


def test_specialize_trivial_point():
    code, out = run_cli("specialize", "-p", ARGS["-p"], "--ring", "x", "--at", "1,1,1,1")
    assert code == 0
    assert "betti: 1,4,5" in out and "verdict: trivial" in out


def test_specialize_nonresonant_point():
    code, out = run_cli("specialize", "-p", ARGS["-p"], "--ring", "x", "--at", "2,2,2,2")
    assert code == 0
    assert "betti: 0,0,2" in out and "verdict: non-resonant" in out
    assert "top_matches_euler: True" in out


def test_specialize_resonant_point():
    code, out = run_cli("specialize", "-p", ARGS["-p"], "--ring", "x", "--at", "2,3,1/6,1")
    assert code == 0
    assert "betti: 0,1,3" in out and "verdict: resonant" in out


def test_specialize_aomoto_side():
    code, out = run_cli("specialize", "-a", ARGS["-a"], "--ring", "y", "--at", "0,0,0,0")
    assert code == 0
    assert "betti: 1,4,5" in out


@pytest.mark.parametrize("argv", [
    ("specialize", "-p", ARGS["-p"], "--ring", "x"),
    ("specialize", "-a", ARGS["-a"], "--ring", "y"),
    ("connection",) + _PEC + ("--ring", "x"),
])
@pytest.mark.parametrize("at", ["2,,2,2,2", "2,2,2,2,", ",2,2,2,2", "2, ,2,2,2", ",,,,"])
def test_point_with_an_empty_coordinate_is_a_parse_error(argv, at):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv, f"--at={at}")
    assert code == 2 and out == ""
    assert err.getvalue().startswith("parse error: empty coordinate")


@pytest.mark.parametrize("argv", [
    ("connection", "-a", ARGS["-a"]) + _PEC + ("--at=2,,2,2,2",),
    ("specialize", "-p", ARGS["-p"], "--at", "2,,2,2,2"),
    ("specialize", "-a", ARGS["-a"], "--ring", "y", "--at", "2,,2"),
])
def test_malformed_point_fails_before_any_complex_is_built(argv, monkeypatch):
    import arrmono.cli as cli

    def unexpected(*args):
        raise AssertionError("built before --at was parsed")

    for name in ("universal_complex", "aomoto_boundary", "phi2_from_certificate"):
        monkeypatch.setattr(cli, name, unexpected)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.getvalue().startswith("parse error: empty coordinate")


def test_an_over_limit_arrangement_fails_before_any_connection_work(tmp_path, monkeypatch):
    """Boolean 93 is past the subset limit of the dependency scan through
    degree 2 (C(93, 2) + C(93, 3) = 134,044 subsets), which the mu stage
    checks before Phi is built."""
    import arrmono.cli as cli

    def unexpected(*args):
        raise AssertionError("Phi built before the arrangement was checked")

    monkeypatch.setattr(cli, "phi2_from_certificate", unexpected)
    path = tmp_path / "boolean93.arr"
    path.write_text("dim 93\n" + "".join("0" + " 0" * k + " 1" + " 0" * (92 - k) + "\n"
                                         for k in range(93)))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("connection", "-a", str(path), "-p", ARGS["-p"], "-e", ARGS["-e"],
                            "-c", ARGS["-c"])
    assert code == 2 and out == ""
    assert err.getvalue() == ("parse error: 93 hyperplanes in dimension 93 need a dependency "
                              "scan of more than 131072 subsets\n")


def test_empty_certificate_words_count_against_the_letter_budget(tmp_path, monkeypatch):
    """A certificate term ( , k , +-1 ) holds an empty word, which costs one
    letter, so the letter budget also bounds the term count: 60 such terms
    in pencil4's relator 1 block pass a budget of 50."""
    import arrmono.fox as fox

    monkeypatch.setattr(fox, "MAX_LETTERS", 50)
    path = tmp_path / "empty_terms.cert"
    path.write_text(Path(ARGS["-c"]).read_text().replace(
        "relator 1\n", "relator 1\n" + "( , 1 , +1 )\n" * 60, 1))
    with pytest.raises(ParseError, match="expands to more than 50 letters"):
        fox.load_certificate(path, fox.load_presentation(ARGS["-p"]))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("monodromy", "-p", ARGS["-p"], "-e", ARGS["-e"], "-c", str(path))
    assert code == 2 and out == ""
    assert err.getvalue().startswith("parse error: text expands to more than 50 letters")
    assert "Traceback" not in err.getvalue()


def test_certificate_parse_stops_at_the_first_term_past_the_letter_budget(monkeypatch):
    """Every word costs at least one letter, so the term line after the
    MAX_LETTERS-th ends the parse before any word is read: a malformed line
    right after it is never reached, and parse_words is never called.  At
    exactly MAX_LETTERS term lines the parse goes on to the words, whose
    letters pass the budget there."""
    import arrmono.fox as fox

    pres = fox.load_presentation(ARGS["-p"])
    monkeypatch.setattr(fox, "MAX_LETTERS", 20)
    calls = []
    parse_words = fox.parse_words

    def counted(texts, ngens):
        calls.append(len(texts))
        return parse_words(texts, ngens)

    monkeypatch.setattr(fox, "parse_words", counted)
    text = Path(ARGS["-c"]).read_text()
    terms = sum(1 for ln in text.splitlines() if ln.startswith("("))
    assert terms < 20
    past = text + "( , 1 , +1 )\n" * (21 - terms) + "not a term\n"
    with pytest.raises(ParseError, match="expands to more than 20 letters"):
        fox.parse_certificate(past, pres)
    assert calls == []
    with pytest.raises(ParseError, match="expands to more than 20 letters"):
        fox.parse_certificate(text + "( , 1 , +1 )\n" * (20 - terms), pres)
    assert calls == [20]


def test_point_without_coordinates_is_a_comma(tmp_path):
    path = tmp_path / "free0.pres"
    path.write_text("generators 0\n")
    code, out = run_cli("specialize", "-p", str(path), "--ring", "x", "--at=,")
    assert code == 0 and "betti: 1,0,0" in out


@pytest.fixture
def pole_inputs(tmp_path):
    """The presentation <g1, g2 | g1^-1 g2 g1 g2^-1> with the inner
    automorphism by g1^-1, whose Phi1 has the entry x1^-1 * (x2 - 1)."""
    files = {"pole.pres": "generators 2\ng1^-1 g2 g1 g2^-1\n",
             "pole.endo": "g1\ng1^-1 g2 g1\n",
             "pole.cert": "relator 1\n( g1^-1 , 1 , +1 )\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return ("-p", str(tmp_path / "pole.pres"), "-e", str(tmp_path / "pole.endo"),
            "-c", str(tmp_path / "pole.cert"), "--ring", "x")


@pytest.mark.parametrize("command", ["specialize", "connection"])
def test_point_at_a_pole_is_a_parse_error(pole_inputs, command):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(command, *pole_inputs, "--at", "0,1")
    assert code == 2 and out == ""
    assert err.getvalue() == "parse error: --at 0,1: x1 = 0 is a pole (exponent -1)\n"


def test_a_pole_behind_a_vanishing_factor_is_a_parse_error(tmp_path):
    """The Fox derivative of g1 g2^-1 g1 g2 g1^-1 g1^-1 by g2 has the term
    -x1 * x2^-1, whose x1 = 0 hides the pole x2 = 0 from a reading that
    stops at the first zero coordinate."""
    path = tmp_path / "hidden.pres"
    path.write_text("generators 2\ng1 g2^-1 g1 g2 g1^-1 g1^-1\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("specialize", "-p", str(path), "--ring", "x", "--at", "0,0")
    assert code == 2 and out == ""
    assert err.getvalue() == "parse error: --at 0,0: x2 = 0 is a pole (exponent -1)\n"


def test_point_off_the_poles_keeps_its_report(pole_inputs):
    code, out = structured("specialize", *pole_inputs, "--at", "1,0")
    assert code == 0
    assert out == ("arrmono-report v1\nsection specialize\nkv ring x\nkv at 1,0\n"
                   "kv betti 0,0,0\nkv euler 0\nkv verdict non-resonant\n"
                   "kv top_matches_euler True\n")
    code, out = structured("connection", *pole_inputs, "--at", "1,0")
    assert code == 0
    assert out.endswith("kv at 1,0\n"
                        "matrix Phi1_at ring=rational rows=2 cols=2\n"
                        'row ["1","-1"]\nrow ["0","1"]\nendmatrix\n'
                        "matrix Phi2_at ring=rational rows=1 cols=1\n"
                        'row ["1"]\nendmatrix\n')


def test_a_long_power_relator_specializes_in_seconds(tmp_path):
    """The Fox derivatives of g1^32000 g2 g1^-32000 g2^-1 hold 64,000
    terms with every power of x1 up to 31,999; evaluate_matrix builds each
    power of 3 once, from the one before it."""
    path = tmp_path / "long.pres"
    path.write_text("generators 2\ng1^32000 g2 g1^-32000 g2^-1\n")
    start = time.perf_counter()
    code, out = structured("specialize", "-p", str(path), "--at", "3,5")
    assert time.perf_counter() - start < 3
    assert code == 0
    assert out == ("arrmono-report v1\nsection specialize\nkv ring x\nkv at 3,5\n"
                   "kv betti 0,0,0\nkv euler 0\nkv verdict non-resonant\n"
                   "kv top_matches_euler True\n")


def test_info_on_boolean_17_runs_in_seconds(tmp_path):
    """Boolean 17 is the largest Boolean arrangement the dependency limit
    admits: 131,054 subsets, every one independent and meeting.  The walk
    reduces one unit row per subset and takes no elimination step, and its
    nbc sets are all 2^17 subsets."""
    path = tmp_path / "boolean17.arr"
    path.write_text("dim 17\n" + "".join("0" + " 0" * k + " 1" + " 0" * (16 - k) + "\n"
                                         for k in range(17)))
    start = time.perf_counter()
    code, out = structured("info", "-a", str(path))
    assert time.perf_counter() - start < 5
    assert code == 0
    assert "kv circuits -\nkv empty_min -\nkv broken_circuits -\n" in out
    betti = [1]
    for q in range(17):
        betti.append(betti[-1] * (17 - q) // (q + 1))
    assert f"kv betti {','.join(map(str, betti))}\n" in out


def test_verify_exit_zero_and_all_pass():
    code, out = run_cli("verify", "-a", ARGS["-a"], "-p", ARGS["-p"],
                        "-e", ARGS["-e"], "-c", ARGS["-c"],
                        "--xi", ARGS["xi1"], "--xi", ARGS["xi2"])
    assert code == 0
    assert "FAIL" not in out
    assert out.count("[pass]") >= 15


def test_verify_fails_on_corrupted_certificate(tmp_path):
    bad = tmp_path / "bad.cert"
    text = (FIXTURES / "pencil4_twist12.cert").read_text()
    bad.write_text(text.replace("( 1 , 2 , -1 )", "( 1 , 2 , +1 )"))
    code, out = run_cli("verify", "-a", ARGS["-a"], "-p", ARGS["-p"],
                        "-e", ARGS["-e"], "-c", str(bad))
    assert code == 1


def test_missing_required_inputs():
    code, _ = run_cli("fox")
    assert code == 2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.arr"
    bad.write_text("dim q\n")
    code, _ = run_cli("info", "-a", str(bad))
    assert code == 2


@pytest.mark.parametrize("flag", ["-a", "-p", "-e", "-c", "xi1"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, flag):
    """Each of the five file flags, in turn, names bytes that are not UTF-8
    in a run whose other inputs are valid."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"dim 2\n\xff\xfe\n")
    args = dict(ARGS, **{flag: str(bad)})
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("induced", "-a", args["-a"], "-p", args["-p"], "-e", args["-e"],
                          "-c", args["-c"], "--xi", args["xi1"])
    assert code == 2
    assert err.getvalue().startswith("parse error") and "byte offset 6" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_a_file_past_the_input_limit_is_a_parse_error(tmp_path, monkeypatch):
    """A file of exactly MAX_INPUT_BYTES parses, one byte more is refused
    with exit 2, and an endless file is refused after limit + 1 bytes."""
    from arrmono import rings
    text = (FIXTURES / "pencil4.arr").read_bytes()
    monkeypatch.setattr(rings, "MAX_INPUT_BYTES", len(text))
    assert run_cli("info", "-a", ARGS["-a"])[0] == 0
    long = tmp_path / "long.arr"
    long.write_bytes(text + b"\n")
    endless = ["/dev/zero"] if Path("/dev/zero").exists() else []
    for path in [str(long), *endless]:
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("info", "-a", path)
        assert code == 2 and out == ""
        assert err.getvalue().startswith("parse error")
        assert f"longer than {len(text)} bytes" in err.getvalue()
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("subcommand", ["info", "aomoto"])
def test_negative_dimension_is_a_parse_error(tmp_path, subcommand):
    bad = tmp_path / "neg.arr"
    bad.write_text("dim -1\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(subcommand, "-a", str(bad))
    assert code == 2
    assert err.getvalue().startswith("parse error") and "dimension" in err.getvalue()
    assert "betti" not in out


def test_negative_generator_count_is_a_parse_error(tmp_path):
    bad = tmp_path / "neg.pres"
    bad.write_text("generators -1\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("fox", "-p", str(bad))
    assert code == 2
    assert err.getvalue().startswith("parse error") and "generator count" in err.getvalue()
    assert "Delta0" not in out


def _run_bounded(*argv) -> tuple[int, str, float]:
    """main in a child process with 1 GiB of address space and a 10 s
    timeout, so an input that a size limit misses cannot exhaust the
    machine: (exit code, stderr, seconds spent in main)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = ("import sys, time; from arrmono.cli import main; t = time.perf_counter(); "
            "c = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(c)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=10, preexec_fn=limit)
    return proc.returncode, proc.stderr, float(proc.stdout.split()[-1])


_PROJ = (FIXTURES / "pencil4_proj_res.txt").read_text()
# Past the dependency scan limit: C(24, 2) + ... + C(24, 24) and
# C(1024, 2) + C(1024, 3) subsets.
_BOOLEAN24 = "dim 24\n" + "".join("0" + " 0" * k + " 1" + " 0" * (23 - k) + "\n"
                                  for k in range(24))
_rng = random.Random(1024)
_LINES1024 = "dim 2\n" + "".join(f"{_rng.randint(-99, 99)} {_rng.randint(1, 99)} "
                                 f"{_rng.randint(-99, 99)}\n" for _ in range(1024))
_INDUCED = ("induced", "-a", ARGS["-a"]) + _PEC + ("--xi",)


# Every hostile input whose file is the last argument: oversized counts, an
# exponent-notation number, too many hyperplanes, nesting past the recursion
# limit, digit strings past int()'s limit and a line that a backtracking
# regular expression would take quadratic time over.
@pytest.mark.parametrize("text,argv", [
    ("generators 100000000\n", ("fox", "-p")),
    (_PROJ.replace("nvars 4", "nvars 100000000"), _INDUCED),
    ("dim 100000000\n", ("info", "-a")),
    ("dim 2\n0 1 0\n0 0 1\n1e999999999 1 1\n", ("info", "-a")),
    ((FIXTURES / "pencil4.pres").read_text(),
     ("specialize", "--ring", "x", "--at=1e999999999,1,1,1", "-p")),
    ("dim 1\n" + "".join(f"{k} 1\n" for k in range(1025)), ("info", "-a")),
    ("generators 2\n" + "[" * 3000 + "g1, g2" + "]" * 3000 + "\n", ("fox", "-p")),
    (_BOOLEAN24, ("info", "-a")),
    (_LINES1024, ("info", "-a")),
    (_PROJ.replace("x1*x2 - 1,", "(" * 3000 + "x1*x2 - 1" + ")" * 3000 + ",", 1), _INDUCED),
    (_PROJ.replace("x1*x2 - 1,", "x1*" + "-" * 3000 + ",", 1), _INDUCED),
    (_PROJ.replace("x1*x2 - 1,", "x1*x2 - 1 + x1^" + "9" * 5000 + ",", 1), _INDUCED),
    (_PROJ.replace("x1*x2 - 1,", "x1*x2 - " + "9" * 5000 + ",", 1), _INDUCED),
    ("relator 1\n( g1" + " " * 100000 + "g2 )\n",
     ("verify", "-a", ARGS["-a"], "-p", ARGS["-p"], "-e", ARGS["-e"], "-c")),
    ("generators 2\n" + "g1^999999 g2\n" * 30, ("fox", "-p")),
    ("g1^999999 g2\ng2\ng3\ng4 g1^999999\n",
     ("verify", "-a", ARGS["-a"], "-p", ARGS["-p"], "-c", ARGS["-c"], "-e")),
], ids=["generators", "nvars", "dim", "exponent-notation-entry", "exponent-notation-point",
        "hyperplanes", "nested-commutators", "boolean-24", "lines-1024", "nested-parentheses",
        "minus-signs", "poly-exponent-digits", "poly-coefficient-digits",
        "certificate-term-spaces", "relator-letters", "image-letters"])
def test_oversized_header_counts_are_parse_errors(tmp_path, text, argv):
    path = tmp_path / "big.txt"
    path.write_text(text)
    code, err, seconds = _run_bounded(*argv, str(path))
    assert code == 2 and err.startswith("parse error") and "Traceback" not in err
    assert seconds < 1


_CERT = (FIXTURES / "pencil4_twist12.cert").read_text()


@pytest.mark.parametrize("name,text", [
    ("big.pres", "generators 2\ng" + "1" * 5000 + "\n"),
    ("big.pres", "generators 2\ng1^" + "7" * 5000 + "\n"),
    ("big.pres", "generators 2\ng1^1000000000\n"),
    ("big.cert", _CERT.replace("relator 1", "relator " + "1" * 5000, 1)),
    ("big.cert", _CERT.replace(", 2 ,", ", " + "2" * 5000 + " ,", 1)),
], ids=["generator-index", "exponent-digits", "exponent", "relator-header", "relator-term"])
def test_oversized_word_and_certificate_integers_are_parse_errors(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    if name.endswith(".pres"):
        argv = ("fox", "-p", str(path))
    else:
        argv = ("verify", "-a", ARGS["-a"], "-p", ARGS["-p"], "-e", ARGS["-e"], "-c", str(path))
    code, err, seconds = _run_bounded(*argv)
    assert code == 2 and err.startswith("parse error") and "Traceback" not in err
    assert seconds < 1


def test_the_largest_allowed_generator_count_runs(tmp_path):
    from arrmono.rings import MAX_VARIABLES

    path = tmp_path / "free.pres"
    path.write_text(f"generators {MAX_VARIABLES}\n")
    code, out = run_cli("fox", "-p", str(path))
    assert code == 0 and f"generators: {MAX_VARIABLES}" in out
    path.write_text(f"generators {MAX_VARIABLES + 1}\n")
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli("fox", "-p", str(path))[0] == 2


@pytest.mark.parametrize("block", [
    ["matrix M ring=rational cols=1", 'row ["1"]', "endmatrix"],
    ["matrix M ring=poly var=y rows=1 cols=1", 'row [[["1",[0]]]]', "endmatrix"],
    ["matrix M ring=rational rows=x cols=1", 'row ["1"]', "endmatrix"],
    ["matrix M ring=rational rows=1 cols=1 wide", 'row ["1"]', "endmatrix"],
    ["matrix M ring=rational rows=1 cols=1", 'row ["1"', "endmatrix"],
])
def test_malformed_matrix_block_is_a_parse_error(block):
    from arrmono import ParseError
    from arrmono.serialize import parse_matrix_block

    with pytest.raises(ParseError):
        parse_matrix_block(block)


@pytest.mark.parametrize("subcommand", ["connection", "verify", "induced"])
@pytest.mark.parametrize("arrangement,ranks", [
    ("dim 2\n0 1 0\n0 0 1\n-1 1 1\n", "[1, 3, 3]"),
    ("dim 2\n0 1 0\n1 1 0\n0 0 1\n1 0 1\n", "[1, 4, 4]"),
])
def test_rank_mismatch_with_the_presentation_is_a_parse_error(tmp_path, subcommand,
                                                              arrangement, ranks):
    path = tmp_path / "other.arr"
    path.write_text(arrangement)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(subcommand, "-a", str(path), "-p", ARGS["-p"], "-e", ARGS["-e"],
                            "-c", ARGS["-c"], "--xi", ARGS["xi1"])
    assert code == 2 and out == ""
    message = err.getvalue()
    assert message.startswith("parse error") and ranks in message and "[1, 4, 5]" in message


@pytest.mark.parametrize("kind,text", [
    ("pres", "generators x\n[g1,g2]\n"),
    ("cert", "relator x\n( 1 , 1 , +1 )\n"),
    ("arr", "dim 2\n0 1 0\n0 0 1\n1 0 0\n"),
])
def test_malformed_input_is_a_parse_error(tmp_path, kind, text):
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    if kind == "arr":
        argv = ["info", "-a", str(path)]
    elif kind == "pres":
        argv = ["fox", "-p", str(path)]
    else:
        argv = ["verify", "-a", ARGS["-a"], "-p", ARGS["-p"], "-e", ARGS["-e"],
                "-c", str(path)]
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli(*argv)
    assert code == 2
    assert err.getvalue().startswith("parse error")
    assert "Traceback" not in err.getvalue()


_MB = 1 << 20
_VERIFY = ("verify", "-a", ARGS["-a"], "-p", ARGS["-p"], "-e", ARGS["-e"], "-c")


# One malformed line of a megabyte at each site that quotes the offending text.
@pytest.mark.parametrize("text,argv", [
    ("dim 2\n" + "1 " * (_MB // 2) + "\n", ("info", "-a")),
    ("dim 2 " + "x" * _MB + "\n", ("info", "-a")),
    ("generators 2 " + "x" * _MB + "\n", ("fox", "-p")),
    ("generators 2\n^" + "9" * _MB + "\n", ("fox", "-p")),
    ("relator 1 " + "x" * _MB + "\n", _VERIFY),
    ("relator 1\n" + "x" * _MB + "\n", _VERIFY),
    (_PROJ.replace("ring x", "ring x " + "y" * _MB, 1), _INDUCED),
    (_PROJ.replace("x1*x2 - 1,", "x1*x2 - 1," * (_MB // 10), 1), _INDUCED),
    (_PROJ.replace("x1*x2 - 1,", "z" * _MB + ",", 1), _INDUCED),
    (_PROJ.replace("locus x3 =", "locus x3 " + "y" * _MB, 1), _INDUCED),
], ids=["arrangement-row", "arrangement-header", "presentation-header", "word-token",
        "relator-header", "certificate-term", "projection-header", "projection-row",
        "poly-symbol", "locus"])
def test_a_megabyte_bad_line_gets_a_short_message(tmp_path, text, argv):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, err, _ = _run_bounded(*argv, str(path))
    assert code == 2 and err.startswith("parse error") and "Traceback" not in err
    assert len(err) < 200, err[:200]


def test_a_megabyte_bad_matrix_row_gets_a_short_message():
    from arrmono import ParseError
    from arrmono.serialize import parse_matrix_block
    with pytest.raises(ParseError) as exc:
        parse_matrix_block(["matrix M ring=rational rows=1 cols=1", "x" * _MB, "endmatrix"])
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("old,new", [
    ("rows 5", "rows abc"),
    ("rows 5", "rows " + "1" * 5000),
    ("locus x3 =", "locus xq ="),
    ("locus x3 =", "locus x9 ="),
    ("locus x3 =", "locus x0 ="),
    ("locus x4 = 1", "locus x4 = 1\nlocus x3 = 1"),
    ("nvars 4", "n 4"),
    ("nvars 4", "nvars 4\nnvars 4"),
    ("rows 5", "rows 5\nrows 5"),
    ("ring x", "ring x\nring x"),
    ("cols 3", "cols 3\ncolumns 3"),
    ("nvars 4\n", ""),
])
def test_malformed_projection_is_a_parse_error(tmp_path, old, new):
    text = (FIXTURES / "pencil4_proj_res.txt").read_text()
    assert old in text
    path = tmp_path / "bad_proj.txt"
    path.write_text(text.replace(old, new, 1))
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("induced", "-a", ARGS["-a"], "-p", ARGS["-p"], "-e", ARGS["-e"],
                          "-c", ARGS["-c"], "--xi", str(path))
    assert code == 2
    assert err.getvalue().startswith("parse error")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("counts,rows,message", [
    ("nvars 3\nrows 5", 5, "projection nvars 3 and presentation generators 4 differ"),
    ("nvars 4\nrows 4", 4, "projection rows 4 and presentation relators 5 differ"),
], ids=["nvars", "rows"])
def test_projection_counts_must_match_the_presentation(tmp_path, counts, rows, message):
    path = tmp_path / "proj.txt"
    path.write_text(f"ring x\n{counts}\ncols 1\nxi\n" + "x1 - 1\n" * rows)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*_INDUCED, str(path))
    assert code == 2 and out == ""
    assert err.getvalue() == f"parse error: {message}\n"


def test_repeated_relator_header_is_a_parse_error(tmp_path):
    # Merging the two headers would leave a valid certificate for Z^2.
    pres, endo, cert = tmp_path / "z2.pres", tmp_path / "id.endo", tmp_path / "twice.cert"
    pres.write_text("generators 2\n[g1, g2]\n")
    endo.write_text("g1\ng2\n")
    cert.write_text("relator 1\n( 1 , 1 , +1 )\nrelator 1\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("connection", "-p", str(pres), "-e", str(endo), "-c", str(cert))
    assert code == 2 and out == ""
    assert err.getvalue() == "parse error: repeated relator header 1\n"


def test_monodromy_without_certificate():
    code, out = run_cli("monodromy", "-p", ARGS["-p"], "-e", ARGS["-e"])
    assert code == 0 and "Phi1" in out and "Phi2" not in out


def test_monodromy_fallback_is_flagged():
    code, out = run_cli("monodromy", "-p", ARGS["-p"], "-e", ARGS["-e"],
                        "--fallback-solve")
    assert code == 0 and "NON-CANONICAL" in out
    assert "phi2_kernel_dimension: 2" in out
