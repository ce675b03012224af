"""Command-line interface: exit codes, JSON output, round-trips."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdet.cli
import hyperdet.detrep
import hyperdet.hyperbolicity
import hyperdet.quotient
import hyperdet.sos
from hyperdet import CertifyOptions, DetRepCertificate, Poly, parse_poly
from hyperdet.cli import _build_parser, main
from hyperdet.poly import as_point, normalize_direction
from hyperdet.quotient import QuotientContext, unpacked_poly

from conftest import random_pencil_determinant, renegar_derivative
from golden import GOLDEN_BEZOUTIANS, GOLDEN_CERTIFICATE_FILE, GOLDEN_CERTIFICATES, GOLDEN_CHECKS
from oracles import pencil_determinant


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_lorentz_json(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, err = run(
        capsys, "certify", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0",
        "--output", str(out_path),
    )
    assert code == 0, err
    data = json.loads(out_path.read_text())
    assert data["schema"] == "hyperdet/1"
    assert data["N"] == 3
    assert data["cofactor"] == "x0"
    assert data["D"] == ["2", "2", "2"]


def test_certify_verify_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, *_ = run(capsys, "certify", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0",
                   "--output", str(out_path))
    assert code == 0
    code, out, err = run(capsys, "verify", "--cert", str(out_path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_tampered_certificate(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    run(capsys, "certify", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0",
        "--output", str(out_path))
    data = json.loads(out_path.read_text())
    data["cofactor"] = "x0 + x1"
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--cert", str(out_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["diagnostics"]


def test_check_not_hyperbolic_exits_one(capsys):
    code, out, err = run(capsys, "check", "--poly", "x0^2 + x1^2", "--e", "1,0")
    assert code == 1
    payload = json.loads(out)
    assert payload["hyperbolicity"]["status"] == "NotHyperbolic"
    assert payload["hyperbolicity"]["witness"] == ["0", "1"]


def test_check_singular_suspected(capsys):
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2", "--e", "1,0,0")
    assert code == 1
    payload = json.loads(out)
    assert payload["hyperbolicity"]["status"] == "HyperbolicSampled"
    assert payload["status"] == "SingularSuspected"
    assert payload["pd_witness"]["ok"] is False


def test_check_hyperbolic_ok(capsys):
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["pd_witness"]["ok"] is True


def test_bezoutian_output(capsys):
    code, out, err = run(capsys, "bezoutian", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == [["0", "1"], ["1", "0"]]
    assert payload["dh_dx0"] == [["2*x1^2 + 2*x2^2", "0"], ["0", "2"]]


def test_parse_error_exits_two(capsys):
    code, out, err = run(capsys, "certify", "--poly", "x0^2 - x1^%2", "--e", "1,0")
    assert code == 2
    assert "line 1" in err


def test_vanishing_direction_exits_two(capsys):
    code, out, err = run(capsys, "certify", "--poly", "x0^2", "--e", "0,1")
    assert code == 2


def test_exhausted_exits_one(capsys):
    # Forcing the search on a non-hyperbolic quadric with the PD check
    # bypassed is not reachable through the CLI; the pd_witness refusal is.
    code, out, err = run(capsys, "certify", "--poly", "x0^2 + x1^2", "--e", "1,0")
    assert code == 1
    assert "refused" in err


def test_missing_certificate_file_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--cert", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("argv,content", [
    (("verify", "--cert"), b"\xff\xfe{}"),  # a UTF-16 byte-order mark
    (("check", "--e", "1,0", "--input"), b"x0^2 - x1^2\xff"),
    (("verify", "--cert"), b"[" * 100000 + b"]" * 100000),
], ids=["bom-certificate", "ff-byte-polynomial", "nested-certificate"])
def test_undecodable_or_deeply_nested_file_is_an_input_error(capsys, tmp_path, argv, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert out == ""


LORENTZ_CHECK = ("check", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0")
LORENTZ_CERTIFY = ("certify", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0")


@pytest.mark.parametrize("argv", [
    ("check", "--poly", "x0^2 - x1^2", "--e", "1,a"),
    ("certify", "--poly", "x0^2 - x1^2", "--e", "1/0,1"),
])
def test_malformed_direction_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error: --e ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    LORENTZ_CHECK + ("--samples", "0"),
    LORENTZ_CERTIFY + ("--samples", "-1"),
    LORENTZ_CERTIFY + ("--lmax", "-7"),
    LORENTZ_CERTIFY + ("--lmax", "-1"),
    LORENTZ_CERTIFY + ("--samples", "0"),
    LORENTZ_CHECK + ("--samples", "-3"),
    LORENTZ_CHECK + ("--samples", "99999999999999999999999"),
    LORENTZ_CERTIFY + ("--samples", "10001"),
    LORENTZ_CERTIFY + ("--lmax", "99999999999999999999"),
])
def test_out_of_range_numeric_flag_is_a_usage_error(capsys, argv):
    # The setting's own check rejects it (lmax, num_samples), once.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert argv[-2].lstrip("-") in err
    assert out == ""


@pytest.mark.parametrize("direction", ["1e1000000,0", "1.5,0", "1_000,1"])
def test_direction_outside_the_rational_forms_is_an_input_error_at_once(capsys, direction):
    # Only an optional sign with an integer or a/b is read; Fraction alone
    # would compute 10**1000000 for the exponent notation.
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2", "--e", direction)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("input error: --e ") and err.count("\n") == 1
    assert out == ""


def _first_entry(data, name, value):
    """data with the first number of field name (e, T, D or G) set to value."""
    if name == "e":
        return {**data, "e": [value] + data["e"][1:]}
    if name == "T":
        return {**data, "T": [[value] + data["T"][0][1:]] + data["T"][1:]}
    if name == "D":
        return {**data, "D": [value] + data["D"][1:]}
    return {**data, "G": [[[value] + data["G"][0][0][1:]] + data["G"][0][1:]] + data["G"][1:]}


@pytest.mark.parametrize("name", ["e", "T", "D", "G"])
def test_certificate_field_in_exponent_notation_is_an_input_error_at_once(capsys, tmp_path, name):
    # It used to be computed, 10**1000000, and then fail the replay (exit 1).
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(_first_entry(_lorentz_certificate(capsys, tmp_path), name, "1e1000000")))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("input error: ") and f"field {name!r}" in err
    assert "'1e1000000' is not an integer or an a/b fraction" in err
    assert out == ""


@pytest.mark.parametrize("name", ["e", "T", "D", "G"])
def test_boolean_certificate_entry_is_an_input_error(capsys, tmp_path, name):
    # JSON's true is a Python bool, and so an int: it used to load as 1 and
    # fail the replay (exit 1) or, where 1 was the number, pass it.
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(_first_entry(_lorentz_certificate(capsys, tmp_path), name, True)))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2
    assert err.startswith("input error: ") and f"certificate field {name!r}" in err
    assert "cannot interpret True as an exact rational" in err
    assert out == ""


def test_main_builds_the_argument_parser_once(capsys, monkeypatch):
    run(capsys, "check", "--poly", "x0^2 - x1^2", "--e", "1,0")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2", "--e", "1,0")
    assert code == 0
    assert built == []


@pytest.mark.parametrize("poly, message", [
    ("x0^\u00b2 - x1^2", "expected a digit (line 1, column 4)"),
    ("\u0663*x0^2 - x1^2", "expected a coefficient or a variable (line 1, column 1)"),
], ids=["superscript-two", "arabic-indic-three"])
def test_non_ascii_digit_exits_two(capsys, poly, message):
    code, out, err = run(capsys, "check", "--poly", poly, "--e", "1,0")
    assert code == 2
    assert err == f"input error: {message}\n"
    assert out == ""


def test_certify_flag_defaults_are_the_option_defaults():
    args = _build_parser().parse_args(list(LORENTZ_CERTIFY))
    defaults = CertifyOptions()
    assert (args.lmax, args.samples, args.seed) == (
        defaults.lmax, defaults.num_samples, defaults.seed)


def _lorentz_certificate(capsys, tmp_path) -> dict:
    path = tmp_path / "cert.json"
    code, *_ = run(capsys, *LORENTZ_CERTIFY, "--output", str(path))
    assert code == 0
    return json.loads(path.read_text())


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("mangle,message", [
    (lambda data: _without(data, "G"), "no 'G' field"),
    (lambda data: {**data, "D": [1.5, "2", "2"]}, "field 'D'"),
    (lambda data: {**data, "N": "x"}, "field 'N'"),
    (lambda data: {**data, "N": 3.5}, "field 'N'"),
    (lambda data: {**data, "e": "100"}, "field 'e'"),
    (lambda data: {**data, "T": ["100", "010", "001"]}, "field 'T'"),
    (lambda data: {**data, "T": [["1", "0"], ["0", "1"], ["0", "0"]]}, "field 'T': must be a 3x3"),
    (lambda data: {**data, "G": [5, data["G"][1]]}, "field 'G': matrix must be a JSON list, not int"),
    (lambda data: [data], "JSON object"),
    (lambda data: {**data, "schema": "hyperdet/0"}, "schema"),
])
def test_malformed_certificate_is_an_input_error(capsys, tmp_path, mangle, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mangle(_lorentz_certificate(capsys, tmp_path))))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2
    assert err.startswith("input error: ") and message in err and err.count("\n") == 1
    assert out == ""


def test_multiplier_field_is_not_replayed(capsys, tmp_path):
    # q_multiplier records the search's multiplier for the reader; verify
    # does not read it, so even "0" leaves a valid certificate valid.
    data = _lorentz_certificate(capsys, tmp_path)
    data["q_multiplier"] = "0"
    path = tmp_path / "zero-multiplier.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 0, err
    assert json.loads(out)["valid"] is True


def test_empty_pencil_certificate_is_refused(capsys, tmp_path):
    # An N = 0 pencil has determinant 1, which is not cofactor * h_monic for
    # cofactor 0 or 1, whichever route check (c) takes: one (c) line each.
    certificates = [{**_lorentz_certificate(capsys, tmp_path), "N": 0, "D": [], "G": [[], []]}]
    for n in (1, 2, 3):
        for cofactor in ("0", "1"):
            certificates.append({
                "schema": "hyperdet/1", "h": " - ".join(f"x{i}^2" for i in range(n + 1)),
                "e": ["1"] + ["0"] * n, "T": [[str(int(i == j)) for j in range(n + 1)] for i in range(n + 1)],
                "N": 0, "D": [], "G": [[]] * n, "cofactor": cofactor, "q_multiplier": "1"})
    for data in certificates:
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert (code, err) == (1, ""), (data, err)
        payload = json.loads(out)
        assert payload["valid"] is False
        [diagnostic] = payload["diagnostics"]
        assert diagnostic.startswith("(c)"), diagnostic


@pytest.mark.parametrize("field, value, reason", [
    ("e", ["0", "0", "0"], "direction must be nonzero"),
    ("e", ["1", "1", "0"], "polynomial vanishes at the direction"),
    ("h", "0", "polynomial must be homogeneous of positive degree"),
    ("h", "x0^2 - x1", "polynomial must be homogeneous of positive degree"),
    ("h", "x0^63 - x1^63 - x2^63",
     "polynomial too large: degree 63 in 3 variables has more than 2048 terms once dense"),
], ids=["zero-e", "h-vanishes-at-e", "zero-h", "inhomogeneous-h", "oversized-h"])
def test_certificate_the_input_gate_refuses_is_refused(capsys, tmp_path, field, value, reason):
    # verify normalizes h and e as certify does; where that gate refuses,
    # checks (c) and (d) are not replayed, each says why, and verify exits 1.
    path = tmp_path / "gate.json"
    path.write_text(json.dumps({**_lorentz_certificate(capsys, tmp_path), field: value}))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out)["diagnostics"] == [
        f"(c) determinant check could not be replayed: {reason}",
        f"(d) direction check could not be replayed: {reason}"]


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_NEEDS_INT_LIMIT = pytest.mark.skipif(not _INT_LIMIT, reason="the interpreter has no int-string limit")
# A direction entry of half the int-string limit, and 50 digits more, is
# admitted; h_monic's coefficients, about its square, are past the limit.
_HALF_LIMIT_E = f"1{'0' * (_INT_LIMIT // 2 + 50)},1"


@pytest.mark.parametrize("argv", [
    ("check", "--poly", "x0^2", "--e", "1"),
    ("certify", "--poly", "x0^2", "--e", "1"),
    ("bezoutian", "--poly", "x0^2", "--e", "1"),
    ("check", "--poly", "3", "--e", "1,0"),
    ("bezoutian", "--poly", "3", "--e", "1,0"),
    ("check", "--poly", "x0^2 - x1", "--e", "1,0"),
    ("bezoutian", "--poly", "x0^2 - x1", "--e", "1,0"),
    ("check", "--poly", "x0^99999999 - x1^99999999", "--e", "1,0"),
    ("bezoutian", "--poly", "x0^99999999 - x1^99999999", "--e", "1,0"),
    ("certify", "--poly", "x0^99999999 - x1^99999999", "--e", "1,0"),
    ("check", "--poly", "x0^250*x1^250*x2^250*x3^250", "--e", "1,1,1,1"),
    ("bezoutian", "--poly", "x0^250*x1^250*x2^250*x3^250", "--e", "1,1,1,1"),
    ("certify", "--poly", "x0^250*x1^250*x2^250*x3^250", "--e", "1,1,1,1"),
    pytest.param(("bezoutian", "--poly", "x0^2 - x1^2", "--e", _HALF_LIMIT_E), marks=_NEEDS_INT_LIMIT),
    pytest.param(("certify", "--poly", "x0^2 - x1^2", "--e", _HALF_LIMIT_E), marks=_NEEDS_INT_LIMIT),
])
def test_polynomial_outside_the_domain_is_an_input_error(capsys, argv):
    # Univariate, constant and inhomogeneous polynomials, and those with more
    # than 2048 terms once dense, are refused by the one input gate with
    # exit 2, by every command.  So is output that would hold an integer
    # past the interpreter's int-string limit.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert out == ""


@st.composite
def poly_texts(draw):
    """(text, direction, degree): degree <= 3 in 1-4 variables, any shape."""
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    homogeneous = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        deg = degree if homogeneous else draw(st.integers(0, degree))
        factors = [f"x{draw(st.integers(0, nvars - 1))}" for _ in range(deg)]
        coeff = draw(st.integers(-3, 3))
        body = "*".join([str(abs(coeff))] + factors)
        terms.append(("-" if coeff < 0 else "+", body))
    text = " ".join(f"{sign} {body}" for sign, body in terms).lstrip("+ ")
    direction = ",".join(str(draw(st.integers(-2, 2))) for _ in range(nvars))
    return text, direction, degree


@settings(max_examples=50, deadline=None)
@given(poly_texts())
def test_input_commands_end_in_a_documented_exit_code(drawn):
    text, direction, degree = drawn
    commands = [("check", "--samples", "4"), ("bezoutian",)]
    if degree <= 2:
        commands.append(("certify", "--lmax", "0", "--samples", "4"))
    for command in commands:
        argv = [command[0], f"--poly={text}", f"--e={direction}", *command[1:]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv


def test_deterministic_output(capsys, tmp_path):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    run(capsys, "certify", "--poly", "x0^3 - x0*x1^2 - x0*x2^2", "--e", "1,0,0",
        "--seed", "0", "--output", str(a_path))
    run(capsys, "certify", "--poly", "x0^3 - x0*x1^2 - x0*x2^2", "--e", "1,0,0",
        "--seed", "0", "--output", str(b_path))
    assert a_path.read_bytes() == b_path.read_bytes()


def test_certify_computes_the_determinant_once_and_samples_nothing(capsys, monkeypatch):
    # certify's one exact replay computes the pencil determinant (one
    # _charpoly), and the cofactor is its quotient by h_monic, not sampled
    # for real-rootedness.
    calls = {"det": 0, "real_rooted": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hyperdet.detrep, "_charpoly", counted("det", hyperdet.detrep._charpoly))
    monkeypatch.setattr(hyperdet.hyperbolicity, "is_real_rooted",
                        counted("real_rooted", hyperdet.hyperbolicity.is_real_rooted))
    code, out, err = run(capsys, "certify", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0")
    assert code == 0, err
    assert calls == {"det": 1, "real_rooted": 0}


@pytest.mark.parametrize("argv", [
    ("check", "--poly", "x0^2 - x1^2 - x2^2", "--e", "2,1,0"),
    ("check", "--poly", str(random_pencil_determinant(random.Random(3001), 3, 3)), "--e", "1,-1/9,0"),
    ("check", "--poly", "x0^2 - x1^2", "--e", "1,0,0"),
    ("check", "--poly", "x0^2 + x1^2 + x2^2", "--e", "2,1,0"),
    ("certify", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0"),
    ("certify", "--poly", "x0*x1*x2", "--e", "1,1,1"),
])
def test_sampled_lines_evaluate_no_poly(capsys, monkeypatch, argv):
    # Every sampled line, the lineality line of a cylinder too, is an
    # integer computation, and so is the input gate's h(e) != 0: the
    # substitution's coefficient of y0^d.  The last call shows the spy is live.
    points = []
    evaluate = Poly.evaluate

    def spy(self, point):
        points.append(tuple(Fraction(c) for c in point))
        return evaluate(self, point)

    monkeypatch.setattr(Poly, "evaluate", spy)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    assert points == []
    Poly.one(2).evaluate((0, 0))
    assert points == [(0, 0)]


def test_check_normalizes_the_direction_once(capsys, monkeypatch):
    # The PD witness reads the context the hyperbolicity lines came from.
    calls = []
    normalize = hyperdet.hyperbolicity.normalize_direction

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    for module in (hyperdet.hyperbolicity, hyperdet.cli):
        monkeypatch.setattr(module, "normalize_direction", counted)
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2 - x2^2", "--e", "2,1,0")
    assert code == 0, err
    assert json.loads(out)["pd_witness"]["ok"] is True
    assert len(calls) == 1


def test_check_compiles_the_line_forms_once(capsys, monkeypatch):
    # Both sampled tests read one compilation of h_monic's x0 coefficients.
    calls = []
    compile_forms = hyperdet.quotient.integer_forms

    def counted(p):
        calls.append(p)
        return compile_forms(p)

    monkeypatch.setattr(hyperdet.quotient, "integer_forms", counted)
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2 - x2^2", "--e", "2,1,0")
    assert code == 0, err
    assert json.loads(out)["pd_witness"]["ok"] is True
    assert len(calls) == 1


def test_each_command_compiles_h_monics_line_forms_at_most_once(capsys, monkeypatch, tmp_path):
    # QuotientContext.line_forms compiles h_monic on first use: once for
    # check, certify and a ternary verify (the principal lattice evaluates
    # h_monic), never for bezoutian or a verify in four variables.
    calls = []
    compile_forms = hyperdet.quotient.integer_forms

    def counted(p):
        calls.append(p)
        return compile_forms(p)

    monkeypatch.setattr(hyperdet.quotient, "integer_forms", counted)
    for poly, direction in (("x0^2 - x1^2 - x2^2", "2,1,0"), ("x0^2 - x1^2 - x2^2 - x3^2", "1,0,0,0")):
        e = as_point(direction.split(","))
        h_monic = QuotientContext(normalize_direction(parse_poly(poly, len(e)), e)[0]).h
        cert = tmp_path / f"cert{len(e)}.json"
        source = ["--poly", poly, "--e", direction]
        for argv, compiles in ((["check", *source], 1), (["bezoutian", *source], 0),
                               (["certify", *source, "--output", str(cert)], 1),
                               (["verify", "--cert", str(cert)], int(len(e) == 3))):
            calls.clear()
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            assert sum(p == h_monic for p in calls) == compiles, argv


@pytest.mark.parametrize("poly,direction,digest", GOLDEN_CERTIFICATES)
def test_certificate_bytes_are_pinned(capsys, poly, direction, digest):
    code, out, err = run(capsys, "certify", "--poly", poly, "--e", direction)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert "float_pencil" not in json.loads(out)


def test_certificate_file_in_the_repository_still_verifies(capsys):
    # The file is the pinned certify stdout of the N=6 pencil: a certificate
    # already written must keep verifying when the replay changes.
    data = GOLDEN_CERTIFICATE_FILE.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CERTIFICATES[3][2]
    code, out, err = run(capsys, "verify", "--cert", str(GOLDEN_CERTIFICATE_FILE))
    assert (code, err) == (0, "")
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize("poly,direction,exit_code,digest", GOLDEN_CHECKS)
def test_check_bytes_are_pinned(capsys, poly, direction, exit_code, digest):
    code, out, err = run(capsys, "check", "--poly", poly, "--e", direction)
    assert code == exit_code, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("poly,direction,fmt,digest", GOLDEN_BEZOUTIANS)
def test_bezoutian_bytes_are_pinned(capsys, poly, direction, fmt, digest):
    code, out, err = run(capsys, "bezoutian", "--poly", poly, "--e", direction, "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certify_refusal_line_is_pinned(capsys):
    code, out, err = run(capsys, "certify", "--poly", "x0*x1*x2", "--e", "1,1,1")
    assert (code, out) == (1, "")
    assert err == ("refused: [pd_witness] derivative Bézoutian not positive definite at "
                   "v=('1', '0'); the polynomial is not hyperbolic or has a real "
                   "singularity\n")


def test_certify_text_states_the_division_it_checked(capsys):
    # certify does not run the verifier; the one identity it tests is that
    # h_monic divides the pencil determinant, and its text says only that.
    code, out, err = run(capsys, *LORENTZ_CERTIFY, "--format", "text")
    assert code == 0, err
    assert out.splitlines() == [
        "certificate: N=3",
        "cofactor: x0",
        "multiplier: 1",
        "weights: (2, 2, 2)",
        "checked: h_monic divides the pencil determinant",
    ]


_WITHOUT_NUMPY = """
import contextlib, hashlib, io, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from hyperdet.cli import main
lorentz = ["--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0"]
certified = io.StringIO()
with contextlib.redirect_stdout(certified):
    certify_code = main(["certify", *lorentz])
codes = [main(["check", *lorentz]), main(["bezoutian", *lorentz]),
         main(["verify", "--cert", sys.argv[1]]), certify_code]
print("certify sha256", hashlib.sha256(certified.getvalue().encode()).hexdigest())
sys.exit(0 if codes == [0, 0, 0, 0] else f"exit codes {codes}")
"""


def test_check_verify_and_bezoutian_run_without_numpy(capsys, tmp_path):
    # numpy is imported only where a Gram problem has free entries, so
    # importing the CLI and running the other three commands, and certify of
    # the ternary Lorentz cone, whose rows fix its one Gram matrix, needs only
    # the standard library; that certificate keeps its golden digest.
    path = tmp_path / "cert.json"
    code, *_ = run(capsys, *LORENTZ_CERTIFY, "--output", str(path))
    assert code == 0
    src = os.path.dirname(os.path.dirname(hyperdet.cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count('"command": ') == 3
    poly, direction, digest = GOLDEN_CERTIFICATES[0]
    assert (poly, direction) == ("x0^2 - x1^2 - x2^2", "1,0,0")
    assert result.stdout.splitlines()[-1] == f"certify sha256 {digest}"


def test_certify_that_needs_the_sdp_refuses_without_numpy():
    # The golden cubic's Gram rows leave entries free at ell 0, so its
    # certify must solve an SDP.  With numpy blocked it is refused: exit 1,
    # nothing on stdout and one stderr line that names numpy, no traceback.
    src = os.path.dirname(os.path.dirname(hyperdet.cli.__file__))
    script = ('import sys; sys.modules["numpy"] = None; from hyperdet.cli import main; '
              'sys.exit(main(sys.argv[1:]))')
    poly, direction, _ = GOLDEN_CERTIFICATES[2]
    assert poly == "x0^3 - x0*x1^2 - x0*x2^2"
    result = subprocess.run(
        [sys.executable, "-c", script, "certify", "--poly", poly, "--e", direction],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (result.returncode, result.stdout) == (1, "")
    [line] = result.stderr.splitlines()
    assert line.startswith("refused: numpy is needed to solve this input's SDP"), line
    assert "Traceback" not in result.stderr


def test_legacy_float_pencil_key_is_ignored(capsys, tmp_path):
    # Older certificates carried a float view of the pencil; they still load
    # under the same schema, and the exact replay ignores the floats.
    data = _lorentz_certificate(capsys, tmp_path)
    data["float_pencil"] = [[[0.0] * 3] * 3] * 2
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 0, err
    assert json.loads(out) == {"schema": "hyperdet/1", "command": "verify",
                               "valid": True, "diagnostics": []}


def test_golden_pencil_entries_stay_short(capsys):
    # One rounding grid keeps the LDL weights and the lift small: the N=6
    # certificate's widest numerator or denominator in D, G and the cofactor.
    poly, direction, _ = GOLDEN_CERTIFICATES[3]
    code, out, err = run(capsys, "certify", "--poly", poly, "--e", direction)
    assert code == 0, err
    data = json.loads(out)
    assert data["N"] == 6
    values = [Fraction(w) for w in data["D"]]
    values += [Fraction(x) for g in data["G"] for row in g for x in row]
    values += [c for _, c in parse_poly(data["cofactor"], 3).terms()]
    assert max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values) <= 128


def test_certify_takes_its_determinant_on_the_gram_basis_pencil(capsys, monkeypatch):
    # certify's one determinant runs on the similar pencil R^-1 G_s R that
    # the lift returns beside G_s, as integers over row denominators, not on
    # the certificate's G_s: the same determinant over a far shorter common
    # denominator (243 bits for the G_s of the N=6 certificate).
    seen, lifted = [], []
    determinant = hyperdet.detrep._charpoly
    lift = hyperdet.detrep.solve_symmetric_lift

    def recorded(ints, dens):
        seen.append((ints, dens))
        return determinant(ints, dens)

    def recorded_lift(ctx, dec):
        lifted.append(lift(ctx, dec))
        return lifted[-1]

    monkeypatch.setattr(hyperdet.detrep, "_charpoly", recorded)
    monkeypatch.setattr(hyperdet.detrep, "solve_symmetric_lift", recorded_lift)
    poly, direction, _ = GOLDEN_CERTIFICATES[3]
    code, out, err = run(capsys, "certify", "--poly", poly, "--e", direction)
    assert code == 0, err
    [(ints, dens)] = seen
    [(certified, basis_pencil)] = lifted
    assert (ints, dens) == basis_pencil and ints is basis_pencil[0]
    assert certified == DetRepCertificate.from_json(out).pencil
    # Row a is ints / dens[a]: its lcm of reduced denominators is dens[a]
    # over the gcd of dens[a] and the row's integers.
    lcm = math.lcm(*(den // math.gcd(den, *(p[a][b] for p in ints for b in range(len(dens))))
                     for a, den in enumerate(dens)))
    assert lcm.bit_length() <= 64
    assert unpacked_poly(*determinant(ints, dens), len(dens) + 1, 3) == pencil_determinant(
        DetRepCertificate.from_json(out).pencil)


def _record_calls(monkeypatch, name, measure):
    """Wrap hyperdet.detrep.<name> to record measure(matrix) at each call."""
    recorded = []
    original = getattr(hyperdet.detrep, name)

    def wrapper(mat):
        recorded.append(measure(mat))
        return original(mat)

    monkeypatch.setattr(hyperdet.detrep, name, wrapper)
    return recorded


def test_verify_takes_a_ternary_determinant_on_the_lattice(capsys, tmp_path, monkeypatch):
    # With two pencil matrices, check (c) compares integer determinants at
    # the 28 points of the degree-6 principal lattice, each one symmetric
    # Bareiss elimination on the lower triangle of a0*D' - a1*Y'_1 - a2*Y'_2,
    # the symmetric D*G_s scaled to integers by a diagonal congruence and
    # their common content: on the N=6 certificate the widest integer
    # handed to Bareiss is 85 bits, against 183 handed to Berkowitz, which
    # scales the similar pencil D'^-1 Y'_s by the lcm of its row denominators.
    poly, direction, _ = GOLDEN_CERTIFICATES[3]
    path = tmp_path / "cert.json"
    code, out, err = run(capsys, "certify", "--poly", poly, "--e", direction,
                         "--output", str(path))
    assert code == 0, err
    charpolys = _record_calls(monkeypatch, "_berkowitz_charpoly", len)
    widest = _record_calls(monkeypatch, "bareiss_determinant",
                            lambda mat: max(abs(x).bit_length() for row in mat for x in row))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 0, err
    assert charpolys == []
    assert len(widest) == 28
    assert max(widest) <= 100


def test_verify_takes_its_determinant_on_a_row_balanced_pencil(capsys, tmp_path, monkeypatch):
    # With three or more pencil matrices, check (c) stays one Berkowitz pass
    # on D'^-1 Y'_s = diag(sigma)^-1 G_s diag(sigma), the similarity of G_s
    # that the integer pencil of D and D*G_s gives, each row reduced by its
    # gcd with its denominator: on the N=10 certificate of the seed-1
    # Renegar cubic in four variables the widest integer handed to
    # Berkowitz is 1122 bits, against 1749 when G_s is scaled by the lcm of
    # all its denominators.  The lift has free unknowns there, and zeroing
    # them in S coordinates gives G_s of 318 bits, against 767 (and 1555
    # bits handed to Berkowitz) when they were zeroed in the scaled entries
    # Z_s.
    poly = str(renegar_derivative(random.Random(1), 4, 5))
    path = tmp_path / "cert.json"
    code, out, err = run(capsys, "certify", "--poly", poly, "--e", "1,0,0,0",
                         "--output", str(path))
    assert code == 0, err
    lattice = _record_calls(monkeypatch, "bareiss_determinant", len)
    widest = _record_calls(
        monkeypatch, "_berkowitz_charpoly",
        lambda mat: max(abs(c).bit_length() for row in mat for f in row for c in f.values()))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 0, err
    assert lattice == []
    [bits] = widest
    assert bits <= 1167


def test_cylinder_quadric_is_refused_at_its_lineality_witness(capsys, monkeypatch):
    # Rank-deficient 4-variable quadric: h(x + v) = h(x) for v = (15/11,
    # 4/11, -2/11, 1), so the derivative Bézoutian is singular at v's last
    # three coordinates.  The lineality line, tested before any sampled
    # line, refuses it before any SDP is solved.
    solves = []
    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", lambda *args, **kw: solves.append(args))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "certify", "--e", "1,0,0,0", "--poly",
        "x0^2 + x0*x1 + 1/2*x0*x2 - 3*x0*x3 - 3*x1^2 - 9/2*x1*x2 - 4*x2^2"
        " - 1/2*x2*x3 + 2*x3^2",
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("refused: [pd_witness] derivative Bézoutian not positive definite at "
                   "v=('4/11', '-2/11', '1'); the polynomial is not hyperbolic or has a real "
                   "singularity\n")
    assert solves == []


def test_exhausted_refusal_is_one_short_line(capsys):
    # The seed-7 4-variable cubic has no lineality space and no exact
    # multiplier at ell <= 1.  A missing margin does not depend on the
    # rounding bound, so it is recorded once per level, not once per bound.
    poly = str(random_pencil_determinant(random.Random(7), 4, 3))
    code, out, err = run(capsys, "certify", "--e", "1,0,0,0", "--lmax", "1", "--poly", poly)
    assert code == 1
    assert err.startswith("refused: no exact decomposition up to ell=1 (")
    assert err.count("\n") == 1
    assert len(err.encode()) < 4096
    for ell in range(2):
        assert err.count(f"ell={ell}: no positive-definiteness margin") <= 1


def test_high_exponent_check_is_quick(capsys):
    # A line restriction evaluates the integer x0 coefficients of h_monic at
    # an integer point, with only the powers its terms use, so no power of a
    # linear form in t is expanded and no table of powers up to d is built.
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--poly", "x0^1000 - x1^1000", "--e", "1,0")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert json.loads(out)["hyperbolicity"]["status"] == "NotHyperbolic"


def test_dense_high_degree_check_is_quick(capsys):
    # Along (3, 1) the normalized h is dense of degree 600 with 950-bit
    # coefficients; each sampled line reads one integer Sturm chain.
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--poly", "x0^600 - x1^600", "--e", "3,1")
    assert time.perf_counter() - start < 2
    assert code == 1
    assert json.loads(out)["hyperbolicity"]["status"] == "NotHyperbolic"


_TOO_LONG = "7" * (_INT_LIMIT + 1)


@pytest.mark.skipif(not _INT_LIMIT, reason="the interpreter has no int-string limit")
@pytest.mark.parametrize("command", ["check", "certify", "bezoutian"])
@pytest.mark.parametrize("poly", [
    f"x0^2 - {_TOO_LONG}*x1^2",
    f"x0^2 - 1/{_TOO_LONG}*x1^2",
    f"x0^{_TOO_LONG} - x1^2",
    f"x0^2 - x{_TOO_LONG}^2",
], ids=["coefficient", "denominator", "exponent", "variable index"])
def test_integer_literal_past_the_int_string_limit_exits_two(capsys, command, poly):
    code, out, err = run(capsys, command, "--poly", poly, "--e", "1,0")
    assert code == 2
    assert err.startswith("input error: integer literal of") and "line 1" in err


@_NEEDS_INT_LIMIT
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_past_the_int_string_limit_exits_two(capsys, fmt):
    # check prints nothing of h_monic's size and passes; bezoutian and
    # certify would print its coefficients, past the limit, and refuse with
    # one line that names the limit, where they ended in a traceback.
    argv = ("--poly", "x0^2 - x1^2", "--e", _HALF_LIMIT_E, "--format", fmt)
    assert run(capsys, "check", *argv)[0::2] == (0, "")
    for command in ("bezoutian", "certify"):
        assert run(capsys, command, *argv) == (
            2, "", f"input error: the output has an integer of more than {_INT_LIMIT} digits, "
                   "the interpreter's int-string limit\n")


def test_text_format(capsys):
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2 - x2^2", "--e", "1,0,0",
                         "--format", "text")
    assert code == 0
    assert "hyperbolicity: HyperbolicSampled" in out


def test_input_file(capsys, tmp_path):
    poly_path = tmp_path / "poly.txt"
    poly_path.write_text("x0^2 - x1^2 - x2^2\n")
    code, out, err = run(capsys, "check", "--input", str(poly_path), "--e", "1,0,0")
    assert code == 0


def test_variable_index_beyond_direction_exits_two(capsys):
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x3^2", "--e", "1,0")
    assert code == 2
    assert "x3" in err


def test_padded_variables_are_singular_not_crashing(capsys):
    # x2 unused: the polynomial is a cylinder, caught by the PD witness.
    code, out, err = run(capsys, "check", "--poly", "x0^2 - x1^2", "--e", "1,0,0")
    assert code == 1
    assert json.loads(out)["status"] == "SingularSuspected"
