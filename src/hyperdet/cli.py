"""Command-line front end.

Commands:
  check      hyperbolicity verdict plus the PD-witness report
  bezoutian  the difference-quotient Bézoutian and the derivative Bézoutian
  certify    run the full pipeline and build a certificate that verify replays
  verify     replay a certificate file

Exit codes: 0 success, 1 refusal (not hyperbolic, suspected singularity,
multiplier search exhausted, failed verification: any HyperdetError that is
not an InputError; also a certify that must solve an SDP when numpy cannot
be imported, with one stderr line that names numpy), 2 input error
(InputError, an unreadable, undecodable or malformed file, an out-of-range
flag).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .detrep import (
    SCHEMA,
    CertifyOptions,
    DetRepCertificate,
    certify,
    verify_certificate,
)
from .errors import HyperdetError, InputError
from .hyperbolicity import (
    DEFAULT_NUM_SAMPLES,
    NOT_HYPERBOLIC,
    SINGULAR_SUSPECTED,
    check_hyperbolic_sampled,
    pd_witness_check,
)
from .poly import Poly, as_point, normalize_direction, parse_poly
from .quotient import QuotientContext, bezoutian_of
from .sos import DEFAULT_ELL_MAX

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hyperdet",
        description="Certify definite determinantal representations of multiples "
        "of hyperbolic polynomials, with exact rational verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--poly", help="polynomial in the text grammar, e.g. 'x0^2 - x1^2'")
        src.add_argument("--input", help="path to a file containing the polynomial")
        p.add_argument("--e", required=True,
                       help="direction as comma-separated rationals, e.g. '1,0,0'")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", help="output path (default: stdout)")

    p_check = sub.add_parser("check", help="sampled hyperbolicity and PD-witness checks")
    add_common(p_check)
    p_check.add_argument("--samples", type=int, default=DEFAULT_NUM_SAMPLES)
    p_check.add_argument("--seed", type=int, default=0)

    p_bez = sub.add_parser("bezoutian", help="serialize the basic Bézoutian forms")
    add_common(p_bez)

    p_cert = sub.add_parser("certify", help="build a certificate that verify replays")
    add_common(p_cert)
    p_cert.add_argument("--lmax", type=int, default=DEFAULT_ELL_MAX)
    p_cert.add_argument("--samples", type=int, default=DEFAULT_NUM_SAMPLES)
    p_cert.add_argument("--seed", type=int, default=0)

    p_ver = sub.add_parser("verify", help="replay a certificate file")
    p_ver.add_argument("--cert", required=True, help="path to a certificate JSON file")
    p_ver.add_argument("--format", choices=("json", "text"), default="json")
    p_ver.add_argument("--output", help="output path (default: stdout)")

    return parser


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; other bytes are an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_poly(args: argparse.Namespace) -> tuple[Poly, tuple]:
    if args.input is not None:
        text = _read_text(args.input)
    else:
        text = args.poly
    try:
        direction = as_point(part.strip() for part in args.e.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--e must be comma-separated rationals, got {args.e!r}") from exc
    poly = parse_poly(text, nvars=len(direction))
    return poly, direction


def _rendered(render):
    """render(), refusing an integer past the interpreter's int-string limit
    (4300 digits by default) as an InputError: str() raises ValueError on it."""
    try:
        return render()
    except ValueError:
        raise InputError(f"the output has an integer of more than {sys.get_int_max_str_digits()} "
                         "digits, the interpreter's int-string limit") from None


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2) + "\n"
    else:
        rendered = "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _run_check(args: argparse.Namespace) -> int:
    h, e = _read_poly(args)
    verdict = check_hyperbolic_sampled(h, e, args.samples, args.seed)
    payload: dict = {"schema": SCHEMA, "command": "check",
                     "hyperbolicity": verdict.to_json_dict()}
    lines = [f"hyperbolicity: {verdict.status}"]
    if verdict.witness is not None:
        lines.append(f"  witness offset: ({', '.join(str(c) for c in verdict.witness)})")
    exit_code = EXIT_OK
    if verdict.status == NOT_HYPERBOLIC:
        payload["pd_witness"] = None
        exit_code = EXIT_REFUSED
    else:
        report = pd_witness_check(verdict.context, args.samples, args.seed)
        payload["pd_witness"] = report.to_json_dict()
        lines.append(f"pd_witness: {'ok' if report.ok else SINGULAR_SUSPECTED}")
        if report.witness is not None:
            lines.append(f"  witness point: ({', '.join(str(c) for c in report.witness)})")
        if not report.ok:
            payload["status"] = SINGULAR_SUSPECTED
            exit_code = EXIT_REFUSED
    _emit(args, payload, lines)
    return exit_code


def _run_bezoutian(args: argparse.Namespace) -> int:
    h, e = _read_poly(args)
    h_norm, _ = normalize_direction(h, e)
    ctx = QuotientContext(h_norm)
    forms = [bezoutian_of(ctx, p) for p in (Poly.one(ctx.nvars), ctx.h.derivative(0))]
    h_monic, delta, omega0 = _rendered(
        lambda: [str(ctx.h)] + [[[str(e) for e in row] for row in form] for form in forms])
    payload = {
        "schema": SCHEMA,
        "command": "bezoutian",
        "h_monic": h_monic,
        "delta": delta,
        "dh_dx0": omega0,
    }
    lines = [f"h_monic: {h_monic}", "delta:"]
    lines += ["  [" + ", ".join(row) + "]" for row in delta]
    lines.append("bezoutian of dh/dx0:")
    lines += ["  [" + ", ".join(row) + "]" for row in omega0]
    _emit(args, payload, lines)
    return EXIT_OK


def _run_certify(args: argparse.Namespace) -> int:
    h, e = _read_poly(args)
    options = CertifyOptions(lmax=args.lmax, num_samples=args.samples, seed=args.seed)
    cert = certify(h, e, options)
    payload, lines = _rendered(lambda: (cert.to_json_dict(), [
        f"certificate: N={cert.size}",
        f"cofactor: {cert.cofactor}",
        f"multiplier: {cert.multiplier}",
        f"weights: ({', '.join(str(w) for w in cert.weights)})",
        "checked: h_monic divides the pencil determinant",
    ]))
    _emit(args, payload, lines)
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    cert = DetRepCertificate.from_json(_read_text(args.cert))
    ok, diagnostics = verify_certificate(cert)
    payload = {"schema": SCHEMA, "command": "verify", "valid": ok, "diagnostics": diagnostics}
    lines = [f"valid: {str(ok).lower()}"] + [f"  {d}" for d in diagnostics]
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_REFUSED


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "bezoutian":
            return _run_bezoutian(args)
        if args.command == "certify":
            return _run_certify(args)
        return _run_verify(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HyperdetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
