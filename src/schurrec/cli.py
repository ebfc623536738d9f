"""Batch command line for the recurrence engine.

Every run echoes its resolved configuration at the top of the output
(a "config" key in JSON, a leading comment line otherwise).  Exit codes:
0 success / SUPPORTED, 1 usage error, 2 mathematical refutation (with a
certificate on stdout), 3 internal error (one line on stderr).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .asymptotics import clouds_to_csv, limit_experiment
from .kostka import kostka, schur_in_m_basis
from .partitions import Partition, format_partition, parse_partition
from .polynomials import skew_schur
from .recurrence import (
    InvalidFamilyError,
    build_sequence,
    char_poly,
    conjecture_check,
    minimal_report,
    polynomiality_check,
    verify_certificate,
)
from .tableaux import SkewShape, Tableau, enumerate_tableaux, insert

USAGE_ERROR = 1
REFUTED = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _partition(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=_partition, default=Partition(), help="base outer partition, e.g. [2,1]")
    p.add_argument("--lambda", type=_partition, default=Partition(), dest="lam", help="base inner partition")
    p.add_argument("--mu", type=_partition, required=True, help="outer stretch partition")
    p.add_argument("--nu", type=_partition, default=Partition(), help="inner stretch partition")
    p.add_argument("--n", type=int, required=True, help="number of variables / alphabet bound")


def _add_output_args(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    p.add_argument(
        "--format",
        choices=("json", "csv", "pretty"),
        default=default_format,
        help=f"output format (default {default_format})",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="schurrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableaux", help="enumerate the fillings of a skew shape")
    p.add_argument("--outer", type=_partition, required=True)
    p.add_argument("--inner", type=_partition, default=Partition())
    p.add_argument("--n", type=int, required=True)
    _add_output_args(p, "json")

    p = sub.add_parser("schur", help="skew Schur polynomial of a shape")
    p.add_argument("--outer", type=_partition, required=True)
    p.add_argument("--inner", type=_partition, default=Partition())
    p.add_argument("--n", type=int, required=True)
    _add_output_args(p, "pretty")

    p = sub.add_parser("insert", help="row-insertion product of two tableaux (JSON)")
    p.add_argument("--t1", required=True, help='tableau JSON, e.g. {"outer":[1],"inner":[],"n":2,"rows":[[1]]}')
    p.add_argument("--t2", required=True)
    _add_output_args(p, "json")

    p = sub.add_parser("char-poly", help="characteristic polynomial of a stretch shape")
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, default=Partition())
    p.add_argument("--n", type=int, required=True)
    _add_output_args(p, "json")

    p = sub.add_parser("verify", help="verify the recurrence on a stretched family")
    _add_family_args(p)
    p.add_argument("--r-override", type=int, default=None, help="start index override")
    p.add_argument("--count", type=int, default=None, help="number of indices (default deg+3)")
    _add_output_args(p, "json")

    p = sub.add_parser("minimal", help="minimal characteristic polynomial of a family")
    _add_family_args(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p, "json")

    p = sub.add_parser("kostka", help="Kostka coefficient of a shape and weight")
    p.add_argument("--outer", type=_partition, required=True)
    p.add_argument("--inner", type=_partition, default=Partition())
    p.add_argument("--weight", required=True, help="weight vector, e.g. [1,1,1]")
    _add_output_args(p, "pretty")

    p = sub.add_parser("m-basis", help="monomial-basis expansion of a skew Schur polynomial")
    p.add_argument("--outer", type=_partition, required=True)
    p.add_argument("--inner", type=_partition, default=Partition())
    p.add_argument("--n", type=int, required=True)
    _add_output_args(p, "json")

    p = sub.add_parser("conjecture", help="minimal-recurrence conjecture check for a family")
    _add_family_args(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p, "json")

    p = sub.add_parser("polynomiality", help="finite-difference polynomiality of filling counts")
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, default=Partition())
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    _add_output_args(p, "json")

    p = sub.add_parser("roots", help="root clouds of circle specializations")
    _add_family_args(p)
    p.add_argument("--xi", default=None, help="comma-separated complex values for x2..xn, e.g. 1,1 or 1+0j")
    p.add_argument("--xi-radius", type=float, default=None, help="use xi = (R,...,R)")
    p.add_argument("--kmax", type=int, default=10)
    _add_output_args(p, "csv")

    return parser


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key == "output":
            continue
        if isinstance(value, Partition):
            value = format_partition(value)
        cfg["lambda" if key == "lam" else key] = value
    cfg["command"] = args.command
    return {"command": cfg.pop("command"), **cfg}


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(args: argparse.Namespace, payload: dict) -> str:
    return json.dumps({"config": _config_echo(args), **payload}, indent=2) + "\n"


def _comment_line(args: argparse.Namespace) -> str:
    cfg = _config_echo(args)
    return "# " + " ".join(f"{k}={v}" for k, v in cfg.items()) + "\n"


def _parse_weight(text: str) -> tuple[int, ...]:
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    if not s.strip():
        return ()
    return tuple(int(tok) for tok in s.split(","))


def _cmd_tableaux(args) -> int:
    shape = SkewShape(args.outer, args.inner)
    ts = enumerate_tableaux(shape, args.n)
    if args.format == "pretty":
        blocks = [_comment_line(args), f"{len(ts)} tableaux of shape {shape} with entries in 1..{args.n}\n"]
        for t in ts:
            blocks.append(t.to_ascii() + "\n---\n")
        _emit(args, "".join(blocks))
    else:
        payload = {"count": len(ts), "tableaux": [json.loads(t.to_json()) for t in ts]}
        _emit(args, _json_doc(args, payload))
    return 0


def _cmd_schur(args) -> int:
    shape = SkewShape(args.outer, args.inner)
    poly = skew_schur(shape, args.n)
    if args.format == "pretty":
        _emit(args, _comment_line(args) + str(poly) + "\n")
    else:
        _emit(args, _json_doc(args, {"polynomial": poly.to_json_obj()}))
    return 0


def _cmd_insert(args) -> int:
    t1 = Tableau.from_json(args.t1)
    t2 = Tableau.from_json(args.t2)
    result = insert(t1, t2)
    if args.format == "pretty":
        _emit(args, _comment_line(args) + result.to_ascii() + "\n")
    else:
        _emit(args, _json_doc(args, {"tableau": json.loads(result.to_json())}))
    return 0


def _cmd_char_poly(args) -> int:
    chi = char_poly(args.mu, args.nu, args.n)
    if args.format == "pretty":
        _emit(args, _comment_line(args) + str(chi) + "\n")
    else:
        _emit(args, _json_doc(args, {"char_poly": chi.to_json_obj()}))
    return 0


def _cmd_verify(args) -> int:
    seq = build_sequence(args.kappa, args.lam, args.mu, args.nu, args.n)
    chi = char_poly(args.mu, args.nu, args.n)
    start = seq.r if args.r_override is None else args.r_override
    count = chi.degree + 3 if args.count is None else args.count
    cert = verify_certificate(seq, chi, start, count)
    payload = {
        "family": seq.family_json(),
        "degree": chi.degree,
        "start": start,
        "verified_upto": start + count - 1 if cert.ok else None,
        "ok": cert.ok,
    }
    if not cert.ok:
        payload["refuted_at"] = cert.failed_k
        payload["residual"] = cert.residual.to_json_obj()
    _emit(args, _json_doc(args, payload))
    return 0 if cert.ok else REFUTED


def _cmd_minimal(args) -> int:
    seq = build_sequence(args.kappa, args.lam, args.mu, args.nu, args.n)
    chi = char_poly(args.mu, args.nu, args.n)
    rep = minimal_report(seq, chi, seed=args.seed)
    count = chi.degree + 3 if args.count is None else args.count
    cert = verify_certificate(seq, chi, seq.r, count)
    payload = {
        "family": seq.family_json(),
        "r": seq.r,
        "degree": chi.degree,
        "verified_upto": seq.r + count - 1 if cert.ok else None,
        "minimal_degree": rep.char_poly.degree,
        "W": [list(w) for w in rep.weights],
        "removed": [list(w) for w in rep.removed],
        "bm_degrees": rep.bm_degrees,
        "specializations": [list(p) for p in rep.specializations],
        "seed": args.seed,
    }
    _emit(args, _json_doc(args, payload))
    return 0 if cert.ok else REFUTED


def _cmd_kostka(args) -> int:
    shape = SkewShape(args.outer, args.inner)
    value = kostka(shape, _parse_weight(args.weight))
    if args.format == "pretty":
        _emit(args, _comment_line(args) + f"{value}\n")
    else:
        _emit(args, _json_doc(args, {"kostka": value}))
    return 0


def _cmd_m_basis(args) -> int:
    shape = SkewShape(args.outer, args.inner)
    coeffs = schur_in_m_basis(shape, args.n)
    items = sorted(coeffs.items(), key=lambda kv: (sum(kv[0]), tuple(kv[0])), reverse=True)
    payload = {"coefficients": {format_partition(lam): k for lam, k in items}}
    if args.format == "pretty":
        body = "".join(f"{format_partition(lam)}: {k}\n" for lam, k in items)
        _emit(args, _comment_line(args) + body)
    else:
        _emit(args, _json_doc(args, payload))
    return 0


def _cmd_conjecture(args) -> int:
    report = conjecture_check(
        args.kappa, args.lam, args.mu, args.nu, args.n, count=args.count, seed=args.seed
    )
    _emit(args, _json_doc(args, report.to_json_obj()))
    return 0 if report.verdict == "SUPPORTED" else REFUTED


def _cmd_polynomiality(args) -> int:
    report = polynomiality_check(args.mu, args.nu, args.n, args.kmax)
    payload = report.to_json_obj()
    payload["family"] = {"mu": format_partition(args.mu), "nu": format_partition(args.nu), "n": args.n}
    _emit(args, _json_doc(args, payload))
    return 0 if report.verdict != "INCONCLUSIVE" else REFUTED


def _cmd_roots(args) -> int:
    if (args.xi is None) == (args.xi_radius is None):
        raise SystemExit(_usage_error("exactly one of --xi / --xi-radius is required"))
    if args.xi is not None:
        xi = [complex(tok) for tok in args.xi.split(",") if tok.strip()]
    else:
        xi = [complex(args.xi_radius, 0.0)] * (args.n - 1)
    seq = build_sequence(args.kappa, args.lam, args.mu, args.nu, args.n)
    result = limit_experiment(seq, xi, args.kmax)
    if args.format == "json":
        payload = {
            "radius": result.radius,
            "trend_ok": result.trend_ok,
            "deviations": result.deviations,
            "clouds": [
                {
                    "k": c.k,
                    "deviation": c.deviation,
                    "roots": [[z.real, z.imag] for z in c.roots],
                }
                for c in result.clouds
            ],
        }
        _emit(args, _json_doc(args, payload))
    else:
        header = _comment_line(args).rstrip("\n")
        header += f" radius={result.radius} trend_ok={result.trend_ok}\n"
        _emit(args, header + clouds_to_csv(result.clouds))
    return 0


def _usage_error(message: str) -> int:
    sys.stderr.write(f"schurrec: error: {message}\n")
    return USAGE_ERROR


_COMMANDS = {
    "tableaux": _cmd_tableaux,
    "schur": _cmd_schur,
    "insert": _cmd_insert,
    "char-poly": _cmd_char_poly,
    "verify": _cmd_verify,
    "minimal": _cmd_minimal,
    "kostka": _cmd_kostka,
    "m-basis": _cmd_m_basis,
    "conjecture": _cmd_conjecture,
    "polynomiality": _cmd_polynomiality,
    "roots": _cmd_roots,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (InvalidFamilyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"schurrec {args.command}: error: {exc}\n")
        return USAGE_ERROR
    except RuntimeError as exc:
        sys.stderr.write(f"schurrec {args.command}: internal error: {exc}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
