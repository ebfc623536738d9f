"""Batch command line for the recurrence engine.

Every run echoes its resolved configuration at the top of the output
(a "config" key in JSON, a leading comment line otherwise).  Exit codes:
0 success / SUPPORTED, 1 usage error, 2 mathematical refutation (with a
certificate on stdout), 3 internal error (one line on stderr).

The handlers that build weight tables import the engine (`recurrence`,
`asymptotics` and with them numpy and `dataclasses`) when they run, so the
tableau and counting commands start without either.  A command whose walk
over every filling passes the window limit is refused before the walk
starts; filling counts are read off binomials, so a large --n builds
nothing of its length.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .kostka import kostka, polynomiality_check, schur_in_m_basis
from .partitions import Partition, format_partition, parse_entries, parse_partition
from .polynomials import char_poly, skew_schur
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


def _int_at_least(low: int, kind: str):
    """An argparse type for integers >= low, so the parser names the option."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {value}")
        return value

    return parse


_positive = _int_at_least(1, "a positive integer")
_nonnegative = _int_at_least(0, "a nonnegative integer")


def _arg(*flags: str, **options) -> tuple:
    return flags, options


# Argument groups shared by several commands.  Each dest is echoed in the
# config of every output, so a new dest would change every golden file.
_SHAPE = (
    _arg("--outer", type=_partition, required=True, help="outer partition, e.g. [2,1]"),
    _arg("--inner", type=_partition, default=Partition(), help="inner partition"),
)
_N = (_arg("--n", type=_positive, required=True, help="number of variables / alphabet bound"),)
_STRETCH = (
    _arg("--mu", type=_partition, required=True, help="outer stretch partition"),
    _arg("--nu", type=_partition, default=Partition(), help="inner stretch partition"),
) + _N
_FAMILY = (
    _arg("--kappa", type=_partition, default=Partition(), help="base outer partition, e.g. [2,1]"),
    _arg("--lambda", type=_partition, default=Partition(), dest="lam", help="base inner partition"),
) + _STRETCH
_COUNT = _arg("--count", type=_positive, default=None, help="number of indices (default set by the degree)")
_SAMPLED = (_COUNT, _arg("--seed", type=int, default=0, help="seed of the random specializations"))
_START = (_arg("--r-override", type=_nonnegative, default=None, help="start index override"),)
_TABLEAU_PAIR = (
    _arg("--t1", required=True, help='tableau JSON, e.g. {"outer":[1],"inner":[],"n":2,"rows":[[1]]}'),
    _arg("--t2", required=True),
)
_WEIGHT = (_arg("--weight", required=True, help="weight vector, e.g. [1,1,1]"),)
_XI = (
    _arg("--xi", default=None, help="comma-separated complex values for x2..xn, e.g. 1,1 or 1+0j"),
    _arg("--xi-radius", type=float, default=None, help="use xi = (R,...,R)"),
)


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "output"):
            continue
        if isinstance(value, Partition):
            value = format_partition(value)
        cfg["lambda" if key == "lam" else key] = value
    return cfg


def _emit(args: argparse.Namespace, code: int, payload: dict, text: Optional[str]) -> int:
    """Write one handler's result in the chosen format and return its exit code.

    A text body continues the `# key=value` config line: it starts with a
    newline, or with more ` key=value` fields for that line.
    """
    cfg = _config_echo(args)
    if args.format == "json":
        doc = json.dumps({"config": cfg, **payload}, indent=2) + "\n"
    else:
        doc = "# " + " ".join(f"{k}={v}" for k, v in cfg.items()) + text
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            raise ValueError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.write(doc)
    return code


def _entries(option: str, text: str, convert=int, kind: str = "an integer") -> list:
    """The entries of an option's raw text (the config echo keeps text); a
    bad entry is a usage error naming the option."""
    try:
        return parse_entries(text, convert, kind)
    except ValueError as exc:
        raise ValueError(f"argument {option}: {exc}") from None


def _family(args) -> tuple:
    return args.kappa, args.lam, args.mu, args.nu, args.n


def _tableaux(args):
    """enumerate the fillings of a skew shape"""
    shape = SkewShape(args.outer, args.inner)
    ts = enumerate_tableaux(shape, args.n)
    payload = {"count": len(ts), "tableaux": [t.to_json_obj() for t in ts]}
    text = f"\n{len(ts)} tableaux of shape {shape} with entries in 1..{args.n}\n"
    return 0, payload, text + "".join(t.to_ascii() + "\n---\n" for t in ts)


def _schur(args):
    """skew Schur polynomial of a shape"""
    poly = skew_schur(SkewShape(args.outer, args.inner), args.n)
    return 0, {"polynomial": poly.to_json_obj()}, f"\n{poly}\n"


def _insert(args):
    """row-insertion product of two tableaux (JSON)"""
    result = insert(Tableau.from_json(args.t1), Tableau.from_json(args.t2))
    return 0, {"tableau": result.to_json_obj()}, f"\n{result.to_ascii()}\n"


def _char_poly(args):
    """characteristic polynomial of a stretch shape"""
    chi = char_poly(args.mu, args.nu, args.n)
    return 0, {"char_poly": chi.to_json_obj()}, f"\n{chi}\n"


def _verify(args):
    """verify the recurrence on a stretched family"""
    from .recurrence import build_sequence, verify_certificate

    seq = build_sequence(*_family(args))
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
    return (0 if cert.ok else REFUTED), payload, None


def _minimal(args):
    """minimal characteristic polynomial of a family"""
    from .recurrence import build_sequence, minimal_report, verify_certificate

    seq = build_sequence(*_family(args))
    chi = char_poly(args.mu, args.nu, args.n)
    count = chi.degree + 3 if args.count is None else args.count
    # first, so an oversized --count is refused before the report is made
    cert = verify_certificate(seq, chi, seq.r, count)
    rep = minimal_report(seq, chi, seed=args.seed)
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
    return (0 if cert.ok else REFUTED), payload, None


def _kostka(args):
    """Kostka coefficient of a shape and weight"""
    value = kostka(SkewShape(args.outer, args.inner), _entries("--weight", args.weight))
    return 0, {"kostka": value}, f"\n{value}\n"


def _m_basis(args):
    """monomial-basis expansion of a skew Schur polynomial"""
    coeffs = schur_in_m_basis(SkewShape(args.outer, args.inner), args.n)
    items = sorted(coeffs.items(), key=lambda kv: (sum(kv[0]), tuple(kv[0])), reverse=True)
    payload = {"coefficients": {format_partition(lam): k for lam, k in items}}
    return 0, payload, "\n" + "".join(f"{format_partition(lam)}: {k}\n" for lam, k in items)


def _conjecture(args):
    """minimal-recurrence conjecture check for a family"""
    from .recurrence import conjecture_check

    report = conjecture_check(*_family(args), count=args.count, seed=args.seed)
    return (0 if report.verdict == "SUPPORTED" else REFUTED), report.to_json_obj(), None


def _polynomiality(args):
    """finite-difference polynomiality of filling counts"""
    report = polynomiality_check(args.mu, args.nu, args.n, args.kmax)
    payload = report.to_json_obj()
    payload["family"] = {"mu": format_partition(args.mu), "nu": format_partition(args.nu), "n": args.n}
    return (0 if report.verdict != "INCONCLUSIVE" else REFUTED), payload, None


def _roots(args):
    """root clouds of circle specializations"""
    from .asymptotics import check_experiment, clouds_to_csv, limit_experiment
    from .recurrence import build_sequence

    if (args.xi is None) == (args.xi_radius is None):
        raise ValueError("exactly one of --xi / --xi-radius is required")
    seq = build_sequence(*_family(args))
    check_experiment(seq, args.kmax)  # before the n - 1 xi are built
    if args.xi is None:
        xi = [complex(args.xi_radius, 0.0)] * (args.n - 1)
    else:
        xi = _entries("--xi", args.xi, complex, "a complex number")
    result = limit_experiment(seq, xi, args.kmax)
    payload = {
        "radius": result.radius,
        "trend_ok": result.trend_ok,
        "deviations": result.deviations,
        "clouds": [
            {"k": c.k, "deviation": c.deviation, "roots": [[z.real, z.imag] for z in c.roots]}
            for c in result.clouds
        ],
    }
    text = f" radius={result.radius} trend_ok={result.trend_ok}\n" + clouds_to_csv(result.clouds)
    return 0, payload, text


# name: (arguments, formats with the default first, handler).  A handler only
# computes: it returns (exit code, JSON payload, text body or None for a
# JSON-only command) for _emit to render, and its docstring is the help line.
_TABLE = {
    "tableaux": (_SHAPE + _N, ("json", "pretty"), _tableaux),
    "schur": (_SHAPE + _N, ("pretty", "json"), _schur),
    "insert": (_TABLEAU_PAIR, ("json", "pretty"), _insert),
    "char-poly": (_STRETCH, ("json", "pretty"), _char_poly),
    "verify": (_FAMILY + _START + (_COUNT,), ("json",), _verify),
    "minimal": (_FAMILY + _SAMPLED, ("json",), _minimal),
    "kostka": (_SHAPE + _WEIGHT, ("pretty", "json"), _kostka),
    "m-basis": (_SHAPE + _N, ("json", "pretty"), _m_basis),
    "conjecture": (_FAMILY + _SAMPLED, ("json",), _conjecture),
    "polynomiality": (_STRETCH + (_arg("--kmax", type=_nonnegative, required=True),), ("json",), _polynomiality),
    "roots": (_FAMILY + _XI + (_arg("--kmax", type=_positive, default=10),), ("csv", "json"), _roots),
}
_COMMANDS = {name: entry[-1] for name, entry in _TABLE.items()}


def build_parser() -> _Parser:
    parser = _Parser(prog="schurrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (arguments, formats, handler) in _TABLE.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0], help=f"output format (default {formats[0]})")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _emit(args, *_COMMANDS[args.command](args))
    except ValueError as exc:  # includes InvalidFamilyError and JSONDecodeError
        sys.stderr.write(f"schurrec {args.command}: error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:  # a failed internal check (RuntimeError) or a fault
        what = "" if isinstance(exc, RuntimeError) else f"{type(exc).__name__}: "
        sys.stderr.write(f"schurrec {args.command}: internal error: {what}{exc}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
