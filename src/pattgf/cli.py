"""Command-line interface.

Subcommands::

    gf <pattern> --mode avoid|once [--format plain|latex|json]
    series <pattern> --mode avoid|once --terms N [--format ...]
    oracle <pattern> --mode avoid|once --max-n N [--also-avoid <pattern>] [--format ...]
    verify <relation-id> [--range A:B] [--terms N] [--max M]
    identities --max M

Exit codes: 0 success, 1 usage error, 2 unsupported pattern,
3 pattern outside the 132-avoiding class, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine, oracle, relations
from .algebra import RationalFunction
from .chebyshev import sweep_identities, v_poly
from .errors import (
    EnumerationCapExceeded,
    NotIn132Class,
    PatternError,
    UnsupportedPattern,
)
from .patterns import format_pattern, iter_layered_specs, parse_pattern
from .oracle import ConstraintSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_IN_CLASS = 3
EXIT_VERIFY_FAILED = 4


def _known_v_quotient(f: RationalFunction) -> str | None:
    """Name ``f`` if it is some R_p, whose canonical form is (V_{p-1}, V_p)
    with deg V_p = floor(p/2)."""
    d = f.den.degree
    for p in (2 * d, 2 * d + 1):
        if p >= 1 and f.den == v_poly(p) and f.num == v_poly(p - 1):
            return f"V_{{{p - 1}}}(x) / V_{{{p}}}(x)"
    return None


def _render_gf(pat, mode: str, f: RationalFunction, fmt: str) -> str:
    if fmt == "json":
        payload = {"pattern": format_pattern(pat), "mode": mode}
        payload.update(f.as_json_dict())
        return json.dumps(payload)
    if fmt == "latex":
        note = _known_v_quotient(f)
        return f.latex() + (f"  % = {note}" if note else "")
    return str(f)


def _cmd_gf(args) -> int:
    pat = parse_pattern(args.pattern)
    print(_render_gf(pat, args.mode, engine.compute_gf(pat, args.mode), args.format))
    return EXIT_OK


def _cmd_series(args) -> int:
    if args.terms < 0:
        raise ValueError(f"--terms must be at least 0, got {args.terms}")
    pat = parse_pattern(args.pattern)
    coeffs = engine.series_of(engine.compute_gf(pat, args.mode), args.terms).coeffs
    if args.format == "json":
        print(json.dumps({"pattern": format_pattern(pat), "mode": args.mode,
                          "series": [str(int(c)) for c in coeffs]}))
    else:
        print(" ".join(str(int(c)) for c in coeffs))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pat = parse_pattern(args.pattern)
    also = tuple(parse_pattern(t) for t in args.also_avoid)
    if args.mode == "avoid":
        spec = ConstraintSpec(avoid=(pat,) + also)
    else:
        spec = ConstraintSpec(avoid=also, contain=pat)
    table = oracle.series(spec, args.max_n)
    if args.format == "json":
        print(json.dumps(table.to_json()))
    else:
        print(table.to_csv())
    return EXIT_OK


def _parse_range(text: str, default: tuple[int, int]) -> tuple[int, int]:
    if not text:
        return default
    lo, _, hi = text.partition(":")
    try:
        return (int(lo), int(hi or lo))
    except ValueError:
        raise ValueError(f"--range must be A:B or A with integers A, B, got {text!r}") from None


def _cmd_verify(args) -> int:
    rel = args.relation
    if args.terms is not None and args.terms < 1:
        raise ValueError(f"--terms must be at least 1, got {args.terms}")
    if rel in ("thm31", "thm33", "remark31") and args.terms is not None and args.terms > oracle.COUNT_CAP:
        raise ValueError(f"--terms must be at most oracle.COUNT_CAP = {oracle.COUNT_CAP}, got {args.terms}")
    reports: list[relations.RelationReport] = []
    if rel == "lemma41":
        return _identities(args.max)
    if rel in ("thm22feq", "thm32feq"):
        reports.append(relations.verify_relation(rel, orders=(10 if args.terms is None else args.terms, 8)))
    elif rel == "thm21":
        lo, hi = _parse_range(args.range, (1, 4))
        for k in range(max(lo, 1), hi + 1):  # the empty pattern has no maxima
            for perm in oracle.enumerate_avoiders(k):
                reports.append(relations.verify_relation("thm21", perm))
    elif rel in ("thm23", "thm33", "thm31", "remark31"):
        lo, hi = _parse_range(args.range, (2, 5))
        terms = 9 if args.terms is None else args.terms
        min_layers = 3 if rel == "remark31" else 2
        for k in range(lo, hi + 1):
            for tops in iter_layered_specs(k, min_layers=min_layers):
                reports.append(relations.verify_relation(rel, tops, terms=terms))
    else:
        raise PatternError(f"unknown relation {rel!r}")
    if not reports:
        raise ValueError(f"{rel}: --range {args.range} has no instances")
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print("\n".join(r.lines()))
    print(f"{rel}: {len(reports) - len(failures)}/{len(reports)} instances hold")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _identities(max_index: int) -> int:
    results = sweep_identities(max_index)
    empty = [part for part, (_, total) in sorted(results.items()) if total == 0]
    if empty:
        raise ValueError(f"no instances over 1..{max_index} for identity part(s) {', '.join(empty)}")
    good = sum(1 for passes, total in results.values() if passes == total)
    for part, (passes, total) in sorted(results.items()):
        if passes != total:
            print(f"identity ({part}): {passes}/{total} instances hold")
    print(f"{good}/{len(results)} identities hold over 1..{max_index}")
    return EXIT_OK if good == len(results) else EXIT_VERIFY_FAILED


def _cmd_identities(args) -> int:
    return _identities(args.max)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pattgf",
        description="Exact counting of 132-avoiding permutations under an extra pattern restriction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gf", help="closed-form generating function for a pattern")
    p.add_argument("pattern")
    p.add_argument("--mode", choices=("avoid", "once"), default="avoid")
    p.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("series", help="initial coefficients of the generating function")
    p.add_argument("pattern")
    p.add_argument("--mode", choices=("avoid", "once"), default="avoid")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("oracle", help="exact count table from the counting DP")
    p.add_argument("pattern")
    p.add_argument("--mode", choices=("avoid", "once"), default="avoid")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--also-avoid", action="append", default=[],
                   help="additional avoided pattern (repeatable)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check a structural relation")
    p.add_argument("relation",
                   choices=("thm21", "thm22feq", "thm23", "thm31", "remark31",
                            "thm32feq", "thm33", "lemma41"))
    p.add_argument("--range", default="", help="pattern-size range A:B for sweeps")
    p.add_argument("--terms", type=int, default=None,
                   help="series order for numeric checks (default 9; 10 for thm22feq/thm32feq)")
    p.add_argument("--max", type=int, default=12, help="index bound for lemma41")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identities", help="exact product-identity sweep")
    p.add_argument("--max", type=int, default=12)
    p.set_defaults(func=_cmd_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NotIn132Class as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_CLASS
    except UnsupportedPattern as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (PatternError, EnumerationCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
