"""Command-line interface.

Subcommands::

    gf <pattern> --mode avoid|once [--format plain|latex|json]
    series <pattern> --mode avoid|once --terms N [--format ...]
    oracle <pattern> --mode avoid|once --max-n N [--also-avoid <pattern>] [--format ...]
    verify <relation-id> [--range A:B] [--terms N]
    identities --max M

Exit codes: 0 success, 1 usage error, 2 unsupported pattern,
3 pattern outside the 132-avoiding class, 4 verification failure.

Every call pays for interpreter start and this import, and with no
bytecode cache each module is compiled on every call.  So this module
imports ``argparse``, ``errors`` and ``patterns`` eagerly, and binds
``algebra``, ``chebyshev``, ``kernels``, ``oracle``, ``engine`` and
``relations`` to ``importlib.util.LazyLoader`` handles: each is in
``sys.modules`` (and an attribute of ``pattgf``) from this import on,
as the benchmark's tracer needs to resolve its entry points, but it is
compiled and executed only on its first attribute access.  ``gf`` and
``series`` never load ``oracle``, ``kernels`` or ``relations``;
``oracle`` never loads ``algebra``, ``chebyshev``, ``engine`` or
``relations``.  Names are read through their module at call time
(``algebra.series_of``), so a rebound entry point is used.  Only this
module creates lazy handles, and before CPython 3.12 a handle's first
access is not thread-safe: load a module before sharing it between
threads.  ``json`` is imported only by the ``--format json`` branches
that print it.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from types import ModuleType

from .errors import (
    EnumerationCapExceeded,
    NotIn132Class,
    PatternError,
    UnsupportedPattern,
)
from .patterns import format_pattern, iter_layered_specs, parse_pattern


def _lazy(name: str) -> ModuleType:
    """``pattgf.<name>``, registered now and executed on first attribute
    access; a module that is already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        # as the import system does; ``import pattgf.engine`` then binds it
        setattr(sys.modules[__package__], name, module)
    return module


algebra = _lazy("algebra")
chebyshev = _lazy("chebyshev")
kernels = _lazy("kernels")  # used through oracle; registered for the tracer
oracle = _lazy("oracle")
engine = _lazy("engine")
relations = _lazy("relations")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_IN_CLASS = 3
EXIT_VERIFY_FAILED = 4


def _known_v_quotient(f: algebra.RationalFunction) -> str | None:
    """Name ``f`` if it is some R_p; R_p's denominator has degree
    floor(p/2), so only p = 2d and 2d + 1 can match a denominator of
    degree d."""
    d = f.den.degree
    for p in (2 * d, 2 * d + 1):
        if p >= 1 and f == chebyshev.r_func(p):
            return f"V_{{{p - 1}}}(x) / V_{{{p}}}(x)"
    return None


def _render_gf(pat, mode: str, f: algebra.RationalFunction, fmt: str) -> str:
    if fmt == "json":
        import json

        payload = {"pattern": format_pattern(pat), "mode": mode}
        payload.update(f.as_json_dict())
        return json.dumps(payload)
    if fmt == "latex":
        note = _known_v_quotient(f)
        return f.latex() + (f"  % = {note}" if note else "")
    return str(f)


def _gf(pat, mode: str) -> algebra.RationalFunction:
    return engine.avoid_gf(pat) if mode == "avoid" else engine.once_gf(pat)


def _cmd_gf(args) -> int:
    pat = parse_pattern(args.pattern)
    print(_render_gf(pat, args.mode, _gf(pat, args.mode), args.format))
    return EXIT_OK


def _cmd_series(args) -> int:
    pat = parse_pattern(args.pattern)
    coeffs = algebra.series_of(_gf(pat, args.mode), args.terms).coeffs
    if args.format == "json":
        import json

        print(json.dumps({"pattern": format_pattern(pat), "mode": args.mode,
                          "series": [str(c) for c in coeffs]}))
    else:
        print(" ".join(map(str, coeffs)))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pat = parse_pattern(args.pattern)
    also = tuple(parse_pattern(t) for t in args.also_avoid)
    if args.mode == "avoid":
        spec = oracle.ConstraintSpec(avoid=(pat,) + also)
    else:
        spec = oracle.ConstraintSpec(avoid=also, contain=pat)
    table = oracle.series(spec, args.max_n)
    if args.format == "json":
        import json

        print(json.dumps(table.to_json()))
    else:
        print(table.to_csv())
    return EXIT_OK


def _parse_range(text: str, default: tuple[int, int]) -> tuple[int, int]:
    if not text:
        return default
    lo, sep, hi = text.partition(":")
    try:
        return (int(lo), int(hi if sep else lo))
    except ValueError:
        raise ValueError(f"--range must be A:B or A with integers A, B, got {text!r}") from None


def _cmd_verify(args) -> int:
    rel = args.relation
    if args.terms is not None and args.terms < 1:
        raise ValueError(f"--terms must be at least 1, got {args.terms}")
    if rel in ("thm31", "thm33", "remark31") and args.terms is not None and args.terms > oracle.COUNT_CAP:
        raise ValueError(f"--terms must be at most oracle.COUNT_CAP = {oracle.COUNT_CAP}, got {args.terms}")
    if rel in ("thm21", "thm23", "thm22feq", "thm32feq") and args.terms is not None:
        raise ValueError(f"{rel} is checked symbolically and does not read --terms")
    if rel in ("thm22feq", "thm32feq") and args.range:
        raise ValueError(f"{rel} has no pattern sizes and does not read --range")
    reports: list[relations.RelationReport] = []
    if rel in ("thm22feq", "thm32feq"):
        reports.append(relations.verify_relation(rel))
    elif rel == "thm21":
        lo, hi = _parse_range(args.range, (1, 4))
        for k in range(max(lo, 1), hi + 1):  # the empty pattern has no maxima
            for perm in oracle.enumerate_avoiders(k):
                reports.append(relations.verify_relation("thm21", perm))
    elif rel in ("thm23", "thm33", "thm31", "remark31"):
        lo, hi = _parse_range(args.range, (2, 5))
        terms = relations.DEFAULT_TERMS if args.terms is None else args.terms
        min_layers = 3 if rel == "remark31" else 2
        for k in range(lo, hi + 1):
            for tops in iter_layered_specs(k, min_layers=min_layers):
                reports.append(relations.verify_relation(rel, tops, terms=terms))
    if not reports:
        raise ValueError(f"{rel}: --range {args.range} has no instances")
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print("\n".join(r.lines()))
    print(f"{rel}: {len(reports) - len(failures)}/{len(reports)} instances hold")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _cmd_identities(args) -> int:
    max_index = args.max
    results = chebyshev.sweep_identities(max_index)
    empty = [part for part, (_, total) in sorted(results.items()) if total == 0]
    if empty:
        raise ValueError(f"no instances over 1..{max_index} for identity part(s) {', '.join(empty)}")
    good = sum(1 for passes, total in results.values() if passes == total)
    for part, (passes, total) in sorted(results.items()):
        if passes != total:
            print(f"identity ({part}): {passes}/{total} instances hold")
    print(f"{good}/{len(results)} identities hold over 1..{max_index}")
    return EXIT_OK if good == len(results) else EXIT_VERIFY_FAILED


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
                            "thm32feq", "thm33"))
    p.add_argument("--range", default="",
                   help="pattern-size range A:B for sweeps; not read by thm22feq/thm32feq")
    p.add_argument("--terms", type=int, default=None,
                   # relations.DEFAULT_TERMS, written out so that building the
                   # parser loads no lazy module
                   help="series order for thm31/thm33/remark31 (default 9); "
                        "not read by the symbolic thm21/thm23/thm22feq/thm32feq")
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
