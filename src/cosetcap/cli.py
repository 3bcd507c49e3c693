"""Command-line front end.

Subcommands: codes (list/show), rate, threshold, sweep, longrep, optimize,
tables.  Stacks are written as layer names joined by " x ", innermost
layer first: A x B encodes with B first.  Channels are depol, indxz,
twopauli, or custom:cX,cY,cZ.  ``longrep --inner n --outer m`` is
``sweep`` on "repX(n) x repZ(m)", which picks the multiset sum or the
long-rep estimator by multiset count like every other repetition top.

Exit codes: 0 success, 1 regression mismatches, 2 validation error
(including a sample count below 1, a threshold tolerance that is not
finite and positive, fewer than one restart, and a code or stack layer
longer than the exact engine's 13 qubits; innermost repetition layers and
repetition tops, which have closed forms, have no such limit, exact or
Monte Carlo), 3 numerical failure (no bracket, enumeration or estimator budget).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .capacity import NoThresholdError, rate, sweep, threshold
from .channels import parse_channel_spec
from .codes import registry_get, registry_names, serialize_code
from .optimize import optimize_channel
from .stacks import CodeStack, MonteCarlo, StackBudgetError, parse_stack_spec
from .tables import TABLE_NAMES, format_results, run_manifest

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_CSV_HEADER = "p,s_rb,rate,method,std_error"


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(x, ".17g")


def _emit_rows(rows, fmt: str, out_path: str | None):
    """Write sweep-style rows as CSV (incrementally) or JSON."""
    sink = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        if fmt == "json":
            payload = [{"p": r.p, "s_rb": r.s_rb, "rate": r.rate,
                        "method": r.method, "std_error": r.std_error} for r in rows]
            sink.write(json.dumps(payload, indent=1) + "\n")
        else:
            sink.write(_CSV_HEADER + "\n")
            for r in rows:
                sink.write(",".join([_fmt(r.p), _fmt(r.s_rb), _fmt(r.rate),
                                     r.method, _fmt(r.std_error)]) + "\n")
                sink.flush()
    finally:
        if out_path:
            sink.close()


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be a:b:steps, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _given(args, *names) -> dict:
    """The named options that were given; the library's defaults stand for
    the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _stack_from_args(args) -> CodeStack:
    stack = parse_stack_spec(args.code)
    if args.samples is not None:
        stack = CodeStack(stack.layers, MonteCarlo(**_given(args, "samples", "seed")))
    return stack


def cmd_codes(args) -> int:
    if args.action == "list":
        for name in registry_names():
            code = registry_get(name)
            print(f"{name:14s} [[{code.n},{code.k}]]  {len(code.generators)} generators")
        print("repZ(n), repX(n)  generated repetition codes, any n (aliases <n>repZ, <n>repX)")
    else:
        print(serialize_code(registry_get(args.name)), end="")
    return EXIT_OK


def cmd_rate(args) -> int:
    stack = _stack_from_args(args)
    family = parse_channel_spec(args.channel)
    value = rate(stack, family, args.p)
    if args.format == "json":
        print(json.dumps({"stack": stack.spec(), "channel": family.spec(),
                          "p": args.p, "rate": value}))
    else:
        print(_fmt(value))
    return EXIT_OK


def cmd_threshold(args) -> int:
    stack = _stack_from_args(args)
    family = parse_channel_spec(args.channel)
    result = threshold(stack, family, **_given(args, "tol"))
    if args.format == "json":
        print(json.dumps({
            "stack": result.stack_spec, "channel": result.family_spec,
            "threshold": result.p_star, "method": result.method,
            "tol": result.tol, "std_error": result.std_error,
            "evals": result.evals}))
    else:
        err = f" +- {result.std_error:.2g}" if result.std_error else f" +- {result.tol:.0e}"
        print(f"{result.p_star:.11f}{err}  ({result.method})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    stack = _stack_from_args(args)
    family = parse_channel_spec(args.channel)
    lo, hi, steps = _parse_range(args.range)
    rows = sweep(stack, family, (lo, hi), steps)
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def cmd_longrep(args) -> int:
    if args.range:
        lo, hi, steps = _parse_range(args.range)
    elif args.p is not None:
        lo, hi, steps = args.p, args.p, 1
    else:
        print("longrep needs --p or --range", file=sys.stderr)
        return EXIT_VALIDATION
    stack = parse_stack_spec(f"repX({args.inner}) x repZ({args.outer})")
    rows = sweep(stack, parse_channel_spec(args.channel), (lo, hi), steps)
    _emit_rows(rows, "csv", args.out)
    return EXIT_OK


def cmd_optimize(args) -> int:
    stack = parse_stack_spec(args.code)
    result = optimize_channel(stack, **_given(args, "restarts", "seed"))
    print(json.dumps(result.to_dict(), indent=1))
    c = result.coefficients
    print(f"{stack.spec() or 'hashing'} & {c[0]:.8f} & {c[1]:.8f} & {c[2]:.8f} & "
          f"{result.non_additivity:.9f} & {result.p_hash:.10f}")
    return EXIT_OK


def cmd_tables(args) -> int:
    names = [args.name] if args.name else list(TABLE_NAMES)
    all_pass = True
    for name in names:
        results = run_manifest(name, tol=args.tol)
        print(format_results(name, results))
        print(f"{name}: {sum(r.seconds for r in results):.2f} s")
        all_pass &= all(r.passed for r in results)
    return EXIT_OK if all_pass else EXIT_DIFF


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetcap",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Coherent-information rates, hashing points and error "
                    "thresholds of stabilizer code stacks over Pauli channels.",
        epilog="Stack grammar: layer names joined by ' x ', innermost layer\n"
               "first. A x B encodes with B first.\n"
               "Channels: depol, indxz, twopauli, custom:cX,cY,cZ.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="list or show registry codes")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="code name for 'show'")
    p.set_defaults(func=cmd_codes)

    def common(p, formats, with_p=False):
        p.add_argument("--code", required=False, default="",
                       help="stack spec, e.g. '5repZ x biased9' (empty = hashing)")
        p.add_argument("--channel", required=True, help="channel spec")
        if with_p:
            p.add_argument("--p", type=float, required=True, help="noise parameter")
        p.add_argument("--samples", type=int, help="Monte Carlo samples (switches to MC)")
        p.add_argument("--seed", type=int, help="Monte Carlo seed")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("rate", help="rate (k - S_RB)/l at one noise level")
    common(p, ["table", "json"], with_p=True)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("threshold",
                       help="bracketed root (Chandrupatla) of the zero-rate noise level")
    common(p, ["table", "json"])
    p.add_argument("--tol", type=float, help="width of the final root bracket")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("sweep", help="rate curve over a parameter range")
    common(p, ["csv", "json"])
    p.add_argument("--range", required=True, help="a:b:steps")
    p.add_argument("--out", help="write the rows to a file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("longrep", help="sweep on repX(inner) x repZ(outer)")
    p.add_argument("--inner", type=int, required=True)
    p.add_argument("--outer", type=int, required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--range", help="a:b:steps sweep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_longrep)

    p = sub.add_parser("optimize", help="search for the most non-additive channel")
    p.add_argument("--code", required=True)
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("tables", help="re-run bundled regression manifests")
    p.add_argument("--name", choices=list(TABLE_NAMES))
    p.add_argument("--tol", type=float, help="override per-cell tolerances")
    p.set_defaults(func=cmd_tables)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors, matching the validation exit code
        return int(exc.code or 0)
    try:
        return args.func(args)
    # the budget error subclasses ValueError, so it is caught first
    except (NoThresholdError, StackBudgetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
