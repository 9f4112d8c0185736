"""Command-line front end.

Exit codes: 0 on success, 1 when a verification or selftest fails, 2 on
usage, parse, or instance-validation errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import tools
from .engine import InstanceError, compile_instance


def _cmd_verify(args) -> int:
    spec = tools.load_instance(args.file)
    report = tools.verify_instance(spec)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_mul(args) -> int:
    spec = tools.load_instance(args.file)
    # the operands need only the field and n: a malformed one skips compiling
    x = tools.parse_vector(spec.field, args.x, spec.n)
    y = tools.parse_vector(spec.field, args.y, spec.n)
    z, _ = compile_instance(spec).multiply(x, y)
    print(tools.format_vector(z))
    return 0


def _cmd_selftest(args) -> int:
    spec = tools.load_instance(args.file)
    compiled = compile_instance(spec)
    result = tools.selftest(compiled, trials=args.trials, seed=args.seed)
    if result.ok:
        print(f"selftest {spec.name}: {result.trials}/{result.trials} products match the oracle")
        return 0
    x, y, want, got = result.first_failure
    print(f"selftest {spec.name}: {result.failures}/{result.trials} mismatches")
    print(f"first failure: x={tools.format_vector(x)} y={tools.format_vector(y)}")
    print(f"  expected {tools.format_vector(want)}")
    print(f"  got      {tools.format_vector(got)}")
    return 1


def _cmd_bench(args) -> int:
    start = time.perf_counter()
    spec = tools.load_instance(args.file)
    loaded = time.perf_counter()
    compiled = compile_instance(spec)
    compiled_at = time.perf_counter()
    result = tools.bench(compiled, reps=args.reps, seed=args.seed)
    rep = result.report
    print(f"bench {spec.name}: {result.reps} products")
    print(
        f"setup: load {(loaded - start) * 1e3:.1f} ms, "
        f"compile {(compiled_at - loaded) * 1e3:.1f} ms"
    )
    print(f"median {result.median_seconds * 1e6:.1f} us, mean {result.mean_seconds * 1e6:.1f} us")
    print(
        f"per product: {rep.step1_scalar} + {rep.step2_bilinear} + {rep.step3_scalar} "
        f"= {rep.total} base-field multiplications (constant across inputs)"
    )
    return 0


def _cmd_counts(args) -> int:
    spec = tools.load_instance(args.file)
    compiled = compile_instance(spec)
    rep = compiled.report
    n, g = spec.n, spec.g
    degrees = compiled.place_degrees
    print(f"instance {spec.name}: n={n}, genus {g}, place degrees {degrees}")
    print(f"step1_scalar   = {rep.step1_scalar}  (= 2n(2n+g-1))")
    print(f"step2_bilinear = {rep.step2_bilinear}  (kernel costs over the places)")
    print(f"step3_scalar   = {rep.step3_scalar}  (= (2n-1)(2n+g-1))")
    bound = tools.aggregate_bound(n, g, max(degrees))
    print(f"total          = {rep.total}  (bound {bound})")
    return 0


def _cmd_split_search(args) -> int:
    spec = tools.load_instance(args.file)
    # checked here: over GF(2) up to degree 8 split_search scans exhaustively
    # and ignores trials
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    found = tools.split_search(spec.curve, args.degree, args.trials, args.seed)
    for p in found:
        print(f"{tools.poly_text(p)}  coeffs {tools.format_vector(p)}")
    print(f"{len(found)} splitting polynomial(s) of degree {args.degree}")
    return 0


_FILE = ("file", {"help": "instance JSON file"})

# name: (help, handler, arguments as (name or flag, add_argument options))
_COMMANDS = {
    "verify": ("run every structural check on an instance file", _cmd_verify, [_FILE]),
    "mul": ("multiply two field elements", _cmd_mul, [
        _FILE,
        ("--x", {"required": True, "help": "first operand, comma-separated coordinates"}),
        ("--y", {"required": True, "help": "second operand, comma-separated coordinates"}),
    ]),
    "selftest": ("compare against the polynomial oracle", _cmd_selftest, [
        _FILE,
        ("--trials", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "default": 42}),
    ]),
    "bench": ("time repeated products", _cmd_bench, [
        _FILE,
        ("--reps", {"type": int, "default": 50}),
        ("--seed", {"type": int, "default": 7}),
    ]),
    "counts": ("print the per-product operation counts", _cmd_counts, [_FILE]),
    "split-search": (
        "find irreducible polynomials whose place splits on the curve", _cmd_split_search, [
            ("file", {"help": "instance JSON file (supplies the field and curve)"}),
            ("--degree", {"type": int, "required": True}),
            ("--trials", {"type": int, "default": 200}),
            ("--seed", {"type": int, "default": 0}),
        ]),
}


def _build_parser(names=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of the commands `names`."""
    parser = argparse.ArgumentParser(
        prog="curvemul",
        description="Finite-field multiplication through curve evaluation "
        "and interpolation, with exact operation accounting.",
    )
    # usage lines list the subparsers' names: with fewer than all of them,
    # list the full table instead (with all, the errors name "command")
    metavar = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call parses one command, so it builds only that subparser; without a
    # command name first (no argument, -h, a typo) help and errors need all
    names = argv[:1] if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    args = _build_parser(names).parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except (tools.InstanceFileError, InstanceError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
