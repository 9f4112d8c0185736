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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvemul",
        description="Finite-field multiplication through curve evaluation "
        "and interpolation, with exact operation accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every structural check on an instance file")
    p.add_argument("file", help="instance JSON file")

    p = sub.add_parser("mul", help="multiply two field elements")
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--x", required=True, help="first operand, comma-separated coordinates")
    p.add_argument("--y", required=True, help="second operand, comma-separated coordinates")

    p = sub.add_parser("selftest", help="compare against the polynomial oracle")
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("bench", help="time repeated products")
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("counts", help="print the per-product operation counts")
    p.add_argument("file", help="instance JSON file")

    p = sub.add_parser(
        "split-search",
        help="find irreducible polynomials whose place splits on the curve",
    )
    p.add_argument("file", help="instance JSON file (supplies the field and curve)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_verify(args) -> int:
    spec = tools.load_instance(args.file)
    report = tools.verify_instance(spec)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_mul(args) -> int:
    spec = tools.load_instance(args.file)
    compiled = compile_instance(spec)
    x = tools.parse_vector(spec.field, args.x, spec.n)
    y = tools.parse_vector(spec.field, args.y, spec.n)
    z, _ = compiled.multiply(x, y)
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
    found = tools.split_search(spec.curve, args.degree, args.trials, args.seed)
    for p in found:
        print(f"{tools.poly_text(spec.field, p)}  coeffs {tools.format_vector(p)}")
    print(f"{len(found)} splitting polynomial(s) of degree {args.degree}")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "mul": _cmd_mul,
    "selftest": _cmd_selftest,
    "bench": _cmd_bench,
    "counts": _cmd_counts,
    "split-search": _cmd_split_search,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (tools.InstanceFileError, InstanceError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
