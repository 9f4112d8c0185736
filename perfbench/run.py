"""curvemul benchmark: one command for every workload, traced or not.

    python3 perfbench/run.py --workload stream-f16_13 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from `src/`.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer ones.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
`detail` record with sample counts, percentiles, failures and the
environment.  The exit code is 0 only when every checked output was right.
"""

from __future__ import annotations

import argparse
import json
import sys

import endtoend
import layers
from common import WORKLOADS, Program, environment


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    program = Program()
    if args.trace:
        gate, values, detail = layers.run(program, args.workload, args.seed, args.seconds)
        units = {name: spec[0] for name, spec in layers.METRICS.items()}
    else:
        gate, values, detail = endtoend.run(program, args.workload, args.seed, args.seconds)
        units = {name: spec[0] for name, spec in endtoend.METRICS.items()}

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{args.workload:14} {name:32} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:14} {'error_rate':32} {gate.error_rate:>16.6g} ratio")
    for failure in gate.failures:
        print(f"FAILED {failure}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(), **detail}
    print("detail " + json.dumps(record, sort_keys=True))
    correct = gate.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
