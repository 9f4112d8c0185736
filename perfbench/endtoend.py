"""The end-to-end run, with tracing off.

Every workload runs cycles over its instances.  One cycle loads and compiles
each instance file, runs rounds of one checked product on each fresh
multiplier, then calls `cli.main(["mul", ...])` on each file: what every
`curvemul mul` call pays.

- A stream workload streams products through the multiplier of its first
  cycle for the measured seconds, in parts with cycles before each, so that
  set-up is sampled across the whole run.  Operands and the oracle's
  answers are made batch by batch outside the timed section; only the
  `multiply` calls are timed.
- `cold-start` runs cycles for the measured seconds.  A product sample there
  is one round: its latency is the sum of three `multiply` calls, one per
  instance, and it counts as three products.

Every timed section is divided by the host's slow-down measured around it
(`HostSpeed`), so that it reads as on the unloaded reference host; the
detail record gives the run's median slow-down and unscaled figures.
`products_per_s` is products over the scaled time spent in `multiply`; the
latency percentiles are over all scaled product samples.  `setup_s` and
`cold_mul_s` are medians of the per-cycle sums.
"""

from __future__ import annotations

import statistics
import time
from array import array

from common import (
    WORKLOADS,
    Gate,
    HostSpeed,
    Program,
    check_cli,
    cli_mul,
    operand,
    operand_rng,
    peak_rss_mb,
    percentile,
    summary,
    tail_pct,
    timed_setup,
)

# name -> (unit, better)
METRICS = {
    "products_per_s": ("1/s", "higher"),
    "product_p50_us": ("us", "lower"),
    "product_p99_us": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "cold_mul_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

STREAM_PARTS = 12  # a stream run has this many parts, with cycles before each
CYCLE_SHARE = 0.2  # time on cycles in a stream run, as a share of --seconds
MIN_COLD_CYCLES = 5
COLD_ROUNDS = 80  # rounds of products per cold-start cycle
BATCH = 64  # products per timed batch; the oracle runs between batches


class Run:
    """One untraced run: the gate, the raw timings and the host-speed probe.

    Each timing is stored with the index of the host-speed sample that
    closes its section, and scaled when the run is over.
    """

    def __init__(self, program: Program, workload: str, seed: int) -> None:
        self.program = program
        self.names = WORKLOADS[workload]
        self.rng = operand_rng(workload, seed)
        self.gate = Gate()
        self.host = HostSpeed()
        self.products = array("q")  # unscaled latency (ns) of each product sample
        self.closed: list[tuple[int, int]] = []  # (end in products, closing sample)
        self.open_ns = 0  # product time since the last closing sample
        self.setups: list[list] = []  # per cycle: [(seconds, closing sample), ...]
        self.clis: list[list] = []

    def checked_pair(self, spec):
        x, y = operand(self.rng, spec.field, spec.n), operand(self.rng, spec.field, spec.n)
        return x, y, self.program.engine.reference_mul(spec.field, spec.q_modulus, x, y)

    def add_product(self, ns: int) -> None:
        self.products.append(ns)
        self.open_ns += ns
        if self.open_ns >= HostSpeed.INTERVAL_NS:
            self.close_products()

    def close_products(self) -> None:
        if self.open_ns:
            self.closed.append((len(self.products), self.host.sample()))
            self.open_ns = 0

    def cycle(self, rounds: int) -> dict:
        """One cold cycle with `rounds` rounds of products; returns
        {name: (spec, compiled)}."""
        p, host = self.program, self.host
        setups, clis = [], []
        built = {}
        for name in self.names:
            spec, compiled, seconds = timed_setup(p, p.instance_path(name))
            setups.append((seconds, host.sample()))
            built[name] = (spec, compiled)
        for _ in range(rounds):
            batch = [(name, *self.checked_pair(built[name][0])) for name in self.names]
            elapsed = 0
            for name, x, y, want in batch:
                ns, result = timed_product(built[name][1], x, y)
                elapsed += ns
                self.gate.check_product(name, x, y, result, want)
            self.add_product(elapsed)
        self.close_products()
        for name in self.names:
            x, y, want = self.checked_pair(built[name][0])
            seconds, code, out, problem = cli_mul(p, p.instance_path(name), x, y)
            clis.append((seconds, host.sample()))
            check_cli(self.gate, name, code, out, problem, want)
        self.setups.append(setups)
        self.clis.append(clis)
        return built

    def stream(self, name, spec, compiled, seconds: float) -> None:
        """Products in a closed loop for `seconds` of wall time."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            batch = [self.checked_pair(spec) for _ in range(BATCH)]
            results = []
            for x, y, _ in batch:
                ns, result = timed_product(compiled, x, y)
                self.add_product(ns)
                results.append(result)
            for (x, y, want), result in zip(batch, results):
                self.gate.check_product(name, x, y, result, want)
        self.close_products()

    def scaled_products(self) -> list[float]:
        out, begin = [], 0
        for end, sample in self.closed:
            factor = self.host.factor(sample)
            out.extend(ns / factor for ns in self.products[begin:end])
            begin = end
        return out

    def scaled_sums(self, cycles) -> list[float]:
        """Per-cycle sums of scaled section times."""
        return [sum(s / self.host.factor(i) for s, i in cycle) for cycle in cycles]


def timed_product(compiled, x, y):
    """(latency in ns, result or the exception `multiply` raised)."""
    start = time.perf_counter_ns()
    try:
        result = compiled.multiply(x, y)
    except Exception as e:  # a failed product, counted by the gate
        result = e
    return time.perf_counter_ns() - start, result


def run(program: Program, workload: str, seed: int, seconds: float):
    """Returns (gate, metrics, detail) for one untraced run."""
    r = Run(program, workload, seed)
    if len(r.names) == 1:
        name = r.names[0]
        part = seconds / STREAM_PARTS
        first = None
        for _ in range(STREAM_PARTS):
            cycles_end = time.perf_counter() + CYCLE_SHARE * part
            built = r.cycle(0)
            while time.perf_counter() < cycles_end:
                r.cycle(0)
            spec, compiled = (first := first or built)[name]
            r.stream(name, spec, compiled, part)
    else:
        deadline = time.perf_counter() + seconds
        while len(r.setups) < MIN_COLD_CYCLES or time.perf_counter() < deadline:
            r.cycle(COLD_ROUNDS)
    peak = peak_rss_mb()

    ordered = sorted(r.scaled_products())
    p99_pct = tail_pct(len(ordered), cap=99.0) or 50.0
    # a cold-start sample is one round: one product per instance
    products = len(ordered) * len(r.names)
    setups, clis = r.scaled_sums(r.setups), r.scaled_sums(r.clis)
    metrics = {
        "products_per_s": products * 1e9 / sum(ordered),
        "product_p50_us": statistics.median(ordered) / 1e3,
        "product_p99_us": percentile(ordered, p99_pct) / 1e3,
        "setup_s": statistics.median(setups),
        "cold_mul_s": statistics.median(clis),
        "peak_rss_mb": peak,
    }
    detail = {
        "error_rate": r.gate.error_rate,
        "cycles": len(setups),
        "host_slowdown_median": r.host.run_factor,
        "host_speed_samples": len(r.host.samples),
        "product_p99_us_percentile": p99_pct,
        "product_us": summary(ordered, 1e-3),
        "setup_s": summary(setups),
        "cold_mul_s": summary(clis),
        "unscaled": {
            "products_per_s": products * 1e9 / sum(r.products),
            "product_us": summary(r.products, 1e-3),
            "setup_s": summary([sum(s for s, _ in c) for c in r.setups]),
            "cold_mul_s": summary([sum(s for s, _ in c) for c in r.clis]),
        },
    }
    return r.gate, metrics, detail
