"""The traced run: per-layer metrics from spans around calls into each module.

Spans are recorded here, in the benchmark, around public calls into the
package modules `galois`, `tools`, `curve`, `linalg`, `kernels`, `engine`
and `cli`; nothing inside `src/` is instrumented.  Each span has a name, a
start, an end, its parent span and a trace id shared by the spans of one
cycle or one product.  Spans stay in memory and are written to
`perfbench/out/` when the run ends.

A product is traced as the `multiply` call, then a step-by-step replay
(`linalg.mat_vec` on `T_x` and `T_y`, `KernelPlan.hadamard`, `linalg.mat_vec`
on `T_inv_top`, the step-4 XOR) that must give the same output, then the
oracle.  Compile phases are replayed after `compile_instance` the same way.
If the multiplier no longer has an attribute a replay reads, the layers it
feeds are reported absent and the run goes on.

Timings are medians of span durations divided by the run's median host
slow-down (`common.HostSpeed`, sampled before every traced product), as
in the end-to-end run.  On a stream workload every metric is that of its
instance.  On `cold-start`
timings and counts are summed over the three instances and ratios are taken
of the sums; the per-instance values, named `<instance>.<metric>`, are in
the detail record.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time

from common import (
    ROOT,
    WORKLOADS,
    Gate,
    HostSpeed,
    Program,
    check_cli,
    cli_mul,
    operand,
    operand_rng,
)

STREAM = "stream-f16_13 and stream-f2_5"
SETUP = "setup_s and cold_mul_s on cold-start; no change on the streams"
COMPILE = "setup_s on cold-start, where f16_13 dominates; no change on the streams"
STEPS_1_3 = "products_per_s and product_p50_us, mostly on stream-f16_13, less on stream-f2_5"
PER_CALL = f"products_per_s and product_p50_us on {STREAM}, stream-f2_5 the more sensitive"
ORACLE = "no end-to-end metric: the oracle runs outside every timed window"
PINNED = "no end-to-end metric: pinned to the paper on every workload"

# name -> (unit, better, the end-to-end metric and workload it should move)
METRICS = {
    "galois.BinaryField.mul.ns": ("ns", "lower", "every end-to-end metric on every workload"),
    "galois.is_irreducible.ms": ("ms", "lower", SETUP),
    "tools.load_instance.ms": ("ms", "lower", SETUP),
    "load.irreducible_share": ("ratio", "lower", SETUP),
    "engine.verify_good_basis.ms": ("ms", "lower", COMPILE),
    "curve.evaluate.ms": ("ms", "lower", COMPILE),
    "linalg.rank.ms": ("ms", "lower", COMPILE),
    "linalg.invert.ms": ("ms", "lower", COMPILE),
    "engine.compile_instance.ms": ("ms", "lower", COMPILE),
    "linalg.mat_vec.step1.us": ("us", "lower", STEPS_1_3),
    "kernels.hadamard.step2.us": (
        "us", "lower", "products_per_s on stream-f2_5; no change on stream-f16_13"),
    "linalg.mat_vec.step3.us": ("us", "lower", STEPS_1_3),
    "engine.multiply.us": ("us", "lower", PER_CALL),
    "engine.multiply.self_us": ("us", "lower", PER_CALL),
    "cli.main.mul.ms": ("ms", "lower", "cold_mul_s on every workload"),
    "engine.reference_mul.us": ("us", "lower", ORACLE),
    "engine.multiply_per_oracle": (
        "ratio", "lower", ORACLE + "; its base is engine.reference_mul.us"),
    "engine.step1_scalar": ("count", "lower", PINNED),
    "engine.step2_bilinear": ("count", "lower", PINNED),
    "engine.step3_scalar": ("count", "lower", PINNED),
    "linalg.step1.nontrivial": ("count", "lower", "products_per_s on stream-f16_13"),
    "linalg.step3.nontrivial": ("count", "lower", "products_per_s on stream-f16_13"),
    "trace.overhead_pct": ("%", "lower", "none: the cost of the spans themselves"),
}

# span name -> (metric, ns per unit of the metric)
SPAN_METRICS = {
    "galois.is_irreducible": ("galois.is_irreducible.ms", 1e6),
    "tools.load_instance": ("tools.load_instance.ms", 1e6),
    "engine.verify_good_basis": ("engine.verify_good_basis.ms", 1e6),
    "curve.evaluate": ("curve.evaluate.ms", 1e6),
    "linalg.rank": ("linalg.rank.ms", 1e6),
    "linalg.invert": ("linalg.invert.ms", 1e6),
    "engine.compile_instance": ("engine.compile_instance.ms", 1e6),
    "linalg.mat_vec.step1": ("linalg.mat_vec.step1.us", 1e3),
    "kernels.hadamard.step2": ("kernels.hadamard.step2.us", 1e3),
    "linalg.mat_vec.step3": ("linalg.mat_vec.step3.us", 1e3),
    "engine.multiply": ("engine.multiply.us", 1e3),
    "cli.main.mul": ("cli.main.mul.ms", 1e6),
    "engine.reference_mul": ("engine.reference_mul.us", 1e3),
}
COUNTS = ("engine.step1_scalar", "engine.step2_bilinear", "engine.step3_scalar",
          "linalg.step1.nontrivial", "linalg.step3.nontrivial")
REPLAYED_STEPS = ("linalg.mat_vec.step1.us", "kernels.hadamard.step2.us",
                  "linalg.mat_vec.step3.us", "engine.multiply.self_us")

STREAM_CYCLES = 5
MIN_COLD_CYCLES = 5
TRACE_PRODUCTS = 4000  # traced products per stream run, to bound the span log
MUL_POOL = 2000  # BinaryField.mul calls per timed pool pass
OVERHEAD_PAIRS = 20
OVERHEAD_SEGMENT_S = 0.1


class Span:
    __slots__ = ("tracer", "id", "parent", "trace", "name", "instance", "start", "end")

    def __init__(self, tracer, name, instance, parent, trace):
        self.tracer = tracer
        self.id = next(tracer.ids)
        self.parent = parent.id if parent else None
        self.trace = parent.trace if parent else trace
        self.name = name
        self.instance = instance

    def __enter__(self):
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter_ns()
        if exc_type is None:
            self.tracer.spans.append(self)
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ids = itertools.count(1)

    def span(self, name: str, instance: str, parent: Span | None = None, trace=None) -> Span:
        return Span(self, name, instance, parent, trace)

    def durations(self) -> dict:
        """(instance, span name) -> list of durations in ns."""
        out: dict = {}
        for s in self.spans:
            out.setdefault((s.instance, s.name), []).append(s.end - s.start)
        return out

    def write(self, path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "parent": s.parent, "trace": s.trace,
                                    "name": s.name, "instance": s.instance,
                                    "start_ns": s.start, "end_ns": s.end}) + "\n")


def _nontrivial(matrices) -> int:
    """Entries other than 0 and 1: scheduled multiplications by a real constant."""
    return sum(1 for m in matrices for v in m.entries if v > 1)


class TracedRun:
    def __init__(self, program: Program, workload: str, seed: int) -> None:
        self.program = program
        self.names = WORKLOADS[workload]
        self.rng = operand_rng(workload, seed)
        self.gate = Gate()
        self.tracer = Tracer()
        self.host = HostSpeed()
        self.absent: dict[str, str] = {}  # metric -> why it is absent
        self.counts: dict[str, dict] = {}  # instance -> count metrics
        self.products = 0

    def _guard(self, metrics, call) -> None:
        """Run a replay; if the multiplier lacks what it reads, mark `metrics` absent."""
        if any(m in self.absent for m in metrics):
            return
        try:
            call()
        except AttributeError as e:
            for m in metrics:
                self.absent[m] = f"{type(e).__name__}: {e}"

    def _pair(self, spec):
        return operand(self.rng, spec.field, spec.n), operand(self.rng, spec.field, spec.n)

    def cycle(self, index: int) -> dict:
        """Set up every instance with its compile phases replayed, run its
        first product, then `curvemul mul` on each file.  Returns
        {name: (spec, compiled)}."""
        p = self.program
        built = {}
        for name in self.names:
            with self.tracer.span("cycle", name, trace=f"cycle{index}/{name}") as root:
                span = lambda n: self.tracer.span(n, name, root)  # noqa: E731
                with span("tools.load_instance"):
                    spec = p.tools.load_instance(p.instance_path(name))
                moduli = [spec.q_modulus, spec.d1_den, spec.d2_den] + [
                    c.residue.modulus for c in spec.candidate_places
                    if isinstance(c, p.curve.AffinePlace)]
                with span("galois.is_irreducible"):
                    for m in moduli:
                        p.galois.is_irreducible(spec.field, m)
                with span("engine.compile_instance"):
                    compiled = p.engine.compile_instance(spec)
                with span("engine.verify_good_basis"):
                    checks = p.engine.verify_good_basis(spec)
                self.gate.record(all(c.ok for c in checks), f"{name}: good-basis check failed")
                self._replay_compile(span, spec, compiled, name)
                pool = [(self.rng.getrandbits(spec.field.k), self.rng.getrandbits(spec.field.k))
                        for _ in range(MUL_POOL)]
                mul = spec.field.mul
                with span("galois.BinaryField.mul"):
                    for a, b in pool:
                        mul(a, b)
                self.product(name, spec, compiled, root)
                if name not in self.counts:
                    self._count(name, compiled)
            built[name] = (spec, compiled)
        for name in self.names:
            spec = built[name][0]
            x, y = self._pair(spec)
            want = p.engine.reference_mul(spec.field, spec.q_modulus, x, y)
            with self.tracer.span("cli.main.mul", name, trace=f"cycle{index}/{name}/cli"):
                _, code, out, problem = cli_mul(p, p.instance_path(name), x, y)
            check_cli(self.gate, name, code, out, problem, want)
        return built

    def _replay_compile(self, span, spec, compiled, name) -> None:
        p = self.program

        def evaluate():
            places = compiled.places
            with span("curve.evaluate"):
                for place in places:
                    for f in spec.basis:
                        p.curve.evaluate(spec.curve, f, place)

        def rank_and_invert():
            T = compiled.T
            with span("linalg.rank"):
                r = p.linalg.rank(T)
            self.gate.record(r == spec.size, f"{name}: rank(T) = {r}, want {spec.size}")
            with span("linalg.invert"):
                p.linalg.invert(T)

        self._guard(("curve.evaluate.ms",), evaluate)
        self._guard(("linalg.rank.ms", "linalg.invert.ms"), rank_and_invert)

    def _count(self, name, compiled) -> None:
        ones = [1] * compiled.spec.n
        _, report = compiled.multiply(ones, ones)
        counts = self.counts[name] = {
            "engine.step1_scalar": report.step1_scalar,
            "engine.step2_bilinear": report.step2_bilinear,
            "engine.step3_scalar": report.step3_scalar,
        }

        def nontrivial():
            step1 = _nontrivial((compiled.T_x, compiled.T_y))
            step3 = _nontrivial((compiled.T_inv_top,))
            counts["linalg.step1.nontrivial"] = step1
            counts["linalg.step3.nontrivial"] = step3

        self._guard(("linalg.step1.nontrivial", "linalg.step3.nontrivial"), nontrivial)

    def product(self, name, spec, compiled, parent=None) -> None:
        """One traced, checked product followed by its step-by-step replay."""
        p = self.program
        x, y = self._pair(spec)
        self.products += 1
        self.host.sample()
        with self.tracer.span("product", name, parent, trace=f"product{self.products}") as root:
            span = lambda n, parent=root: self.tracer.span(n, name, parent)  # noqa: E731
            with span("engine.reference_mul"):
                want = p.engine.reference_mul(spec.field, spec.q_modulus, x, y)
            with span("engine.multiply"):
                try:
                    result = compiled.multiply(x, y)
                except Exception as e:  # a failed product, counted by the gate
                    result = e
            if not self.gate.check_product(name, x, y, result, want):
                return

            def replay():
                T_x, T_y, plan, T_inv_top = (compiled.T_x, compiled.T_y, compiled.plan,
                                             compiled.T_inv_top)
                with span("replay") as steps:
                    with span("linalg.mat_vec.step1", steps):
                        zv = p.linalg.mat_vec(T_x, x)
                        tv = p.linalg.mat_vec(T_y, y)
                    with span("kernels.hadamard.step2", steps):
                        had = plan.hadamard(zv, tv, p.kernels.BilinearCounter())
                    with span("linalg.mat_vec.step3", steps):
                        w = p.linalg.mat_vec(T_inv_top, had)
                    n = spec.n
                    z = tuple([w[0]] + [w[j] ^ w[n + j - 1] for j in range(1, n)])
                self.gate.record(z == tuple(result[0]),
                                 f"{name} x={x} y={y}: replay {z} != multiply {result[0]}")

            self._guard(REPLAYED_STEPS, replay)

    def overhead_pct(self, built) -> float:
        """Products per second with spans around `multiply`, against without.

        Alternates untraced and traced segments of the same operands and takes
        the median ratio; the products are checked after the timing.
        """
        p = self.program
        spans = Tracer()
        ratios = []
        durations = self.tracer.durations()
        for i in range(OVERHEAD_PAIRS):
            off = on = 0
            for name in self.names:
                spec, compiled = built[name]
                latency = statistics.median(durations[(name, "engine.multiply")]) / 1e9
                size = max(8, int(OVERHEAD_SEGMENT_S / len(self.names) / latency))
                pairs = [self._pair(spec) for _ in range(size)]
                for traced in ((False, True) if i % 2 else (True, False)):
                    results = []
                    start = time.perf_counter_ns()
                    if traced:
                        for x, y in pairs:
                            with spans.span("engine.multiply", name):
                                results.append(compiled.multiply(x, y))
                    else:
                        for x, y in pairs:
                            results.append(compiled.multiply(x, y))
                    elapsed = time.perf_counter_ns() - start
                    if traced:
                        on += elapsed
                    else:
                        off += elapsed
                    for (x, y), result in zip(pairs, results):
                        want = p.engine.reference_mul(spec.field, spec.q_modulus, x, y)
                        self.gate.check_product(name, x, y, result, want)
            ratios.append(on / off)
        return (statistics.median(ratios) - 1) * 100

    def metrics(self) -> dict:
        """{instance: {metric: value}} from the recorded spans and counts."""
        durations = self.tracer.durations()
        factor = self.host.run_factor
        out = {}
        for name in self.names:
            values = {}
            for span_name, (metric, ns) in SPAN_METRICS.items():
                samples = durations.get((name, span_name))
                if samples and metric not in self.absent:
                    values[metric] = statistics.median(samples) / ns / factor
            values["galois.BinaryField.mul.ns"] = statistics.median(
                durations[(name, "galois.BinaryField.mul")]) / MUL_POOL / factor
            values.update(self.counts[name])
            out[name] = values
        return out


def _derived(values: dict) -> dict:
    """Add the ratios and the multiply self time to measured metrics."""
    v = dict(values)
    v["load.irreducible_share"] = v["galois.is_irreducible.ms"] / v["tools.load_instance.ms"]
    v["engine.multiply_per_oracle"] = v["engine.multiply.us"] / v["engine.reference_mul.us"]
    steps = ("linalg.mat_vec.step1.us", "kernels.hadamard.step2.us", "linalg.mat_vec.step3.us")
    if all(s in v for s in steps):
        v["engine.multiply.self_us"] = v["engine.multiply.us"] - sum(v[s] for s in steps)
    return v


def run(program: Program, workload: str, seed: int, seconds: float):
    """Returns (gate, metrics, detail) for one traced run."""
    traced = TracedRun(program, workload, seed)
    streaming = len(traced.names) == 1
    deadline = time.perf_counter() + seconds
    cycles = 0
    while (
        cycles < STREAM_CYCLES
        if streaming
        else cycles < MIN_COLD_CYCLES or time.perf_counter() < deadline
    ):
        built = traced.cycle(cycles)
        cycles += 1
    if streaming:
        name = traced.names[0]
        spec, compiled = built[name]
        deadline = time.perf_counter() + seconds
        while traced.products < TRACE_PRODUCTS and time.perf_counter() < deadline:
            traced.product(name, spec, compiled)
    overhead = traced.overhead_pct(built)

    measured = traced.metrics()
    by_instance = {name: _derived(v) for name, v in measured.items()}
    keys = set.intersection(*(set(v) for v in measured.values()))
    values = _derived({k: sum(v[k] for v in measured.values()) for k in keys})
    values["trace.overhead_pct"] = overhead
    metrics = {m: values[m] for m in METRICS if m in values and m not in traced.absent}

    traced.tracer.write(ROOT / "perfbench" / "out" / f"spans-{workload}-seed{seed}.jsonl")
    detail = {
        "error_rate": traced.gate.error_rate,
        "cycles": cycles,
        "traced_products": traced.products,
        "spans": len(traced.tracer.spans),
        "absent": traced.absent,
        "host_slowdown_median": traced.host.run_factor,
        "by_instance": {f"{name}.{k}": v for name, vals in by_instance.items()
                        for k, v in sorted(vals.items())},
        "moves": {m: spec[2] for m, spec in METRICS.items()},
        "ratio_bases": {"load.irreducible_share": "tools.load_instance.ms",
                        "engine.multiply_per_oracle": "engine.reference_mul.us",
                        "trace.overhead_pct": "products_per_s with tracing off"},
    }
    return traced.gate, metrics, detail
