"""Shared pieces of the curvemul benchmark: importing the program from the
checkout, seeded operands, the correctness gate, statistics and the record
of the environment a result was measured in.

The benchmark drives only the public API (`tools.load_instance`,
`engine.compile_instance`, `CompiledMultiplier.multiply`,
`engine.reference_mul`, `cli.main`) from outside `src/`, in one process
with one client in a closed loop: the next call starts when the previous
one has returned.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-product counts fixed by the paper: step-1 scalar, step-2 bilinear and
# step-3 scalar base-field multiplications.  Every product is held to them.
PINNED_COUNTS = {
    "f16_13": (702, 27, 675),
    "f4_5": (110, 12, 99),
    "f2_5": (110, 18, 99),
}

# Workload name -> bundled instances it sets up, in set-up order.
WORKLOADS = {
    "stream-f16_13": ("f16_13",),
    "stream-f2_5": ("f2_5",),
    "cold-start": ("f16_13", "f4_5", "f2_5"),
}

# Percentiles tried, highest first, for a timing's tail.
_TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_MIN_BEYOND = 10


class Program:
    """The curvemul modules, imported from `src/` of this checkout only."""

    def __init__(self) -> None:
        package = SRC / "curvemul"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no curvemul package at {package}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        modules = {
            name: importlib.import_module(f"curvemul.{name}")
            for name in ("galois", "tools", "curve", "linalg", "kernels", "engine", "cli")
        }
        origin = Path(modules["engine"].__file__).resolve()
        if package.resolve() not in origin.parents:
            raise SystemExit(f"perfbench: curvemul was imported from {origin}, not {package}")
        for name, module in modules.items():
            setattr(self, name, module)
        self.package = package

    def instance_path(self, name: str) -> Path:
        return self.package / "instances" / f"{name}.json"


class Gate:
    """Counts checked operations and failures; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok

    def check_product(self, instance: str, x, y, result, want) -> bool:
        """One product against the oracle's answer and the pinned counts.

        `result` is what `multiply` returned, or the exception it raised.
        """
        if isinstance(result, Exception):
            return self.record(False, f"{instance} x={x} y={y}: {result!r}")
        try:
            z, report = result
            counts = (report.step1_scalar, report.step2_bilinear, report.step3_scalar)
        except (TypeError, ValueError, AttributeError) as e:
            return self.record(False, f"{instance} x={x} y={y}: bad result {e!r}")
        if tuple(z) != want:
            return self.record(False, f"{instance} x={x} y={y}: got {tuple(z)}, want {want}")
        if counts != PINNED_COUNTS[instance]:
            return self.record(
                False, f"{instance}: counts {counts}, pinned {PINNED_COUNTS[instance]}"
            )
        return self.record(True, "")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def operand_rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it is stable across processes.
    return random.Random(f"{workload}/{seed}")


def operand(rng: random.Random, field, n: int) -> list[int]:
    """Uniform element of F_q^n; q = 2^k, so k random bits per coordinate."""
    k = field.k
    return [rng.getrandbits(k) for _ in range(n)]


def timed_setup(program: Program, path: Path):
    """Load and compile one instance file; returns (spec, compiled, seconds)."""
    start = time.perf_counter()
    spec = program.tools.load_instance(path)
    compiled = program.engine.compile_instance(spec)
    return spec, compiled, time.perf_counter() - start


def cli_mul(program: Program, path: Path, x, y):
    """`curvemul mul` in-process with stdout captured.

    Returns (seconds, exit code, stdout text, error text).  An exception or
    a `SystemExit` from argument parsing is returned as the error text.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = ["mul", str(path), "--x", ",".join(map(str, x)), "--y", ",".join(map(str, y))]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = program.cli.main(argv)
    except SystemExit as e:
        code, problem = e.code, f"SystemExit({e.code})"
    except Exception as e:  # any exception is a failed operation, not a crash
        code, problem = None, repr(e)
    else:
        problem = err.getvalue().strip()
    return time.perf_counter() - start, code, out.getvalue(), problem


def check_cli(gate: Gate, instance: str, code, stdout: str, problem: str, want) -> bool:
    if code != 0:
        return gate.record(False, f"{instance} cli exit {code}: {problem}")
    try:
        got = tuple(int(v) for v in stdout.strip().split(","))
    except ValueError:
        return gate.record(False, f"{instance} cli printed {stdout!r}")
    return gate.record(got == want, f"{instance} cli printed {got}, want {want}")


def percentile(ordered: list, pct: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(count: int, cap: float = 100.0) -> float | None:
    """Highest ladder percentile, at most `cap`, with at least ten samples
    beyond it; None when there are too few samples for any."""
    for pct in _TAIL_LADDER:
        if pct <= cap and count - math.ceil(pct / 100 * count) >= _MIN_BEYOND:
            return pct
    return None


def summary(samples: list, scale: float = 1.0) -> dict:
    """Median, tail percentile and sample count of a timing, times `scale`."""
    ordered = sorted(samples)
    pct = tail_pct(len(ordered))
    return {
        "n": len(ordered),
        "median": statistics.median(ordered) * scale if ordered else None,
        "tail_pct": pct,
        "tail": percentile(ordered, pct) * scale if pct else None,
    }


# Time of one calibration sample on the reference host: a round figure near
# its median on the 2-vCPU, 2.1 GHz host with Python 3.11.7 where the benchmark
# was written.  Timings are scaled to it (see HostSpeed); only ratios between
# runs on one host matter.
CALIBRATION_REF_NS = 250_000


def _gf16_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    while r.bit_length() >= 5:
        r ^= 0b10011 << (r.bit_length() - 5)
    return r


_CAL_MATRIX = [[(i * 7 + j * 3) % 16 for j in range(16)] for i in range(16)]
_CAL_VECTOR = [(i * 5) % 16 for i in range(16)]


def _calibration_kernel() -> list[int]:
    """A fixed GF(16) mat-vec written here, so no change to the program moves it."""
    out = []
    for row in _CAL_MATRIX:
        acc = 0
        for a, b in zip(row, _CAL_VECTOR):
            acc ^= _gf16_mul(a, b)
        out.append(acc)
    return out


class HostSpeed:
    """How fast the shared host runs Python at the moment, from a fixed kernel.

    Other tenants slow this host by up to half, for seconds to minutes at a
    time.  A sample of a fixed pure-Python kernel, taken after every timed
    section (and every `INTERVAL_NS` within long ones), measures that
    slow-down.  A section closed by sample i is divided by `factor(i)`, the
    median of samples i-1, i and i+1 over the reference time, so that it
    reads as on the unloaded reference host.  The window is centred, so a
    section at the start of a slow stretch is scaled like one in it.
    """

    INTERVAL_NS = 10_000_000

    def __init__(self) -> None:
        self.samples = array("q")

    def sample(self) -> int:
        """Time the kernel once; returns the index of the sample."""
        start = time.perf_counter_ns()
        _calibration_kernel()
        _calibration_kernel()
        self.samples.append(time.perf_counter_ns() - start)
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        return statistics.median(self.samples[max(0, i - 1) : i + 2]) / CALIBRATION_REF_NS

    @property
    def run_factor(self) -> float:
        """The median slow-down over the whole run."""
        return statistics.median(self.samples) / CALIBRATION_REF_NS


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_rev() -> str:
    """Commit of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
    }
