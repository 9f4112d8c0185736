"""Finite-field extension multiplication by evaluation-interpolation on
algebraic curves, with exact accounting of base-field operations.

The package splits into:

* `galois` — GF(2^k) arithmetic (k <= 8), polynomials, extension fields.
* `linalg` — dense matrices over a field, rank/inverse, mat-vec.
* `curve` — hyperelliptic curve models, places, function evaluation.
* `kernels` — Karatsuba-style bilinear multiplication kernels.
* `engine` — instance validation, compilation, and the multiplier with its
  operation report, fixed at compile time.
* `tools` — instance-file I/O, verification reports, self-test, bench.
* `cli` — the `curvemul` command line over `tools`.
"""

__version__ = "0.1.0"

from .galois import BinaryField, ExtField, F2, F4, F16  # noqa: F401
from .curve import AffinePlace, Curve, CurveFunction, InfinitePlace  # noqa: F401
from .engine import (  # noqa: F401
    CompiledMultiplier,
    InstanceError,
    InstanceSpec,
    OpReport,
    compile_instance,
    reference_mul,
)
from .tools import (  # noqa: F401
    InstanceFileError,
    VerifyReport,
    bench,
    bundled_instance_names,
    check_total_split,
    load_bundled,
    load_instance,
    selftest,
    split_search,
    verify_instance,
)
