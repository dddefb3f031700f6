"""Squares modulo an odd prime: orbits, cycle statistics, runs structure.

Everything lives in five layers:

* `modarith`  - exact modular arithmetic and the Legendre symbol, by
  Euler's criterion and independently by quadratic reciprocity.
* `primroots` - factorization-backed primitive-root tests, enumeration
  and inverse pairing.
* `genseq`    - multiplicative congruential orbits, full cycles and the
  squares generator.
* `permstats` - inversion counts of root cycles, exact null moments and
  the seeded Monte Carlo null.
* `runstats`  - Legendre-sequence runs, overlapping-pair counts,
  Aladov's theorem and the runs-test null.

`KERNEL_BACKEND` reports whether the compiled kernels or the
pure-Python fallback are active; output is identical either way.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from ._kernels import available_backends
from .genseq import (
    GeneratorCycle,
    SquareCycle,
    generator_cycle,
    lcg_orbit,
    square_cycle,
    squares_set,
)
from .modarith import (
    MAX_MODULUS,
    OddPrime,
    Symbol,
    discrete_log,
    first_odd_primes,
    is_prime,
    iter_odd_primes,
    legendre_euler,
    legendre_reciprocity,
    odd_primes_below,
    pow_mod,
    residue_rule,
    sqrt_mod,
)
from .permstats import (
    InversionSummary,
    SimConfig,
    SimReport,
    count_inversions,
    inversion_null_moments,
    inversion_summary,
    random_fixed_cycle,
    sd_pvalue,
    simulate_inversions,
)
from .primroots import (
    Factorization,
    PrimitiveRootSet,
    euler_phi,
    factorize,
    inverse_pairs,
    is_primitive_root,
    primitive_roots,
    smallest_primitive_root,
)
from .rng import RNG_ALGORITHM, SplitMix64, stream_seeds
from .runstats import (
    LegendreSeq,
    PairCounts,
    RunsScan,
    aladov_predicted,
    count_runs,
    legendre_pair_counts,
    legendre_sequence,
    pair_counts,
    runs_null_moments,
    scan_runs,
    simulate_runs,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "GeneratorCycle",
    "InversionSummary",
    "KERNEL_BACKEND",
    "LegendreSeq",
    "MAX_MODULUS",
    "OddPrime",
    "PairCounts",
    "PrimitiveRootSet",
    "RNG_ALGORITHM",
    "RunsScan",
    "SimConfig",
    "SimReport",
    "SplitMix64",
    "SquareCycle",
    "Symbol",
    "aladov_predicted",
    "available_backends",
    "count_inversions",
    "count_runs",
    "discrete_log",
    "euler_phi",
    "factorize",
    "first_odd_primes",
    "generator_cycle",
    "inverse_pairs",
    "inversion_null_moments",
    "inversion_summary",
    "is_prime",
    "is_primitive_root",
    "iter_odd_primes",
    "lcg_orbit",
    "legendre_euler",
    "legendre_pair_counts",
    "legendre_reciprocity",
    "legendre_sequence",
    "odd_primes_below",
    "pair_counts",
    "pow_mod",
    "primitive_roots",
    "random_fixed_cycle",
    "residue_rule",
    "runs_null_moments",
    "scan_runs",
    "sd_pvalue",
    "simulate_inversions",
    "simulate_runs",
    "smallest_primitive_root",
    "sqrt_mod",
    "square_cycle",
    "squares_set",
    "stream_seeds",
    "__version__",
]
