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
from .genseq import *
from .modarith import *
from .permstats import *
from .primroots import *
from .rng import *
from .runstats import *
from . import genseq, modarith, permstats, primroots, rng, runstats

__version__ = "0.1.0"

__all__ = sorted([
    "KERNEL_BACKEND", "available_backends", *genseq.__all__, *modarith.__all__,
    *permstats.__all__, *primroots.__all__, *rng.__all__, *runstats.__all__,
]) + ["__version__"]
