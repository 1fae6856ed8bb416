"""Monte Carlo laboratory for power-utility quadratic BSDEs.

The package simulates the log opportunity process of power-utility
optimization driven by a catalog of market-price-of-risk processes —
including singular clock-based constructions whose exponential moments sit
exactly at solvability thresholds — and provides:

* ``core``: time grids, Brownian ensembles, Ito tools and clock engines,
* ``catalog``: the market-price-of-risk constructions and their functionals,
* ``heavytail``: tail-index and divergence diagnostics for moment estimates,
* ``solver``: opportunity-process estimators, multiplicative representation,
  the continuum of quadratic-BSDE solutions and their residual checks,
* ``bmo``: dynamic exponential-moment analysis, critical exponents,
  the sharp threshold curve and the solvability classifier,
* ``cli``: reproducible experiment suites with manifest and report tooling.
"""

from qbsde import bmo, catalog, core, heavytail, solver
from qbsde.core import *  # noqa: F403
from qbsde.catalog import *  # noqa: F403
from qbsde.heavytail import *  # noqa: F403
from qbsde.solver import *  # noqa: F403
from qbsde.bmo import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *catalog.__all__,
    *heavytail.__all__,
    *solver.__all__,
    *bmo.__all__,
    "__version__",
]
