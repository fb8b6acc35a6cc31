"""Choice-bracketing laboratory for work/money price-list experiments.

Three layers, usable separately:

- simulate: parameterized preferences and bracketing modes generate
  synthetic multiple-price-list datasets (`PopulationSpec`,
  `simulate_dataset`).
- estimate: cell summaries, rank-sum tests, the bracketing-weight
  regression, right-censored Tobit, and power analysis
  (`summarize_means`, `mwu_test`, `nls_kappa`, `tobit_right`,
  `power_two_sample`).
- verify: numerical probes of the identification propositions
  (`additivity_residual`, `unidentifiability_probe`,
  `cara_shift_invariance`, `mixture_linearity`, `warp_scan`), run
  as suites over the model zoo by `verify_rows`.

The `bracketlab` console script exposes all three as subcommands.
"""

from . import preferences, design, agents, experiment, estimation, theory, config
from .preferences import *
from .design import *
from .agents import *
from .experiment import *
from .estimation import *
from .theory import *
from .config import *

__version__ = "0.1.0"

# each public name is declared once, in the __all__ of the module that defines it
__all__ = [
    "__version__",
    *preferences.__all__,
    *design.__all__,
    *agents.__all__,
    *experiment.__all__,
    *estimation.__all__,
    *theory.__all__,
    *config.__all__,
]
