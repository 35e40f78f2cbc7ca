"""Differentially private distributed optimization: simulator and analysis.

Agents on an undirected graph minimize the sum of local quadratics. Each
agent publishes only Laplace-perturbed states; a gradient-tracking update
with geometrically decaying step sizes and noise scales keeps the privacy
budget finite while still converging in the mean. The package simulates
those dynamics, audits per-iteration sensitivity against the closed-form
envelope, evaluates convergence-rate and accuracy bounds, and measures
information leakage with a k-NN mutual information estimator.
"""

# each module's __all__ is the public surface: the package re-exports it, and
# binds the modules first, since `from .cli import *` rebinds cli to the function
from . import (analysis, cli, engine, errors, harness, objective, privacy_eval, rng, schedule,
               topology)

_MODULES = (analysis, cli, engine, errors, harness, objective, privacy_eval, rng, schedule,
            topology)

from .analysis import *  # noqa: E402,F403
from .cli import *  # noqa: E402,F403
from .engine import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .harness import *  # noqa: E402,F403
from .objective import *  # noqa: E402,F403
from .privacy_eval import *  # noqa: E402,F403
from .rng import *  # noqa: E402,F403
from .schedule import *  # noqa: E402,F403
from .topology import *  # noqa: E402,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in _MODULES for name in module.__all__})
