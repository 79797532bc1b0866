"""Covariant gradient descent: optimization through a moment-tracked inverse metric.

The optimizer maintains exponential moving averages of the gradient and of
its second-moment statistic, builds an inverse metric (eps*I + clamp0(C))^(-a)
from the latter, and steps against the first moment mapped through it. Classical
methods fall out as exact corners of the configuration space; `preset` names
them. The harness runs the two bundled benchmarks and writes CSV trajectories.

The layers below the API re-exported here are importable as submodules:
``cgd.linalg``, ``cgd.moments``, ``cgd.metric``, ``cgd.optimizer``,
``cgd.problems``, ``cgd.harness`` and ``cgd.cli``.
"""

from .harness import ExperimentConfig, run_experiment
from .optimizer import initial_state, preset, step

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ExperimentConfig",
    "run_experiment",
    "preset",
    "initial_state",
    "step",
]
