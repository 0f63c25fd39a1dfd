"""Variational quantum sensing workbench with online conformal risk control."""

from . import conformal, engine, estimator, probe
from .engine import RunConfig, run_trial
from .estimator import SequentialPhaseEstimator

__version__ = "0.1.0"

__all__ = [
    "conformal",
    "engine",
    "estimator",
    "probe",
    "RunConfig",
    "run_trial",
    "SequentialPhaseEstimator",
    "__version__",
]
