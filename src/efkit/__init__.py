"""Learning interpretable error functions for hard constraints."""

__version__ = "0.1.0"

from .concepts import ConstraintInstance, ConstraintKind
from .ga import GaConfig, LearnResult, learn
from .hamming import SolutionSet, label_space_costs
from .icn import ErrorFunction, EvalContext, Genome, loss, normalized_mean_error
from .spaces import LabeledSpace, enumerate_complete, sample_balanced

__all__ = [
    "ConstraintInstance",
    "ConstraintKind",
    "GaConfig",
    "LearnResult",
    "learn",
    "SolutionSet",
    "label_space_costs",
    "ErrorFunction",
    "EvalContext",
    "Genome",
    "loss",
    "normalized_mean_error",
    "LabeledSpace",
    "enumerate_complete",
    "sample_balanced",
]
