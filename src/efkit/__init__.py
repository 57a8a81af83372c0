"""Learning interpretable error functions for hard constraints."""

__version__ = "0.1.0"

from .concepts import ConstraintInstance, ConstraintKind, concept_holds
from .ga import GaConfig, LearnResult, learn
from .hamming import SolutionSet, approx_hamming, exact_hamming, hamming_reference, label_space_costs
from .icn import ErrorFunction, EvalContext, Genome, loss, normalized_mean_error
from .spaces import LabeledSpace, enumerate_complete, sample_balanced

__all__ = [
    "ConstraintInstance",
    "ConstraintKind",
    "concept_holds",
    "hamming_reference",
    "GaConfig",
    "LearnResult",
    "learn",
    "SolutionSet",
    "approx_hamming",
    "exact_hamming",
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
