"""Validation data and model-vs-reference comparison metrics (Fig. 3)."""

from repro.validation.kjeang2007 import (
    KJEANG2007_REFERENCE,
    reference_curve,
    reference_flow_rates_ul_min,
)
from repro.validation.metrics import compare_polarization

__all__ = [
    "KJEANG2007_REFERENCE",
    "reference_curve",
    "reference_flow_rates_ul_min",
    "compare_polarization",
]
