"""Curve-comparison metrics for model validation.

The paper reports that its model "agrees well with the measurements for
different flow rates" with a maximum error within 10 %. These helpers
reproduce that comparison: interpolate the model curve onto the reference
current samples and report relative voltage errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CurveComparison:
    """Pointwise comparison of a model curve against a reference curve.

    Attributes
    ----------
    current_a:
        Reference current samples inside the model's sampled range.
    reference_v / model_v:
        Voltages at those samples.
    """

    current_a: np.ndarray
    reference_v: np.ndarray
    model_v: np.ndarray

    @property
    def relative_errors(self) -> np.ndarray:
        """|V_model - V_ref| / V_ref at each compared sample."""
        return np.abs(self.model_v - self.reference_v) / self.reference_v

    @property
    def max_relative_error(self) -> float:
        """Worst-case relative voltage error (the paper's <10 % metric)."""
        return float(self.relative_errors.max())

    @property
    def rms_relative_error(self) -> float:
        """Root-mean-square relative voltage error."""
        return float(np.sqrt(np.mean(self.relative_errors**2)))


def compare_polarization(
    model: PolarizationCurve,
    reference: PolarizationCurve,
    min_overlap_points: int = 4,
) -> CurveComparison:
    """Interpolate the model onto the reference samples and compare.

    Only reference samples lying inside the model's sampled current range
    are compared (a model that cannot reach the reference's limiting
    current at all fails the ``min_overlap_points`` check instead of being
    silently truncated to a friendly subset).
    """
    ref_i = reference.current_a
    inside = (ref_i >= model.current_a[0]) & (ref_i <= model.current_a[-1])
    if int(inside.sum()) < min_overlap_points:
        raise ConfigurationError(
            f"model range [{model.current_a[0]:.4g}, {model.current_a[-1]:.4g}] "
            f"covers only {int(inside.sum())} of {ref_i.size} reference samples"
        )
    # Require coverage of at least ~85 % of the reference current range so a
    # model with a grossly wrong limiting current cannot pass by comparing
    # only its kinetic region.
    if model.current_a[-1] < 0.85 * ref_i[-1]:
        raise ConfigurationError(
            f"model limiting current {model.current_a[-1]:.4g} falls short of "
            f"the reference range {ref_i[-1]:.4g}"
        )
    compared_i = ref_i[inside]
    model_v = np.array([model.voltage_at_current(i) for i in compared_i])
    return CurveComparison(
        current_a=compared_i,
        reference_v=reference.voltage_v[inside],
        model_v=model_v,
    )
