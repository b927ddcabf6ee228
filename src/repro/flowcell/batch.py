"""Batched plug-flow polarization curves (vectorized across cells).

The porous-electrode march of
:class:`~repro.flowcell.porous.FlowThroughPorousCell` is closed-form in
every segment — Nernst potential, exchange current and the film-model
Butler-Volmer current are all elementary functions of the local
concentrations — so the only *sequential* axis is the axial segment
index. Across cells (different flows, channel widths, temperatures) and
across the potential samples of one sweep, everything is independent.

:func:`batched_polarization_curves` exploits exactly that: it marches the
whole batch as ``(cell, potential-sample)`` numpy arrays, one segment at a
time, instead of one scalar march per (cell, sample) pair. It is the one
production construction of a porous-cell polarization curve:
:meth:`FlowThroughPorousCell.polarization_curve` is a batch of one, and
the polarization surfaces, the sweep evaluators and the kernels all call
it. Every operation is elementwise across cells, so a cell's curve is
bit-identical whichever batch it is marched in.

Oracle: the march evaluates the same expressions as the scalar
per-potential march
(:meth:`FlowThroughPorousCell.electrode_characteristic` — same Nernst
concentration floor, same 0.999 Faradaic cap per segment, same exponent
clipping), and ``tests/flowcell/test_batch.py`` holds the two to a 1e-9
relative band.

Requirements on a batch: every cell must use the same segment count and
the same curve sampling (the callers in :mod:`repro.sweep.vectorized`
batch per evaluator, which fixes both); compositions, flows, geometries
and temperatures may all vary cell to cell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.constants import FARADAY, GAS_CONSTANT
from repro.electrochem.nernst import CONCENTRATION_FLOOR, equilibrium_potential
from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError
from repro.flowcell.cell import ElectrodeCharacteristic, assemble_polarization

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flowcell.porous import FlowThroughPorousCell

#: Exponent clip shared with the scalar path
#: (:meth:`FilmHalfCell.current_at_overpotential`).
_EXPONENT_CLIP = 500.0


def _batched_electrode_characteristics(
    cells: "Sequence[FlowThroughPorousCell]",
    anodic: bool,
    n_samples: int,
    max_overpotential_v: float,
) -> "list[ElectrodeCharacteristic]":
    """One electrode side of the whole batch, marched as arrays.

    Mirrors the scalar oracle,
    :meth:`FlowThroughPorousCell.electrode_characteristic` /
    :meth:`FlowThroughPorousCell.electrode_current`, expression by
    expression; see the module docstring.
    """
    n_segments = cells[0].n_segments
    sign = 1.0 if anodic else -1.0

    # Per-cell scalars, shaped (B, 1) so they broadcast over samples.
    def column(values: "list[float]") -> np.ndarray:
        return np.asarray(values, dtype=float)[:, None]

    couples = [
        (cell.spec.anolyte if anodic else cell.spec.catholyte).couple
        for cell in cells
    ]
    electrolytes = [
        cell.spec.anolyte if anodic else cell.spec.catholyte for cell in cells
    ]
    temperatures = [cell.temperature_k for cell in cells]
    km = column([
        cell._km(
            couple.diffusivity_red(t) if anodic else couple.diffusivity_ox(t)
        )
        for cell, couple, t in zip(cells, couples, temperatures)
    ])
    area_per_segment = column([
        cell.electrode.specific_surface_area_m2_m3 * cell._segment_volume_m3
        for cell in cells
    ])
    electrons = column([couple.electrons for couple in couples])
    alpha = column([couple.transfer_coefficient for couple in couples])
    k0 = column([
        couple.rate_constant(t) for couple, t in zip(couples, temperatures)
    ])
    e_standard = column([
        couple.standard_potential_at(t)
        for couple, t in zip(couples, temperatures)
    ])
    n_f_q = column([
        couple.electrons * FARADAY * cell.spec.stream_flow_m3_s
        for cell, couple in zip(cells, couples)
    ])
    f_over_rt = electrons * FARADAY / (
        GAS_CONSTANT * column(temperatures)
    )
    nernst_slope = 1.0 / f_over_rt
    nfk = electrons * FARADAY * km

    # The sampled electrode potentials: the inlet equilibrium potential
    # plus a log-spaced overpotential sweep (identical grid construction
    # to the scalar path, per cell).
    overpotentials = np.concatenate(
        ([0.0], np.geomspace(1e-3, max_overpotential_v, n_samples - 1))
    )
    e_eq_inlet = column([
        equilibrium_potential(
            couple, electrolyte.conc_ox, electrolyte.conc_red, t
        )
        for couple, electrolyte, t in zip(couples, electrolytes, temperatures)
    ])
    potentials = e_eq_inlet + sign * overpotentials[None, :]  # (B, S)

    # March state: local concentrations per (cell, sample).
    shape = potentials.shape
    conc_ox = np.broadcast_to(
        column([e.conc_ox for e in electrolytes]), shape
    ).copy()
    conc_red = np.broadcast_to(
        column([e.conc_red for e in electrolytes]), shape
    ).copy()
    total_current = np.zeros(shape)

    for _ in range(n_segments):
        e_eq = e_standard + nernst_slope * np.log(
            np.maximum(conc_ox, CONCENTRATION_FLOOR)
            / np.maximum(conc_red, CONCENTRATION_FLOOR)
        )
        eta = potentials - e_eq
        # Exchange current j0 = n*F*k0 * C_ox^a * C_red^(1-a); a depleted
        # species zeroes it, which zeroes the segment current exactly as
        # the scalar guards do.
        j0 = electrons * FARADAY * k0 * conc_ox**alpha * conc_red ** (
            1.0 - alpha
        )
        exp_a = np.exp(np.minimum((1.0 - alpha) * f_over_rt * eta, _EXPONENT_CLIP))
        exp_c = np.exp(np.minimum(-alpha * f_over_rt * eta, _EXPONENT_CLIP))
        denominator = (
            1.0
            + _masked_ratio(j0 * exp_a, nfk * conc_red)
            + _masked_ratio(j0 * exp_c, nfk * conc_ox)
        )
        j = j0 * (exp_a - exp_c) / denominator
        segment_current = j * area_per_segment
        # Plug-flow Faradaic cap: a segment cannot convert more than
        # 99.9 % of the reactant its throughflow carries.
        segment_current = np.where(
            segment_current > 0.0,
            np.minimum(segment_current, 0.999 * conc_red * n_f_q),
            np.maximum(segment_current, -0.999 * conc_ox * n_f_q),
        )
        delta_c = segment_current / n_f_q
        conc_red = conc_red - delta_c
        conc_ox = conc_ox + delta_c
        total_current = total_current + segment_current

    characteristics = []
    for b in range(len(cells)):
        row_potentials = potentials[b]
        row_currents = total_current[b]
        order = np.argsort(row_potentials)
        row_potentials = row_potentials[order]
        # Guard against round-off kinks, as the scalar oracle does.
        row_currents = np.maximum.accumulate(row_currents[order])
        characteristics.append(
            ElectrodeCharacteristic(row_potentials, row_currents)
        )
    return characteristics


def _masked_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator where the denominator is positive, else 0.

    The zero branch reproduces the scalar guards for a fully depleted
    species (whose j0 factor already zeroes the current).
    """
    out = np.zeros(np.broadcast_shapes(numerator.shape, denominator.shape))
    np.divide(
        numerator,
        denominator,
        out=out,
        where=np.broadcast_to(denominator > 0.0, out.shape),
    )
    return out


def batched_polarization_curves(
    cells: "Sequence[FlowThroughPorousCell]",
    n_points: int = 40,
    n_potential_samples: int = 48,
    max_overpotential_v: float = 1.0,
) -> "list[PolarizationCurve]":
    """Full-cell polarization curves for a batch of porous cells at once.

    Returns the curves in input order, each bit-identical to
    ``cell.polarization_curve(n_points, n_potential_samples,
    max_overpotential_v)`` (a batch of one). All cells must share one
    segment count (the sampling arguments already apply batch-wide).

    Example
    -------
    >>> from repro.casestudy.power7plus import build_array_cell
    >>> cells = [build_array_cell(flow) for flow in (338.0, 676.0)]
    >>> curves = batched_polarization_curves(cells, max_overpotential_v=1.4)
    >>> reference = cells[1].polarization_curve(max_overpotential_v=1.4)
    >>> bool(curves[1].current_at_voltage(1.0)
    ...      == reference.current_at_voltage(1.0))
    True
    """
    if not cells:
        return []
    if n_potential_samples < 4:
        raise ConfigurationError(
            f"n_samples must be >= 4, got {n_potential_samples}"
        )
    segment_counts = {cell.n_segments for cell in cells}
    if len(segment_counts) != 1:
        raise ConfigurationError(
            "a batch must share one segment count, got "
            f"{sorted(segment_counts)}"
        )
    negatives = _batched_electrode_characteristics(
        cells, True, n_potential_samples, max_overpotential_v
    )
    positives = _batched_electrode_characteristics(
        cells, False, n_potential_samples, max_overpotential_v
    )
    return [
        assemble_polarization(
            negative,
            positive,
            cell.resistance_ohm,
            ocv_adjustment_v=cell.spec.ocv_adjustment_v,
            n_points=n_points,
            label=f"porous cell @ {cell.temperature_k:.1f} K",
        )
        for cell, negative, positive in zip(cells, negatives, positives)
    ]
