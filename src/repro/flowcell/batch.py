"""Batched plug-flow polarization curves (vectorized across cells).

The porous-electrode march of
:class:`~repro.flowcell.porous.FlowThroughPorousCell` is closed-form in
every segment — Nernst potential, exchange current and the film-model
Butler-Volmer current are all elementary functions of the local
concentrations — so the only *sequential* axis is the axial segment
index. Across cells (different flows, channel widths, temperatures) and
across the potential samples of one sweep, everything is independent.

:func:`batched_polarization_curves` exploits exactly that: it marches the
batch as one ``(2B, S)`` numpy array (in slices of ``_MARCH_CELLS`` cells
for large batches), one segment at a time, instead of one scalar march
per (cell, sample) pair. Row ``b`` is cell ``b``'s negative electrode
(anodic sweep) and row ``B + b`` its positive electrode (cathodic sweep);
each row carries its own sign, couple and stream parameters as
``(2B, 1)`` columns, and the ``S`` columns are the potential samples. One
march for both electrodes halves the numpy calls per segment, which is
what a small batch pays for. It is the one production construction of a
porous-cell polarization curve:
:meth:`FlowThroughPorousCell.polarization_curve` is a batch of one, and
the polarization surfaces and the sweep evaluators all call it. Every
operation is elementwise across cells, so a cell's curve is
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

#: Cells per ``(2B, S)`` march. A larger batch is marched in slices of
#: this many cells: enough rows to amortize numpy's per-call cost, few
#: enough that the march's working set stays cache-sized. On a 2-vCPU
#: box a 612-cell batch costs ~0.34 ms per curve in slices of 64-256
#: cells and ~0.38 ms in one march, which also peaks ~10 MB higher.
_MARCH_CELLS = 64


def _electrode_characteristics(
    cells: "Sequence[FlowThroughPorousCell]",
    n_samples: int,
    max_overpotential_v: float,
) -> "tuple[list[ElectrodeCharacteristic], list[ElectrodeCharacteristic]]":
    """Both electrodes of the whole batch, marched as one ``(2B, S)`` array.

    Returns ``(negatives, positives)`` in cell order. Mirrors the scalar
    oracle, :meth:`FlowThroughPorousCell.electrode_characteristic` /
    :meth:`FlowThroughPorousCell.electrode_current`, expression by
    expression; see the module docstring for the row layout.
    """
    n_cells = len(cells)
    n_segments = cells[0].n_segments
    rows = [(cell, True) for cell in cells] + [(cell, False) for cell in cells]

    # Per-row scalars, shaped (2B, 1) so they broadcast over samples.
    def column(values: "list[float]") -> np.ndarray:
        return np.asarray(values, dtype=float)[:, None]

    electrolytes = [
        cell.spec.anolyte if anodic else cell.spec.catholyte
        for cell, anodic in rows
    ]
    couples = [electrolyte.couple for electrolyte in electrolytes]
    temperatures = [cell.temperature_k for cell, _ in rows]
    sign = column([1.0 if anodic else -1.0 for _, anodic in rows])
    km = column([
        cell._km(
            couple.diffusivity_red(t) if anodic else couple.diffusivity_ox(t)
        )
        for (cell, anodic), couple, t in zip(rows, couples, temperatures)
    ])
    area_per_segment = column([
        cell.electrode.specific_surface_area_m2_m3 * cell._segment_volume_m3
        for cell, _ in rows
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
        for (cell, _), couple in zip(rows, couples)
    ])
    f_over_rt = electrons * FARADAY / (
        GAS_CONSTANT * column(temperatures)
    )
    nernst_slope = 1.0 / f_over_rt
    nfk = electrons * FARADAY * km
    # Loop-invariant leading factors of the segment expressions below,
    # hoisted with their left-to-right association intact (same bits).
    nfk0 = electrons * FARADAY * k0
    red_order = 1.0 - alpha
    anodic_rate = red_order * f_over_rt
    cathodic_rate = -alpha * f_over_rt

    # The sampled electrode potentials: the inlet equilibrium potential
    # plus a log-spaced overpotential sweep (identical grid construction
    # to the scalar path, per cell), anodic on the first B rows.
    overpotentials = np.concatenate(
        ([0.0], np.geomspace(1e-3, max_overpotential_v, n_samples - 1))
    )
    e_eq_inlet = column([
        equilibrium_potential(
            couple, electrolyte.conc_ox, electrolyte.conc_red, t
        )
        for couple, electrolyte, t in zip(couples, electrolytes, temperatures)
    ])
    potentials = e_eq_inlet + sign * overpotentials[None, :]  # (2B, S)

    # March state: local concentrations per (row, sample).
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
        j0 = nfk0 * conc_ox**alpha * conc_red**red_order
        exp_a = np.exp(np.minimum(anodic_rate * eta, _EXPONENT_CLIP))
        exp_c = np.exp(np.minimum(cathodic_rate * eta, _EXPONENT_CLIP))
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

    order = np.argsort(potentials, axis=1)
    potentials = np.take_along_axis(potentials, order, axis=1)
    # Guard against round-off kinks, as the scalar oracle does.
    currents = np.maximum.accumulate(
        np.take_along_axis(total_current, order, axis=1), axis=1
    )
    characteristics = [
        ElectrodeCharacteristic(potentials[r], currents[r])
        for r in range(2 * n_cells)
    ]
    return characteristics[:n_cells], characteristics[n_cells:]


def _masked_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator where the denominator is positive, else 0.

    The zero branch reproduces the scalar guards for a fully depleted
    species (whose j0 factor already zeroes the current). The inner
    ``where`` swaps the masked denominators for 1 before dividing, so no
    element ever divides by zero and no floating-point state needs
    silencing.
    """
    positive = denominator > 0.0
    return np.where(
        positive, numerator / np.where(positive, denominator, 1.0), 0.0
    )


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
    negatives: "list[ElectrodeCharacteristic]" = []
    positives: "list[ElectrodeCharacteristic]" = []
    for start in range(0, len(cells), _MARCH_CELLS):
        chunk_negatives, chunk_positives = _electrode_characteristics(
            cells[start:start + _MARCH_CELLS],
            n_potential_samples,
            max_overpotential_v,
        )
        negatives += chunk_negatives
        positives += chunk_positives
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
