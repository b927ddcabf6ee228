"""Electro-thermal co-simulation — the Section III-B coupling study.

Shows how chip heat feeds back into power generation: runs the coupled
fixed-point loop at the nominal point and the paper's two stress scenarios
(48 ml/min low flow, 37 C inlet) and reports the thermally induced
generation gains.

Run:  python examples/electrothermal_cosim.py
"""

from repro.core.report import format_table
from repro.cosim import CosimConfig, ElectroThermalCosim


def main() -> None:
    base = dict(nx=44, ny=22)

    print("Running nominal scenario (676 ml/min, 27 C inlet)...")
    nominal = ElectroThermalCosim(CosimConfig(**base)).run()
    print("Running low-flow scenario (48 ml/min)...")
    low_flow = ElectroThermalCosim(
        CosimConfig(total_flow_ml_min=48.0, **base)
    ).run()
    print("Running warm-inlet scenario (37 C)...")
    warm = ElectroThermalCosim(
        CosimConfig(inlet_temperature_k=310.15, **base)
    ).run()

    reference = nominal.isothermal_current_a
    rows = []
    for name, result, ref in (
        ("nominal", nominal, reference),
        ("48 ml/min", low_flow, low_flow.isothermal_current_a),
        ("37 C inlet", warm, reference),
    ):
        rows.append([
            name,
            result.iterations,
            result.array_current_a,
            result.peak_temperature_c,
            100.0 * (result.array_current_a / ref - 1.0),
        ])

    print()
    print(format_table(
        ["scenario", "iters", "I(1V) [A]", "peak T [C]", "thermal gain [%]"],
        rows, precision=3,
    ))
    print()
    print("Paper: <= 4 % at nominal flow; 'up to 23 %' at 48 ml/min or 37 C.")
    print("Per-group coolant temperatures (nominal), inlet -> outlet spread:")
    for g, t in enumerate(nominal.group_temperatures_k):
        bar = "#" * int((t - 300.0) * 20)
        print(f"  group {g:2d}: {t - 273.15:5.1f} C {bar}")


if __name__ == "__main__":
    main()
