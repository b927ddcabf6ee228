"""The full POWER7+ case study — the paper's Section III in one script.

Reproduces, in order:
  1. the 88-channel array's V-I characteristic (Fig. 7),
  2. the cache power-grid voltage map (Fig. 8),
  3. the full-load thermal map (Fig. 9),
  4. the hydraulic/energy scalars (1.6 m/s, 4.4 W pump, net gain),
  5. the bright-silicon comparison against a conventional baseline.

Run:  python examples/power7_case_study.py
"""

from repro.core.report import ascii_heatmap, format_table
from repro.core.system import IntegratedPowerCoolingSystem


def main() -> None:
    system = IntegratedPowerCoolingSystem()

    print("=== Fig. 7: flow-cell array electrical capability =============")
    array = system.case_study.array
    print(f"  OCV:       {array.open_circuit_voltage_v:.3f} V")
    print(f"  I(1.0 V):  {array.current_at_voltage(1.0):.2f} A   (paper: 6 A)")
    print(f"  P(1.0 V):  {array.power_at_voltage(1.0):.2f} W")
    print(f"  max power: {array.max_power_w:.1f} W at "
          f"{array.curve.current_at_max_power_a:.1f} A")

    print()
    print("=== Fig. 8: cache power-grid voltage map ======================")
    pdn = system.solve_pdn()
    print(f"  supply current: {pdn.supply_current_a:.2f} A "
          f"through {pdn.feed_count} VRM tiles")
    print(f"  voltage window: [{pdn.min_voltage_v:.4f}, "
          f"{pdn.max_voltage_v:.4f}] V   (paper: ~[0.96, 0.995])")
    print(ascii_heatmap(pdn.voltage_map_v))

    print()
    print("=== Fig. 9: full-load thermal map =============================")
    thermal = system.steady_state()
    active = thermal.field_celsius("active_si")
    print(f"  peak junction temperature: {thermal.peak_celsius:.1f} C "
          "(paper: 41 C)")
    print(f"  energy balance error: {thermal.energy_balance_error_w():.2e} W")
    print(ascii_heatmap(active))

    print()
    print("=== Joint evaluation ==========================================")
    ev = system.evaluate(1.0)
    print(format_table(
        ["metric", "value", "paper"],
        [
            ["array power at 1 V [W]", ev.array_power_w, 6.0],
            ["cache demand [W]", ev.cache_demand_w, 5.0],
            ["demand met", str(ev.demand_met), "yes"],
            ["peak temperature [C]", ev.peak_temperature_c, 41.0],
            ["pumping power [W]", ev.pumping_power_w, 4.4],
            ["net energy gain [W]", ev.energy_balance.net_w, 1.6],
            ["bright-silicon utilization", ev.bright_utilization, 1.0],
            ["baseline utilization", ev.baseline_utilization, "<1"],
            ["I/O bumps freed", system.io_bumps_freed(), ">0"],
        ],
    ))


if __name__ == "__main__":
    main()
