#!/usr/bin/env python
"""Capacity planning: how many phones does my sensing app need?

Before forming a swarm, a user can apply the Worker Selection rule
offline to the device catalogue: which devices must participate to
sustain a target rate, what utilisation and battery life to expect, and
where the feasibility frontier lies.  The plan is then checked against
the calibrated simulator.

Run with:  python examples/capacity_planning.py
"""

from repro import profiles
from repro.planner import feasibility_frontier, plan_swarm
from repro.simulation.swarm import SwarmConfig, run_swarm
from repro.simulation.workload import FACE_APP, face_workload
from repro.tools import format_table


def main():
    catalogue = profiles.worker_profiles()
    print("Planning face recognition at 24 FPS over the Table-I phones\n")

    plan = plan_swarm(catalogue, FACE_APP, target_rate=24.0)
    rows = [(device.device_id,
             "%.1f" % device.share_rate,
             "%.0f%%" % (device.utilization * 100),
             "%.2f W" % device.power_w,
             "%.1f h" % device.battery_hours)
            for device in plan.devices]
    print(format_table(["device", "share FPS", "cpu", "power", "battery"],
                       rows))
    print("\nplan: %d devices, %.2f W total, feasible: %s"
          % (len(plan.devices), plan.total_power_w, plan.feasible))

    print("\nFeasibility frontier (devices needed per target rate):")
    frontier = feasibility_frontier(catalogue, FACE_APP,
                                    rates=[6, 12, 24, 36, 48, 60])
    for rate, count in frontier.items():
        print("  %4.0f FPS -> %s" % (
            rate, "%d devices" % count if count else "infeasible"))

    # Validate the 24 FPS plan against the simulator.
    print("\nValidating the 24 FPS plan in the simulator...")
    config = SwarmConfig(workload=face_workload(),
                         workers={device_id: catalogue[device_id]
                                  for device_id in plan.device_ids},
                         source=profiles.device_profile("A"),
                         duration=30.0, seed=0)
    result = run_swarm(config)
    verdict = "meets" if result.meets_input_rate() else "misses"
    print("simulated throughput: %.1f FPS (%s the 24 FPS target)"
          % (result.throughput, verdict))


if __name__ == "__main__":
    main()
