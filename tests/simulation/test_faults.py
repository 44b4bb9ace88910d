"""Fault-injection tests: silent kills discovered via loss accounting.

The acceptance scenario for the failure-detection subsystem: kill 2 of N
devices mid-stream with NO control-plane notification, and require that
the run completes cleanly, the tracker marks exactly the killed devices
dead within the configured timeout window, their traffic share moves to
the survivors, and the metrics registry attributes non-zero lost counts
to exactly the killed devices.
"""

import pytest

from repro import metrics as metrics_mod
from repro.core.exceptions import SimulationError
from repro.core.faults import (CHAOS_DELAY, CHAOS_DROP, EVERY_LINK, KILL,
                               REJOIN, FaultEvent, FaultSchedule)
from repro.simulation.scenarios import fault_injection
from repro.simulation.swarm import SwarmConfig, run_swarm
from repro.simulation.workload import face_workload
from repro import profiles

KILL_TIME = 8.0
ACK_TIMEOUT = 2.0
DEAD_AFTER = 3


def run_fault_scenario(**kwargs):
    kwargs.setdefault("duration", 25.0)
    kwargs.setdefault("kill_time", KILL_TIME)
    kwargs.setdefault("ack_timeout", ACK_TIMEOUT)
    kwargs.setdefault("dead_after", DEAD_AFTER)
    return run_swarm(fault_injection(**kwargs))


class TestFaultInjectionAcceptance:
    def test_kill_two_of_four_mid_stream(self):
        result = run_fault_scenario()
        killed = {"B", "G"}
        survivors = {"D", "H"}

        # 1. The run completed with no unhandled exceptions (we are here)
        #    and still made progress on the survivors.
        assert result.throughput > 0.0

        # 2. Exactly the killed devices were marked dead.
        assert set(result.dead_downstreams) == killed
        marked = result.registry.values_by_label(
            metrics_mod.MARKED_DEAD_TOTAL, "downstream")
        assert set(marked) == killed

        # 3. Non-zero lost counts for exactly the killed devices.
        lost = result.registry.values_by_label(metrics_mod.LOST_TOTAL,
                                               "downstream")
        assert set(lost) == killed
        assert all(count > 0 for count in lost.values())
        for device_id in survivors:
            assert result.lost_by_downstream.get(device_id, 0) == 0

        # 4. Their share was re-routed: the final decision's weights
        #    renormalize over the survivors only.
        _when, decision = result.decisions[-1]
        assert set(decision.weights) <= survivors
        assert sum(decision.weights.values()) > 0.0

    def test_detection_within_configured_window(self):
        result = run_fault_scenario()
        killed = {"B", "G"}
        # Detection bound: every in-flight tuple to a dead device expires
        # within ack_timeout (+ one control tick per required expiry
        # round); after that the policy must have dropped both devices.
        detection_deadline = (KILL_TIME + ACK_TIMEOUT + DEAD_AFTER + 1.0)
        for when, decision in result.decisions:
            if when >= detection_deadline:
                assert not (set(decision.weights) & killed), \
                    "still routing to %s at t=%.1f" % (
                        set(decision.weights) & killed, when)

    def test_sent_counters_cover_tuples_into_the_void(self):
        result = run_fault_scenario()
        sent = result.registry.values_by_label(metrics_mod.SENT_TOTAL,
                                               "downstream")
        acked = result.registry.values_by_label(metrics_mod.ACKED_TOTAL,
                                                "downstream")
        lost = result.registry.values_by_label(metrics_mod.LOST_TOTAL,
                                               "downstream")
        for device_id in ("B", "G"):
            # Sends after the kill are recorded even though the device is
            # gone — that is what makes the losses attributable.
            assert sent[device_id] > acked.get(device_id, 0)
            resolved = acked.get(device_id, 0) + lost.get(device_id, 0)
            assert resolved <= sent[device_id]

    def test_revived_devices_resurrected_by_probing(self):
        result = run_fault_scenario(duration=40.0, revive_time=20.0)
        assert result.dead_downstreams == []
        resurrected = result.registry.values_by_label(
            metrics_mod.RESURRECTED_TOTAL, "downstream")
        assert set(resurrected) == {"B", "G"}

    def test_combined_fault_run_ticks_every_counter(self):
        # All four fault flavors in one end-to-end run: silent kills,
        # later revives, a message-drop window and a message-delay
        # window — each must leave its trace in the counters.
        clean = run_fault_scenario(duration=40.0, revive_time=20.0)
        result = run_fault_scenario(duration=40.0, revive_time=20.0,
                                    drop_window=4.0, delay_window=6.0,
                                    extra_delay=0.4)
        registry = result.registry
        marked = registry.values_by_label(metrics_mod.MARKED_DEAD_TOTAL,
                                          "downstream")
        assert set(marked) == {"B", "G"}          # kills detected
        resurrected = registry.values_by_label(
            metrics_mod.RESURRECTED_TOTAL, "downstream")
        assert set(resurrected) == {"B", "G"}     # revives detected
        assert result.dead_downstreams == []
        assert sum(result.lost_by_downstream.values()) > 0  # losses charged
        dropped = registry.values_by_label(metrics_mod.DROPPED_TOTAL,
                                           "reason")
        assert dropped.get("link_down", 0) > 0    # drop window fired
        assert result.latency.mean > clean.latency.mean  # delay window felt

    def test_registries_are_private_per_run(self):
        first = run_fault_scenario(duration=15.0)
        second = run_fault_scenario(duration=15.0)
        assert first.registry is not second.registry
        lost_first = first.registry.values_by_label(metrics_mod.LOST_TOTAL,
                                                    "downstream")
        lost_second = second.registry.values_by_label(metrics_mod.LOST_TOTAL,
                                                      "downstream")
        assert lost_first == lost_second  # same seed, not doubled counts


class TestMessageFaults:
    def _config(self, events, duration=12.0):
        return SwarmConfig(
            workload=face_workload(),
            workers=profiles.worker_profiles(["D", "H"]),
            source=profiles.device_profile(profiles.SOURCE_ID),
            policy="LRS",
            duration=duration,
            seed=0,
            ack_timeout=ACK_TIMEOUT,
            schedule=FaultSchedule(events=events),
        )

    def test_message_drop_window_loses_tuples(self):
        clean = run_swarm(self._config(()))
        faulty = run_swarm(self._config(
            (FaultEvent(3.0, CHAOS_DROP, EVERY_LINK, duration=4.0,
                        value=1.0),)))
        assert faulty.throughput < clean.throughput
        dropped = faulty.registry.values_by_label(
            metrics_mod.DROPPED_TOTAL, "reason")
        assert dropped.get("link_down", 0) > 0

    def test_message_delay_window_stretches_latency(self):
        clean = run_swarm(self._config(()))
        faulty = run_swarm(self._config(
            (FaultEvent(3.0, CHAOS_DELAY, EVERY_LINK, duration=4.0,
                        value=0.4),)))
        assert faulty.latency.mean > clean.latency.mean

    def test_targeted_drop_only_hits_named_device(self):
        faulty = run_swarm(self._config(
            (FaultEvent(3.0, CHAOS_DROP, "A>D", duration=6.0,
                        value=1.0),)))
        lost = faulty.lost_by_downstream
        assert lost.get("H", 0) == 0


class TestFaultConfigValidation:
    def test_unknown_fault_event_rejected(self):
        config = SwarmConfig(
            workload=face_workload(),
            workers=profiles.worker_profiles(["D"]),
            source=profiles.device_profile(profiles.SOURCE_ID),
            schedule=("not-a-fault",),
        )
        with pytest.raises(SimulationError):
            config.validate()

    def test_bad_ack_timeout_rejected(self):
        config = SwarmConfig(
            workload=face_workload(),
            workers=profiles.worker_profiles(["D"]),
            source=profiles.device_profile(profiles.SOURCE_ID),
            ack_timeout=0.0,
        )
        with pytest.raises(SimulationError):
            config.validate()

    def test_cannot_kill_every_worker(self):
        with pytest.raises(SimulationError):
            fault_injection(worker_ids=("B", "G"), kill_ids=("B", "G"))

    def test_cannot_kill_unknown_device(self):
        with pytest.raises(SimulationError):
            fault_injection(worker_ids=("B", "G"), kill_ids=("Z",))

    def test_kill_and_revive_events_schedule(self):
        config = fault_injection(revive_time=20.0)
        kills = [e for e in config.schedule if e.action == KILL]
        revives = [e for e in config.schedule if e.action == REJOIN]
        assert {e.target for e in kills} == {"B", "G"}
        assert {e.target for e in revives} == {"B", "G"}
