"""Each invariant must fire on a bad synthetic history and stay quiet
on the matching good one — the checker's unit-level teeth."""

import ast
import pathlib

import repro.runtime
from repro.core.keyed import KEY_SPACE, hash_key
from repro.simulation import metrics as sim_metrics
from repro.verify.invariants import (KNOWN_DROP_REASONS, InvariantChecker,
                                     RunHistory, TenantHistory, Violation)


def history(**overrides) -> RunHistory:
    """A minimal clean single-tenant run: 10 emitted, 10 delivered."""
    ledger = TenantHistory(emitted=set(range(10)), judged=set(range(10)),
                           delivered=list(range(10)))
    base = dict(substrate="sim", at_least_once=True,
                tenants={"": ledger})
    base.update(overrides)
    return RunHistory(**base)


def fired(run: RunHistory, invariant: str):
    found = [violation for violation in InvariantChecker().check(run)
             if violation.invariant == invariant]
    return found


class TestCleanBaseline:
    def test_clean_history_raises_nothing(self):
        assert InvariantChecker().check(history()) == []

    def test_violation_to_dict_is_serializable(self):
        violation = Violation("x", "y", {"seqs": {3, 1}})
        assert violation.to_dict()["details"]["seqs"] == [1, 3]


class TestTupleConservation:
    def test_phantom_delivery_fires(self):
        ledger = TenantHistory(emitted=set(range(10)),
                               judged=set(range(10)),
                               delivered=list(range(11)))
        run = history(tenants={"": ledger})
        assert fired(run, "tuple_conservation")

    def test_ghost_drop_charge_fires(self):
        ledger = TenantHistory(emitted=set(range(10)),
                               judged=set(range(10)),
                               delivered=list(range(10)),
                               accounted={99})
        run = history(tenants={"": ledger})
        assert fired(run, "tuple_conservation")

    def test_silent_loss_beyond_eviction_budget_fires(self):
        ledger = TenantHistory(emitted=set(range(10)),
                               judged=set(range(10)),
                               delivered=list(range(8)))  # 8, 9 vanish
        run = history(tenants={"": ledger},
                      evict_reasons={"capacity": 1})
        assert fired(run, "tuple_conservation")

    def test_evicted_loss_is_accounted(self):
        ledger = TenantHistory(emitted=set(range(10)),
                               judged=set(range(10)),
                               delivered=list(range(8)), evictions=2)
        run = history(tenants={"": ledger},
                      evict_reasons={"capacity": 2})
        assert not fired(run, "tuple_conservation")
        assert not fired(run, "at_least_once_completeness")

    def test_retained_and_queued_are_in_flight_not_loss(self):
        ledger = TenantHistory(emitted=set(range(10)),
                               judged=set(range(10)),
                               delivered=list(range(6)),
                               queued_end={6, 7}, retained={8, 9})
        run = history(tenants={"": ledger})
        assert InvariantChecker().check(run) == []

    def test_post_horizon_tuples_are_not_judged(self):
        ledger = TenantHistory(emitted=set(range(12)),
                               judged=set(range(10)),
                               delivered=list(range(10)))
        run = history(tenants={"": ledger})
        assert InvariantChecker().check(run) == []


class TestCompleteness:
    def test_per_tenant_loss_fires(self):
        good = TenantHistory(emitted=set(range(10)),
                             judged=set(range(10)),
                             delivered=list(range(10)))
        bad = TenantHistory(emitted=set(range(100, 110)),
                            judged=set(range(100, 110)),
                            delivered=list(range(100, 105)))
        run = history(tenants={"t0": good, "t1": bad})
        found = fired(run, "at_least_once_completeness")
        assert found and found[0].details["tenant"] == "t1"

    def test_best_effort_mode_skips_completeness(self):
        ledger = TenantHistory(emitted=set(range(10)),
                               judged=set(range(10)), delivered=[0, 1])
        run = history(tenants={"": ledger}, at_least_once=False)
        assert not fired(run, "at_least_once_completeness")
        assert not fired(run, "tuple_conservation")


class TestDedupSoundness:
    def test_duplicate_past_sink_fires(self):
        ledger = TenantHistory(emitted=set(range(10)),
                               judged=set(range(10)),
                               delivered=list(range(10)) + [4])
        run = history(tenants={"": ledger})
        found = fired(run, "dedup_soundness")
        assert found and found[0].details["seqs"] == [4]


class TestEpochFencing:
    def test_missing_recovery_fires(self):
        run = history(expected_recoveries=1, recoveries=0)
        assert fired(run, "epoch_fencing")

    def test_non_monotonic_epochs_fire(self):
        run = history(epochs=(0, 2, 1),
                      expected_recoveries=2, recoveries=2)
        assert fired(run, "epoch_fencing")

    def test_clean_failover_passes(self):
        run = history(epochs=(0, 1), expected_recoveries=1, recoveries=1)
        assert not fired(run, "epoch_fencing")


class TestKeyedIntegrity:
    def _audit(self, owner="B", holder="B"):
        key = "user-7"
        return {
            "tables": {"": [[0, KEY_SPACE, owner]]},
            "stores": {holder: {"": [key]}},
        }

    def test_single_owner_on_owner_passes(self):
        run = history(keyed_audit=self._audit())
        assert not fired(run, "keyed_state_integrity")

    def test_key_in_two_stores_fires(self):
        audit = self._audit()
        audit["stores"]["D"] = {"": ["user-7"]}
        run = history(keyed_audit=audit)
        assert fired(run, "keyed_state_integrity")

    def test_key_on_wrong_owner_fires(self):
        run = history(keyed_audit=self._audit(owner="D", holder="B"))
        found = fired(run, "keyed_state_integrity")
        assert found and found[0].details["owner"] == "D"

    def test_split_table_still_routes_by_hash(self):
        key = "user-7"
        mid = KEY_SPACE // 2
        low_owner, high_owner = ("B", "D")
        holder = low_owner if hash_key(key) < mid else high_owner
        run = history(keyed_audit={
            "tables": {"": [[0, mid, low_owner],
                            [mid, KEY_SPACE, high_owner]]},
            "stores": {holder: {"": [key]}},
        })
        assert not fired(run, "keyed_state_integrity")


class TestBoundedQueues:
    def test_over_capacity_fires(self):
        run = history(queue_depths={"ingress:B": 13}, queue_capacity=12)
        assert fired(run, "bounded_queues")

    def test_at_capacity_passes(self):
        run = history(queue_depths={"ingress:B": 12}, queue_capacity=12)
        assert not fired(run, "bounded_queues")

    def test_unbounded_config_skips(self):
        run = history(queue_depths={"ingress:B": 9999},
                      queue_capacity=None)
        assert not fired(run, "bounded_queues")


class TestTenantIsolation:
    def test_victim_loss_fires(self):
        hot = TenantHistory(emitted=set(range(10)),
                            judged=set(range(10)),
                            delivered=list(range(4)), evictions=6)
        victim = TenantHistory(emitted=set(range(100, 110)),
                               judged=set(range(100, 110)),
                               delivered=list(range(100, 108)))
        run = history(tenants={"t0": hot, "t1": victim},
                      hot_tenant="t0", evict_reasons={"shed": 6})
        found = fired(run, "tenant_isolation")
        assert found and found[0].details["tenant"] == "t1"

    def test_hot_tenant_own_loss_is_fine(self):
        hot = TenantHistory(emitted=set(range(10)),
                            judged=set(range(10)),
                            delivered=list(range(4)), evictions=6)
        victim = TenantHistory(emitted=set(range(100, 110)),
                               judged=set(range(100, 110)),
                               delivered=list(range(100, 110)))
        run = history(tenants={"t0": hot, "t1": victim},
                      hot_tenant="t0", evict_reasons={"shed": 6})
        assert not fired(run, "tenant_isolation")


class TestLossAccounted:
    def test_unknown_drop_reason_fires(self):
        run = history(drop_reasons={"cosmic_rays": 3})
        assert fired(run, "loss_accounted")

    def test_unknown_evict_reason_fires(self):
        run = history(evict_reasons={"gremlins": 1})
        assert fired(run, "loss_accounted")

    def test_known_reasons_pass(self):
        run = history(
            drop_reasons={sim_metrics.DROP_LINK_DOWN: 5,
                          "chaos_drop": 2, "corrupt_batch": 1},
            evict_reasons={})
        assert not fired(run, "loss_accounted")

    def test_every_reason_the_runtime_charges_is_known(self):
        """Each ``reason="..."`` literal counted under DROPPED_TOTAL in
        ``src/repro/runtime`` (and each one ChaosFabric hands to
        ``_count_loss``) must be in KNOWN_DROP_REASONS, or the first
        schedule that produces it reads as a false violation."""
        charged = {}
        runtime = pathlib.Path(repro.runtime.__file__).parent
        for path in sorted(runtime.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                if getattr(node.func, "attr", "") == "_count_loss":
                    values = node.args[:1]
                elif any(getattr(arg, "attr", "") == "DROPPED_TOTAL"
                         for arg in node.args):
                    values = [keyword.value for keyword in node.keywords
                              if keyword.arg == "reason"]
                else:
                    continue
                for value in values:
                    for leaf in ast.walk(value):
                        if isinstance(leaf, ast.Constant) \
                                and isinstance(leaf.value, str):
                            charged.setdefault(leaf.value, path.name)
        # Guard the guard: the scan must see the reasons we know exist.
        assert {"chaos_drop", "ack_unsent", "send_failed",
                "corrupt_frame"} <= set(charged)
        unknown = {reason: where for reason, where in charged.items()
                   if reason not in KNOWN_DROP_REASONS}
        assert not unknown, "drop reasons missing from the checker: %s" % unknown
