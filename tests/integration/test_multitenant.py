"""Multi-tenant isolation: many pipelines, one swarm, fair-share admission.

The tentpole guarantee of the multi-tenant control plane: N tenant
pipelines share one worker pool, and a tenant that overruns its admitted
rate sheds *its own* tuples — the victim tenants' latency, loss
accounting and shed counters stay unharmed.  Asserted on both
substrates:

- **simulator soak**: three tenants at an even rate, then the same run
  with one tenant ramped to 4x.  The victims must lose nothing
  end-to-end (at-least-once), their p99 latency must stay within 10% of
  the single-rate baseline, and every shed must carry the hot tenant's
  label.
- **threaded runtime**: three tenant pipelines over one shared pool
  with bounded, fair-share mailboxes.  A flooding tenant may shed, the
  victims' bounded streams must arrive complete.

Plus unit coverage of the shared pure decision function
(:func:`repro.core.multitenant.fair_admission`) and the weighted budget
split, and the N=1 byte-identity contract: a tenant-free run must show
no ``tenant=`` label and no tenant-scoped name anywhere.
"""


import pytest

from repro import metrics as metrics_mod
from repro.core import overload as overload_mod
from repro.core.controller import PolicyConfig
from repro.core.function_unit import CollectingSink, IterableSource, LambdaUnit
from repro.core.graph import GraphBuilder
from repro.core.multitenant import (TenantSpec, fair_admission,
                                    tenant_budgets)
from repro.core.overload import OverloadConfig
from repro.core.exceptions import RuntimeStateError
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime
from repro.simulation import scenarios
from repro.simulation.swarm import run_swarm

from tests.integration.waiting import wait_quiescent, wait_until

SEED = 3
DURATION = 25.0
PER_TENANT_RATE = 6.0
HOT = "t0"
VICTIMS = ("t1", "t2")
WARMUP = 5.0
#: judge loss on frames old enough for every redelivery to land
HORIZON = DURATION - 5.0


def _p99(samples):
    ordered = sorted(samples)
    assert ordered, "no latency samples"
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


@pytest.fixture(scope="module")
def baseline():
    """Every tenant at its fair rate: the p99 reference point."""
    return run_swarm(scenarios.tenants(seed=SEED, duration=DURATION,
                                       per_tenant_rate=PER_TENANT_RATE))


@pytest.fixture(scope="module")
def hot_run():
    """The same swarm with tenant t0 ramped to 4x its admitted rate."""
    return run_swarm(scenarios.tenants(seed=SEED, duration=DURATION,
                                       per_tenant_rate=PER_TENANT_RATE,
                                       hot_tenant=HOT, hot_rate_factor=4.0))


@pytest.mark.slow
class TestSimulatorIsolationSoak:
    def test_hot_tenant_sheds_under_its_own_label_only(self, hot_run):
        assert hot_run.shed_by_tenant.get(HOT, 0) > 0
        assert set(hot_run.shed_by_tenant) == {HOT}

    def test_victims_lose_nothing_end_to_end(self, hot_run):
        for tenant in VICTIMS:
            assert hot_run.tenant_losses(tenant, horizon=HORIZON) == []

    def test_victim_p99_within_ten_percent_of_baseline(self, baseline,
                                                       hot_run):
        for tenant in VICTIMS:
            before = _p99(baseline.tenant_latency_samples(tenant,
                                                          after=WARMUP))
            after = _p99(hot_run.tenant_latency_samples(tenant,
                                                        after=WARMUP))
            assert after <= before * 1.10, (
                "victim %s p99 degraded %.3fs -> %.3fs"
                % (tenant, before, after))

    def test_victim_throughput_holds(self, hot_run):
        for tenant in VICTIMS:
            assert (hot_run.tenant_throughput(tenant)
                    >= 0.9 * PER_TENANT_RATE)

    def test_every_frame_is_tagged_with_its_tenant(self, hot_run):
        tenants = {record.tenant
                   for record in hot_run.metrics.frames.values()}
        assert tenants == {HOT, "t1", "t2"}

    def test_hot_tenant_still_gets_its_fair_share(self, hot_run):
        # Fair-share is not starvation: the flooding tenant keeps at
        # least its admitted rate even while shedding the excess.
        assert hot_run.tenant_throughput(HOT) >= 0.9 * PER_TENANT_RATE

    def test_per_tenant_latency_views_cover_all_tenants(self, hot_run):
        for tenant in (HOT,) + VICTIMS:
            stats = hot_run.tenant_latency(tenant, after=WARMUP)
            assert stats is not None and stats.count > 0

    def test_worker_ingress_depths_stay_bounded(self, hot_run):
        capacity = hot_run.config.policy_config.overload.queue_capacity
        for name, depth in hot_run.max_queue_depths.items():
            if name.startswith("ingress:"):
                assert depth <= capacity, name


@pytest.mark.slow
class TestSingleTenantByteIdentity:
    """A tenant-free run must be indistinguishable from the seed system."""

    @pytest.fixture(scope="class")
    def single(self):
        return run_swarm(scenarios.overload(seed=3, duration=12.0,
                                            overload_until=10.0,
                                            kill_id=None))

    def test_no_tenant_label_on_any_counter(self, single):
        for counter in single.registry.counters():
            assert "tenant" not in counter.labels, counter.name

    def test_no_tenant_scoped_queue_names(self, single):
        for gauge in single.registry.gauges():
            queue = gauge.labels.get("queue", "")
            assert "@" not in queue, queue
        for name in single.max_queue_depths:
            assert "@" not in name, name

    def test_shed_by_tenant_view_is_empty(self, single):
        assert single.shed_by_tenant == {}

    def test_frames_carry_the_default_tenant(self, single):
        assert {record.tenant
                for record in single.metrics.frames.values()} == {""}


class TestFairAdmissionFunction:
    BUDGETS = {"a": 4, "b": 4, "c": 4}

    def test_admits_while_the_queue_has_space(self):
        decision = fair_admission("a", {"a": 11}, self.BUDGETS, 12)
        assert decision.action == overload_mod.ADMIT

    def test_unbounded_queue_always_admits(self):
        decision = fair_admission("a", {"a": 999}, self.BUDGETS, None)
        assert decision.action == overload_mod.ADMIT

    def test_over_budget_tenant_sheds_its_own_arrival(self):
        decision = fair_admission("a", {"a": 8, "b": 2, "c": 2},
                                  self.BUDGETS, 12)
        assert decision.action == overload_mod.REJECT

    def test_under_budget_arrival_evicts_the_most_over_budget(self):
        decision = fair_admission("c", {"a": 7, "b": 5, "c": 0},
                                  self.BUDGETS, 12)
        assert decision.action == overload_mod.EVICT_OLDEST
        assert decision.victim == "a"

    def test_lowest_priority_tier_sheds_first(self):
        decision = fair_admission(
            "c", {"a": 6, "b": 6, "c": 0}, self.BUDGETS, 12,
            priorities={"a": 1, "b": 0, "c": 0})
        assert decision.victim == "b"  # lower tier loses despite the tie

    def test_tenant_id_breaks_remaining_ties_deterministically(self):
        decision = fair_admission("c", {"a": 6, "b": 6, "c": 0},
                                  self.BUDGETS, 12)
        assert decision.victim == "a"

    def test_full_queue_with_no_overbudget_tenant_rejects(self):
        budgets = {"a": 6, "b": 6}
        decision = fair_admission("a", {"a": 6, "b": 6}, budgets, 12)
        assert decision.action == overload_mod.REJECT

    def test_unknown_tenant_has_zero_budget(self):
        decision = fair_admission("ghost", {"a": 12}, self.BUDGETS, 12)
        assert decision.action == overload_mod.REJECT


class TestTenantBudgets:
    def test_weighted_split(self):
        specs = [TenantSpec("a", weight=2.0), TenantSpec("b", weight=1.0),
                 TenantSpec("c", weight=1.0)]
        assert tenant_budgets(specs, 16) == {"a": 8, "b": 4, "c": 4}

    def test_every_tenant_gets_at_least_one_slot(self):
        specs = [TenantSpec("a", weight=100.0), TenantSpec("b", weight=0.01)]
        budgets = tenant_budgets(specs, 8)
        assert budgets["b"] == 1

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(RuntimeStateError):
            tenant_budgets([TenantSpec("a"), TenantSpec("a")], 8)

    def test_tenant_id_separator_chars_rejected(self):
        for bad in ("a:b", "a>b", "a@b", ""):
            with pytest.raises(RuntimeStateError):
                TenantSpec(bad)


# ---------------------------------------------------------------------------
# Threaded runtime: shared pool, bounded fair-share mailboxes.
# ---------------------------------------------------------------------------

VICTIM_TUPLES = 40


def _pipeline(tag, count):
    return (GraphBuilder("app-%s" % tag)
            .source("src", lambda: IterableSource(
                [{"x": i, "tag": tag} for i in range(count)]))
            .unit("double", lambda: LambdaUnit(
                lambda value: {"y": value["x"] * 2, "tag": value["tag"]}))
            .sink("snk", CollectingSink)
            .chain("src", "double", "snk")
            .build())


def _await_tenants(runtime, expectations, timeout=30.0):
    wait_until(
        lambda: all(len({data.seq for data in runtime.results(tenant)}) >= want
                    for tenant, want in expectations.items()),
        timeout=timeout, poll=0.05,
        message="tenants %s completing" % sorted(expectations))
    # Stragglers may still be in flight; wait for every tenant's sink
    # to go quiet instead of a fixed grace sleep.
    wait_quiescent(lambda: {tenant: len(runtime.results(tenant))
                            for tenant in expectations})


@pytest.mark.slow
class TestRuntimeIsolation:
    def test_victims_complete_while_a_tenant_floods(self):
        registry = metrics_mod.MetricsRegistry()
        pipelines = [
            (TenantSpec("hot", weight=1.0, input_rate=250.0),
             _pipeline("hot", 400)),
            (TenantSpec("v1", weight=1.0, input_rate=30.0),
             _pipeline("v1", VICTIM_TUPLES)),
            (TenantSpec("v2", weight=1.0, input_rate=30.0),
             _pipeline("v2", VICTIM_TUPLES)),
        ]
        runtime = SwingRuntime(
            pipelines, worker_ids=["B", "C"], registry=registry,
            config=PolicyConfig(policy="RR", seed=3,
                                control_interval=CONTROL_INTERVAL,
                                overload=OverloadConfig(queue_capacity=12)))
        runtime.start()
        try:
            _await_tenants(runtime, {"v1": VICTIM_TUPLES,
                                     "v2": VICTIM_TUPLES})
            victims = {tenant: sorted({data.seq
                                       for data in runtime.results(tenant)})
                       for tenant in ("v1", "v2")}
        finally:
            runtime.stop()
        # Every victim tuple arrived despite the flood next door...
        for tenant in ("v1", "v2"):
            assert victims[tenant] == list(range(VICTIM_TUPLES)), tenant
        # ...and whatever was shed carried the flooding tenant's label.
        shed_tenants = registry.values_by_label(metrics_mod.SHED_TOTAL,
                                                "tenant")
        assert set(shed_tenants) <= {"hot"}

    def test_tenants_route_to_their_own_sinks(self):
        pipelines = [
            (TenantSpec("alpha", input_rate=120.0), _pipeline("alpha", 30)),
            (TenantSpec("beta", input_rate=120.0), _pipeline("beta", 30)),
        ]
        runtime = SwingRuntime(pipelines, worker_ids=["B", "C"],
                               config=PolicyConfig(
                                   policy="RR", seed=1,
                                   control_interval=CONTROL_INTERVAL))
        runtime.start()
        try:
            _await_tenants(runtime, {"alpha": 30, "beta": 30})
            by_tenant = {tenant: runtime.results(tenant)
                         for tenant in ("alpha", "beta")}
        finally:
            runtime.stop()
        for tenant, results in by_tenant.items():
            assert {data.values["tag"] for data in results} == {tenant}
            assert all(data.tenant == tenant for data in results)
            assert sorted({data.seq for data in results}) == list(range(30))

    def test_stop_tenant_leaves_the_others_running(self):
        pipelines = [
            (TenantSpec("alpha", input_rate=40.0), _pipeline("alpha", 200)),
            (TenantSpec("beta", input_rate=120.0), _pipeline("beta", 60)),
        ]
        runtime = SwingRuntime(pipelines, worker_ids=["B", "C"],
                               config=PolicyConfig(
                                   policy="RR", seed=1,
                                   control_interval=CONTROL_INTERVAL))
        runtime.start()
        try:
            # Mid-run: alpha must be stopped while still short of done.
            wait_until(lambda: runtime.results("alpha"),
                       message="alpha's first delivery")
            runtime.stop_tenant("alpha")
            alpha_frozen = len({d.seq for d in runtime.results("alpha")})
            _await_tenants(runtime, {"beta": 60})
            beta = sorted({d.seq for d in runtime.results("beta")})
            alpha_after = len({d.seq for d in runtime.results("alpha")})
        finally:
            runtime.stop()
        assert beta == list(range(60))          # the survivor finished
        assert alpha_frozen < 200               # the stopped tenant did not
        assert alpha_after <= alpha_frozen + 2  # and stayed stopped

    def test_processed_by_tenant_accounting(self):
        pipelines = [
            (TenantSpec("alpha", input_rate=150.0), _pipeline("alpha", 50)),
            (TenantSpec("beta", input_rate=150.0), _pipeline("beta", 50)),
        ]
        runtime = SwingRuntime(pipelines, worker_ids=["B", "C"],
                               config=PolicyConfig(
                                   policy="RR", seed=2,
                                   control_interval=CONTROL_INTERVAL))
        runtime.start()
        try:
            _await_tenants(runtime, {"alpha": 50, "beta": 50})
        finally:
            runtime.stop()
        totals = {"alpha": 0, "beta": 0}
        for host in [runtime.master.runtime] + list(
                runtime.workers.values()):
            for tenant, count in host.processed_by_tenant.items():
                totals[tenant] = totals.get(tenant, 0) + count
        assert totals["alpha"] >= 50
        assert totals["beta"] >= 50

    def test_budgets_installed_on_every_mailbox(self):
        pipelines = [
            (TenantSpec("alpha", weight=3.0), _pipeline("alpha", 1)),
            (TenantSpec("beta", weight=1.0), _pipeline("beta", 1)),
        ]
        runtime = SwingRuntime(
            pipelines, worker_ids=["B"],
            config=PolicyConfig(policy="RR",
                                control_interval=CONTROL_INTERVAL,
                                overload=OverloadConfig(queue_capacity=8)))
        expected = tenant_budgets([spec for spec, _ in pipelines], 8)
        assert expected == {"alpha": 6, "beta": 2}
        for host in [runtime.master.runtime] + list(
                runtime.workers.values()):
            assert host.mailbox.tenant_budgets == expected
        runtime.fabric.close()
