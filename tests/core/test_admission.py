"""The one bounded queue, driven bare: no threads, no engine, no sleeps."""

import pytest

from repro.core.admission import AdmissionQueue
from repro.core.overload import (ADMIT, BLOCK, DROP_NEWEST, DROP_OLDEST,
                                 REJECT, WAIT)


def fill(queue, items, tenant=""):
    for item in items:
        assert queue.offer(item, tenant) == (ADMIT, ())


class TestSingleTenant:
    def test_unbounded_admits_everything(self):
        queue = AdmissionQueue()
        fill(queue, range(1000))
        assert len(queue) == queue.depth == 1000
        assert queue.tenant_depths == {"": 1000}
        assert [queue.pop() for _ in range(3)] == [0, 1, 2]

    def test_drop_oldest_evicts_the_head(self):
        queue = AdmissionQueue(2, DROP_OLDEST)
        fill(queue, "ab")
        assert queue.offer("c") == (ADMIT, (("a", "", 1),))
        assert queue.items() == ("b", "c")
        assert queue.depth == 2

    def test_drop_newest_rejects_the_arrival(self):
        queue = AdmissionQueue(2, DROP_NEWEST)
        fill(queue, "ab")
        assert queue.offer("c", "t") == (REJECT, (("c", "t", 1),))
        assert queue.items() == ("a", "b")
        assert queue.tenant_depths == {"": 2}

    def test_wait_leaves_the_queue_untouched_and_a_retry_admits(self):
        queue = AdmissionQueue(2, BLOCK)
        fill(queue, "ab")
        assert queue.offer("c") == (WAIT, ())
        assert queue.items() == ("a", "b")
        assert queue.tenant_depths == {"": 2}
        assert queue.pop() == "a"
        assert queue.offer("c") == (ADMIT, ())
        assert queue.items() == ("b", "c")

    @pytest.mark.parametrize("policy", [DROP_OLDEST, DROP_NEWEST, BLOCK])
    def test_control_is_never_shed_evicted_or_counted(self, policy):
        queue = AdmissionQueue(1, policy)
        assert queue.offer("ctl-0", tuples=0) == (ADMIT, ())
        fill(queue, ["data-0"])
        # Full of data: control still gets in, and costs nothing.
        assert queue.offer("ctl-1", tuples=0) == (ADMIT, ())
        assert queue.depth == 1
        assert queue.tenant_depths == {"": 1}
        assert len(queue) == 3
        action, shed = queue.offer("data-1")
        if policy == DROP_OLDEST:
            # The victim is the oldest entry *carrying tuples*.
            assert shed == (("data-0", "", 1),)
            assert queue.items() == ("ctl-0", "ctl-1", "data-1")
        else:
            assert action == (REJECT if policy == DROP_NEWEST else WAIT)
            assert queue.items() == ("ctl-0", "data-0", "ctl-1")

    def test_an_entry_weighs_the_tuples_it_carries(self):
        queue = AdmissionQueue(100, DROP_OLDEST)
        shed = []
        for index in range(100):
            action, victims = queue.offer("batch-%d" % index, tuples=64)
            assert action == ADMIT
            shed.extend(victims)
        # 64 < 100 admits the second batch; from then on each arrival
        # evicts exactly one entry.
        assert queue.items() == ("batch-98", "batch-99")
        assert queue.depth == 128
        assert [entry[0] for entry in shed] \
            == ["batch-%d" % index for index in range(98)]
        assert sum(entry[2] for entry in shed) == 6272


class TestFairShare:
    def queue(self, capacity=4, budgets=None, priorities=None):
        queue = AdmissionQueue(capacity, DROP_NEWEST)  # policy is ignored
        queue.set_tenant_budgets(budgets or {"hot": 3, "cold": 1},
                                 priorities)
        return queue

    def test_free_space_admits_regardless_of_budget(self):
        queue = self.queue()
        fill(queue, range(4), "hot")  # one over its budget of 3
        assert queue.tenant_depths == {"hot": 4}

    def test_over_budget_tenant_rejects_its_own_arrival(self):
        queue = self.queue()
        fill(queue, range(4), "hot")
        assert queue.offer(4, "hot") == (REJECT, ((4, "hot", 1),))
        assert queue.items() == (0, 1, 2, 3)

    def test_under_budget_arrival_evicts_the_over_budget_tenants_oldest(self):
        queue = self.queue()
        fill(queue, ["c0"], "cold")
        fill(queue, ["h0", "h1", "h2"], "hot")
        queue.pop()  # c0 leaves; hot refills the slot and is over budget
        fill(queue, ["h3"], "hot")
        assert queue.offer("c1", "cold") == (ADMIT, (("h0", "hot", 1),))
        assert queue.items() == ("h1", "h2", "h3", "c1")
        assert queue.tenant_depths == {"hot": 3, "cold": 1}

    def test_lowest_priority_tier_is_the_victim_first(self):
        queue = self.queue(capacity=4, budgets={"a": 1, "b": 1, "c": 2},
                           priorities={"a": 1, "b": 0})
        fill(queue, ["a0", "a1"], "a")
        fill(queue, ["b0", "b1"], "b")
        # a and b are equally over budget; b sits in the lower tier.
        assert queue.offer("c0", "c") == (ADMIT, (("b0", "b", 1),))

    def test_most_over_budget_then_tenant_id_breaks_ties(self):
        queue = self.queue(capacity=6, budgets={"a": 1, "b": 1, "c": 2})
        fill(queue, ["b0", "b1", "b2"], "b")
        fill(queue, ["a0", "a1", "a2"], "a")
        # Same tier, same excess: the lexicographically smaller id loses.
        assert queue.offer("c0", "c") == (ADMIT, (("a0", "a", 1),))
        # Now b is the most over budget.
        assert queue.offer("c1", "c") == (ADMIT, (("b0", "b", 1),))

    def test_no_tenant_over_budget_means_no_victim(self):
        queue = self.queue(capacity=2, budgets={"a": 1, "b": 1, "c": 1})
        fill(queue, ["a0"], "a")
        fill(queue, ["b0"], "b")
        assert queue.offer("c0", "c") == (REJECT, (("c0", "c", 1),))
        assert queue.items() == ("a0", "b0")

    def test_never_waits_even_under_block(self):
        queue = AdmissionQueue(1, BLOCK)
        queue.set_tenant_budgets({"a": 1})
        fill(queue, ["a0"], "a")
        assert queue.offer("a1", "a")[0] == REJECT

    def test_clearing_the_budgets_restores_the_drop_policy(self):
        queue = self.queue(capacity=1)
        queue.set_tenant_budgets(None)
        assert queue.budgets is None
        fill(queue, ["h0"], "hot")
        assert queue.offer("h1", "hot")[0] == REJECT  # DROP_NEWEST again


class TestOccupancyAccounting:
    """pop, eviction and drain are the only places occupancy falls, and
    each leaves ``tenant_depths`` empty when the queue is."""

    def test_pop_forgets_the_tenant_at_zero(self):
        queue = AdmissionQueue(4)
        fill(queue, ["x"], "t0")
        queue.offer("batch", "t1", tuples=3)
        assert queue.tenant_depths == {"t0": 1, "t1": 3}
        assert queue.pop() == "x"
        assert queue.tenant_depths == {"t1": 3}
        assert queue.pop() == "batch"
        assert queue.tenant_depths == {} and queue.depth == 0

    def test_eviction_forgets_the_victim(self):
        queue = AdmissionQueue(1, DROP_OLDEST)
        fill(queue, ["x"], "t0")
        assert queue.offer("y", "t1") == (ADMIT, (("x", "t0", 1),))
        assert queue.tenant_depths == {"t1": 1}

    def test_drain_empties_everything(self):
        queue = AdmissionQueue(8)
        fill(queue, "ab", "t0")
        queue.offer("ctl", tuples=0)
        fill(queue, "c", "t1")
        depths = queue.tenant_depths  # holders of the dict see it cleared
        assert queue.drain() == ["a", "b", "ctl", "c"]
        assert len(queue) == 0 and queue.depth == 0
        assert depths == {} and queue.tenant_depths is depths

    def test_pop_on_empty_raises(self):
        with pytest.raises(IndexError):
            AdmissionQueue().pop()
