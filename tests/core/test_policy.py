"""The retry policy on its own: :func:`run_call` and :func:`account` driven by
a scripted shard call under a manual clock — no searcher, no datastore."""

import pytest

from repro.core.errors import ShardCrashedError, ShardTimeoutError, TransientShardError
from repro.core.policy import (
    RetrievalPolicy,
    RetryBudget,
    ShardHealth,
    account,
    run_call,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import ManualClock

SHARD = 3
BUSY_S = 0.05


class ScriptedCall:
    """Each call records its ``timeout_s``, spends ``BUSY_S`` on the clock,
    then plays its next step: ``"ok"`` returns, ``"transient"`` /
    ``"crash"`` / ``"bug"`` raise."""

    def __init__(self, clock, steps):
        self.clock = clock
        self.steps = list(steps)
        self.calls = 0
        self.timeouts = []

    def __call__(self, timeout_s):
        step = self.steps[min(self.calls, len(self.steps) - 1)]
        self.calls += 1
        self.timeouts.append(timeout_s)
        self.clock.advance(BUSY_S)
        if step == "transient":
            raise TransientShardError(SHARD)
        if step == "crash":
            raise ShardCrashedError(SHARD)
        if step == "bug":
            raise ValueError("bad shard state")
        return ("answer", self.calls)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def run(steps, policy):
    clock = ManualClock()
    call = ScriptedCall(clock, steps)
    value, stats, failure = run_call(
        call, policy, shard_id=SHARD, queries=7, clock=clock
    )
    return call, value, stats, failure


class TestRunCall:
    @pytest.mark.parametrize(
        "steps, attempts, outcome, failure_type",
        [
            (["ok"], 1, "ok", None),
            (["transient", "ok"], 2, "ok", None),
            (["transient"], 3, "transient-exhausted", TransientShardError),
            (["crash"], 1, "crashed", ShardCrashedError),
            (["bug"], 1, "error", ValueError),
        ],
    )
    def test_scripted_outcomes(self, registry, steps, attempts, outcome, failure_type):
        call, value, stats, failure = run(steps, RetrievalPolicy(max_attempts=3))
        assert call.calls == stats.attempts == attempts
        assert call.timeouts == [None] * attempts  # the policy has no deadline
        assert stats.outcome == outcome
        assert (stats.shard_id, stats.queries) == (SHARD, 7)
        # latency_s is the clock time of every attempt, retries included
        assert stats.latency_s == pytest.approx(attempts * BUSY_S)
        if failure_type is None:
            assert stats.ok and failure is None
            assert value == ("answer", attempts)
        else:
            assert not stats.ok and isinstance(failure, failure_type)

    def test_retry_budget_exhaustion_stops_retries(self, registry):
        budget = RetryBudget()
        for _ in range(int(RetryBudget.CAPACITY) - 1):
            assert budget.try_spend()
        # one token left (plus the primary's deposit): one retry, then dry
        policy = RetrievalPolicy(max_attempts=5, retry_budget=budget)
        call, value, stats, failure = run(["transient"], policy)
        assert stats.attempts == 2
        assert stats.outcome == "retry-budget-exhausted"
        assert isinstance(failure, TransientShardError)
        assert budget.exhausted == 1
        assert registry.counter("retry_budget_exhausted_total").total() == 1

    def test_deadline_abandons_a_straggling_attempt(self, registry):
        """Each attempt gets the deadline as the call's ``timeout_s``. One
        that answers past it, by the runner's clock, is a timeout and its
        answer is dropped; so is a shard that raises the timeout itself.
        Neither is retried."""
        clock = ManualClock()
        policy = RetrievalPolicy(deadline_s=0.05, max_attempts=3)

        def overrun(timeout_s):
            clock.advance(2 * timeout_s)
            return "late"

        value, stats, failure = run_call(
            overrun, policy, shard_id=SHARD, queries=1, clock=clock
        )
        assert value is None
        assert (stats.outcome, stats.attempts) == ("timeout", 1)
        assert stats.latency_s == pytest.approx(0.1)
        assert isinstance(failure, ShardTimeoutError)
        assert (failure.shard_id, failure.deadline_s) == (SHARD, 0.05)

        def gives_up(timeout_s):
            clock.advance(timeout_s)
            raise ShardTimeoutError(SHARD, timeout_s)

        value, stats, failure = run_call(
            gives_up, policy, shard_id=SHARD, queries=1, clock=clock
        )
        assert value is None
        assert (stats.outcome, stats.attempts) == ("timeout", 1)
        assert isinstance(failure, ShardTimeoutError)

        call = ScriptedCall(clock, ["ok"])  # BUSY_S is inside the budget
        value, stats, failure = run_call(
            call, RetrievalPolicy(deadline_s=2 * BUSY_S), shard_id=SHARD,
            queries=1, clock=clock,
        )
        assert call.timeouts == [2 * BUSY_S]
        assert (value, stats.outcome, failure) == (("answer", 1), "ok", None)

    @pytest.mark.parametrize("step", ["transient", "crash", "bug"])
    def test_an_error_past_the_deadline_is_a_timeout(self, registry, step):
        """An attempt still running at its deadline is a timeout whatever it
        ends with: a transient error that comes back late is not retried."""
        clock = ManualClock()
        call = ScriptedCall(clock, [step, "ok"])  # BUSY_S overruns the budget
        value, stats, failure = run_call(
            call, RetrievalPolicy(deadline_s=BUSY_S / 2, max_attempts=3),
            shard_id=SHARD, queries=1, clock=clock,
        )
        assert value is None
        assert (stats.outcome, stats.attempts, call.calls) == ("timeout", 1, 1)
        assert isinstance(failure, ShardTimeoutError)
        assert failure.deadline_s == BUSY_S / 2


class TestAccount:
    def test_breaker_state_and_counters(self, registry):
        health = ShardHealth(4, threshold=2, cooldown=3)
        _, _, failed, _ = run(["transient"], RetrievalPolicy(max_attempts=2))
        account(failed, health)
        assert not health.is_open(SHARD)  # one failure of two
        account(failed, health)
        assert health.open_shards() == frozenset({SHARD})
        assert registry.counter("retrieval_breaker_trips_total").value(shard=SHARD) == 1
        assert registry.counter("retrieval_retries_total").total() == 2

        _, _, ok, _ = run(["ok"], RetrievalPolicy())
        account(ok, health)
        assert not health.is_open(SHARD)  # one success closes it
        latency = registry.histogram("retrieval_shard_latency_seconds")
        assert latency.count(outcome="transient-exhausted") == 2
        assert latency.count(outcome="ok") == 1
        assert latency.total(outcome="ok") == pytest.approx(BUSY_S)

    def test_no_breaker_is_fine(self, registry):
        _, _, stats, _ = run(["crash"], RetrievalPolicy())
        account(stats, None)
        assert registry.counter("retrieval_retries_total").total() == 0
