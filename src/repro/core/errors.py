"""Retrieval-fleet error taxonomy.

Hermes's one-index-per-node deployment (§4/§6) puts every retrieval node on
the TTFT critical path, so the searcher has to distinguish *how* a shard
failed to pick the right response:

- :class:`TransientShardError` — a blip (dropped RPC, brief overload); worth
  a bounded retry.
- :class:`ShardCrashedError` — the node is gone; retrying is wasted work, the
  circuit breaker should open and routing should exclude the shard.
- :class:`ShardTimeoutError` — the per-shard deadline elapsed (straggler or
  silent failure): a blocking shard raises it at its call's ``timeout_s``,
  and a late answer counts as one. The shard degrades; it is not retried.
- :class:`ShardSearchError` — an *unexpected* exception inside a shard's deep
  search, re-raised with the shard id and routed query count attached so the
  fan-out's failure context is never lost.

:class:`RetrievalUnavailableError` is the terminal case: no live shard is
left to serve the query batch, so no degraded result can be produced.

Two request-scoped (not shard-scoped) failures support the overload story:

- :class:`AdmissionRejectedError` — the serving queue is full; the request
  is refused *at submit time* so the client can back off or retry elsewhere
  instead of queueing behind work that will miss its deadline anyway.
- :class:`DeadlineExceededError` — the request's end-to-end budget ran out
  before a result could be produced (shed at dequeue, or expired mid-search).
  Distinct from :class:`ShardTimeoutError`, which is one shard missing its
  *per-attempt* deadline inside a batch that may still succeed.

The fault *models* that raise these live in :mod:`repro.serving.faults`;
keeping the types here lets the core searcher stay import-free of the
serving/chaos tooling.
"""

from __future__ import annotations


class RetrievalError(RuntimeError):
    """Base class for retrieval-fleet failures."""


class RetrievalUnavailableError(RetrievalError):
    """Every shard is excluded, open-circuit, or failed: nothing can serve."""


class AdmissionRejectedError(RetrievalError):
    """The bounded serving queue is full: fail fast instead of queueing."""

    def __init__(self, queue_depth: int, max_queue: int, message: str | None = None) -> None:
        self.queue_depth = int(queue_depth)
        self.max_queue = int(max_queue)
        super().__init__(
            message
            or f"admission rejected: queue holds {queue_depth} of {max_queue} requests"
        )


class DeadlineExceededError(RetrievalError):
    """The request's end-to-end deadline elapsed before it could be served.

    ``stage`` records where the budget ran out: ``"queue"`` (shed at dequeue
    because the remaining budget cannot cover the estimated service time) or
    ``"search"`` (expired while the search was in flight).
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        *,
        stage: str = "search",
        message: str | None = None,
    ) -> None:
        self.deadline_s = deadline_s
        self.stage = stage
        if message is None:
            suffix = f" ({deadline_s:.3g}s budget)" if deadline_s is not None else ""
            message = f"deadline exceeded in {stage}{suffix}"
        super().__init__(message)


class ShardError(RetrievalError):
    """A failure scoped to one shard; carries the shard id."""

    def __init__(self, shard_id: int, message: str | None = None) -> None:
        self.shard_id = int(shard_id)
        super().__init__(message or f"shard {shard_id} failed")


class ShardCrashedError(ShardError):
    """Crash-stop: the node hosting this shard is permanently down."""

    def __init__(self, shard_id: int, message: str | None = None) -> None:
        super().__init__(shard_id, message or f"shard {shard_id} crashed (crash-stop)")


class TransientShardError(ShardError):
    """A retryable failure: the shard is expected to recover shortly."""

    def __init__(self, shard_id: int, message: str | None = None) -> None:
        super().__init__(shard_id, message or f"shard {shard_id} transient error")


class ShardTimeoutError(ShardError):
    """The per-shard deadline elapsed before the shard answered."""

    def __init__(
        self, shard_id: int, deadline_s: float | None = None, message: str | None = None
    ) -> None:
        self.deadline_s = deadline_s
        if message is None:
            suffix = f" after {deadline_s:.3g}s" if deadline_s is not None else ""
            message = f"shard {shard_id} missed its deadline{suffix}"
        super().__init__(shard_id, message)


class ShardSearchError(ShardError):
    """Context wrapper for unexpected exceptions inside a shard fan-out.

    Raised ``from`` the original exception so the traceback chain shows both
    the root cause and which shard (serving how many routed queries) hit it.
    """

    def __init__(self, shard_id: int, n_queries: int, cause: BaseException) -> None:
        self.n_queries = int(n_queries)
        super().__init__(
            shard_id,
            f"deep search failed on shard {shard_id} "
            f"({n_queries} routed queries): {type(cause).__name__}: {cause}",
        )
