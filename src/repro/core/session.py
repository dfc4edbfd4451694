"""Token-level strided RAG sessions over a real clustered datastore.

The cost models treat a stride as a fixed-price retrieval; this module runs
the actual §2.2 loop: encode the current context, retrieve, "generate" a
stride of tokens grounded in the retrieved chunks, fold them into the
context, and retrieve again. Because retrieval really re-executes against the
clustered indices with a drifting query, the session measures two quantities
the paper only assumes:

- **stride document overlap** — how often stride *i* re-retrieves stride
  *i-1*'s documents, the quantity behind RAGCache's (assumed ideal) hit rate;
- **routing stability** — whether the Hermes cluster choice stays put as the
  context evolves, which determines how well per-node caches and DVFS
  settings persist across strides.

Both quantities are also *acted on*, not just measured. With
``reuse_routing=True`` the session skips the sample-search fan-out whenever
the last freshly-routed strides agreed (Jaccard ≥
``routing_stability_threshold``), handing the previous stride's
:class:`~repro.core.router.RoutingDecision` back to the searcher; a fresh
re-route every ``max_routing_reuse`` strides bounds staleness as the context
drifts. And passing a :class:`~repro.llm.kvcache.PrefixCache` replays every
stride's retrieved ids through a real LRU cache *during* the run, so the
RAGCache baseline's "ideal 100% hit rate" becomes a measured number on the
session trace (``SessionTrace.prefix_stats``).

Generation is simulated deterministically (:func:`grounded_decode`): each
stride emits tokens sampled from the top retrieved chunk mixed with the
query's own tokens (a grounded "copy mechanism"), which preserves the topical
drift real RAG generation exhibits without needing a language model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datastore.chunkstore import ChunkStore
from ..datastore.encoder import SyntheticEncoder
from ..llm.kvcache import CacheStats, PrefixCache
from ..obs.metrics import get_registry
from .hierarchical import HierarchicalSearcher
from .router import RoutingDecision


def grounded_decode(
    rng: np.random.Generator,
    context: np.ndarray,
    retrieved_ids,
    chunk_store: ChunkStore,
    *,
    stride_tokens: int,
    grounding: float,
) -> np.ndarray:
    """One stride of grounded pseudo-generation.

    ``grounding`` of the stride's tokens are sampled from the top retrieved
    chunk, the rest from the running *context*. Returns an empty array when
    there is nothing to sample from (no valid top id and no context share).
    """
    top_id = int(retrieved_ids[0]) if len(retrieved_ids) else -1
    top_tokens = chunk_store.get(top_id).tokens if top_id >= 0 else ()
    n_grounded = int(round(stride_tokens * grounding))
    n_context = stride_tokens - n_grounded
    parts = []
    if n_grounded and len(top_tokens):
        parts.append(rng.choice(top_tokens, size=n_grounded))
    if n_context and len(context):
        parts.append(rng.choice(context, size=n_context))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts).astype(np.int64)


def _jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two routed-cluster id rows (ignoring -1)."""
    sa = {int(c) for c in a if c >= 0}
    sb = {int(c) for c in b if c >= 0}
    union = sa | sb
    return len(sa & sb) / len(union) if union else 1.0


@dataclass
class StrideStep:
    """One stride's retrieval + generation record."""

    stride_index: int
    retrieved_ids: np.ndarray
    routed_clusters: np.ndarray
    generated_tokens: np.ndarray
    #: True when this stride reused the previous stride's RoutingDecision
    #: instead of re-running sample search.
    routing_reused: bool = False


@dataclass
class SessionTrace:
    """Full record of one strided generation session."""

    steps: list[StrideStep] = field(default_factory=list)
    #: measured prefix-cache counters when the session ran with one
    #: (the RAGCache "real hit rate", measured instead of assumed)
    prefix_stats: CacheStats | None = None

    @property
    def n_strides(self) -> int:
        return len(self.steps)

    def stride_results(self) -> list[np.ndarray]:
        """Per-stride retrieved-id arrays (input to the RAGCache analyses)."""
        return [s.retrieved_ids for s in self.steps]

    def document_overlap(self) -> float:
        """Mean consecutive-stride retrieval overlap (0..1)."""
        from ..baselines.ragcache import stride_overlap_fraction

        return stride_overlap_fraction(self.stride_results())

    def routing_stability(self) -> float:
        """Mean Jaccard similarity of consecutive strides' routed clusters."""
        if len(self.steps) < 2:
            raise ValueError("need at least two strides")
        scores = [
            _jaccard(prev.routed_clusters, cur.routed_clusters)
            for prev, cur in zip(self.steps, self.steps[1:])
        ]
        return float(np.mean(scores))

    @property
    def routing_reuse_fraction(self) -> float:
        """Fraction of strides that skipped sample search by reusing routing."""
        if not self.steps:
            return 0.0
        return float(np.mean([s.routing_reused for s in self.steps]))

    @property
    def measured_prefix_hit_rate(self) -> float | None:
        """Real cross-stride KV-prefix hit rate, or None if not measured."""
        if self.prefix_stats is None:
            return None
        return self.prefix_stats.hit_rate

    def all_generated_tokens(self) -> np.ndarray:
        if not self.steps:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([s.generated_tokens for s in self.steps])


class StridedRAGSession:
    """Drives the strided retrieve→generate loop for one query.

    Parameters
    ----------
    searcher:
        Hierarchical searcher over the clustered datastore.
    encoder:
        The shared deterministic encoder (query context is re-encoded every
        stride).
    chunk_store:
        Id → chunk lookup for grounding the simulated generation.
    stride_tokens:
        Tokens generated per stride.
    context_window:
        Maximum context tokens kept when re-encoding (oldest dropped first),
        mirroring a fixed input window.
    grounding:
        Fraction of each stride's tokens copied from the top retrieved chunk
        (the rest repeat query-context tokens). Higher grounding drifts the
        query toward the retrieved topic faster.
    reuse_routing:
        Skip the sample-search fan-out on strides whose routing has proven
        stable: once the last two *fresh* routings agree (Jaccard ≥
        ``routing_stability_threshold``), subsequent strides hand the
        previous :class:`RoutingDecision` back to the searcher, re-routing
        freshly every ``max_routing_reuse`` strides to bound staleness.
    prefix_cache:
        Optional :class:`~repro.llm.kvcache.PrefixCache`; every stride's
        retrieved ids are replayed through it live, so the trace reports the
        *measured* RAGCache hit rate instead of the paper's 100% assumption.
    """

    def __init__(
        self,
        searcher: HierarchicalSearcher,
        encoder: SyntheticEncoder,
        chunk_store: ChunkStore,
        *,
        stride_tokens: int = 16,
        context_window: int = 512,
        grounding: float = 0.5,
        k: int = 5,
        seed: int = 0,
        reuse_routing: bool = False,
        routing_stability_threshold: float = 0.6,
        max_routing_reuse: int = 4,
        prefix_cache: PrefixCache | None = None,
    ) -> None:
        if stride_tokens <= 0 or context_window <= 0:
            raise ValueError("stride_tokens and context_window must be positive")
        if not 0.0 <= grounding <= 1.0:
            raise ValueError("grounding must be in [0, 1]")
        if not 0.0 <= routing_stability_threshold <= 1.0:
            raise ValueError("routing_stability_threshold must be in [0, 1]")
        if max_routing_reuse < 1:
            raise ValueError("max_routing_reuse must be >= 1")
        self.searcher = searcher
        self.encoder = encoder
        self.chunk_store = chunk_store
        self.stride_tokens = stride_tokens
        self.context_window = context_window
        self.grounding = grounding
        self.k = k
        self.reuse_routing = reuse_routing
        self.routing_stability_threshold = routing_stability_threshold
        self.max_routing_reuse = max_routing_reuse
        self.prefix_cache = prefix_cache
        self._rng = np.random.default_rng(seed)

    def run(self, query_tokens: np.ndarray, *, n_strides: int = 8) -> SessionTrace:
        """Execute *n_strides* of the retrieve→generate loop."""
        if n_strides <= 0:
            raise ValueError("n_strides must be positive")
        context = np.asarray(query_tokens, dtype=np.int64)
        if not len(context):
            raise ValueError("query must be non-empty")
        trace = SessionTrace(
            prefix_stats=self.prefix_cache.stats
            if self.prefix_cache is not None
            else None
        )
        prev_routing: RoutingDecision | None = None
        stable = False  # the last two fresh routings agreed
        reuse_run = 0
        for stride in range(n_strides):
            embedding = self.encoder.encode_tokens(context[-self.context_window:])
            reuse = (
                self.reuse_routing
                and stable
                and prev_routing is not None
                and reuse_run < self.max_routing_reuse
            )
            result = self.searcher.search(
                embedding[np.newaxis, :],
                k=self.k,
                routing=prev_routing if reuse else None,
            )
            if reuse:
                reuse_run += 1
                get_registry().counter(
                    "session_routing_reuses_total",
                    "strides that skipped sample search via stable routing",
                ).inc()
            else:
                if prev_routing is not None:
                    stable = (
                        _jaccard(
                            prev_routing.clusters[0], result.routing.clusters[0]
                        )
                        >= self.routing_stability_threshold
                    )
                reuse_run = 0
            prev_routing = result.routing
            ids = result.ids[0]
            if self.prefix_cache is not None:
                self._replay_prefix_cache(ids)
            generated = grounded_decode(
                self._rng,
                context,
                ids,
                self.chunk_store,
                stride_tokens=self.stride_tokens,
                grounding=self.grounding,
            )
            if not len(generated):
                raise ValueError("cannot generate from empty context and chunk")
            trace.steps.append(
                StrideStep(
                    stride_index=stride,
                    retrieved_ids=ids.copy(),
                    routed_clusters=result.routing.clusters[0].copy(),
                    generated_tokens=generated,
                    routing_reused=reuse,
                )
            )
            context = np.concatenate([context, generated])
        return trace

    def _replay_prefix_cache(self, ids: np.ndarray) -> None:
        """Feed one stride's retrievals to the live KV-prefix cache model."""
        for doc in ids:
            doc = int(doc)
            if doc < 0:
                continue
            if not self.prefix_cache.lookup(doc):
                chunk = self.chunk_store.get(doc)
                self.prefix_cache.insert(doc, max(len(chunk.tokens), 1))
