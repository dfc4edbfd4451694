"""End-to-end Hermes RAG pipeline (the paper's Fig. 9 online path).

:class:`HermesSystem` is the facade a downstream user builds once and then
serves queries with. It composes:

- the **encoder** (``SyntheticEncoder`` stand-in for BGE-Large) for raw text
  queries — pre-encoded embeddings are accepted directly, mirroring the
  paper's use of pre-encoded TriviaQA queries;
- the **clustered datastore + hierarchical searcher** for real retrieval with
  real document ids;
- the **chunk store + augmentation** mapping ids back to text and building
  the enhanced prompt;
- the **scheduler + multi-node performance model** for the latency/energy of
  that retrieval at a configured deployment scale; and
- the **inference model + strided-generation timeline** for TTFT/E2E/energy
  of the whole RAG request, under any combination of PipeRAG pipelining and
  RAGCache prefix caching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datastore.chunkstore import AugmentedQuery, ChunkStore, augment_query
from ..datastore.encoder import SyntheticEncoder
from ..hardware.node import NodeCluster
from ..llm.generation import (
    GenerationConfig,
    GenerationResult,
    RetrievalCost,
    constant_retrieval,
    inference_block_s,
    simulate_generation,
)
from ..llm.inference import InferenceModel
from ..perfmodel.aggregate import DVFSPolicy
from .clustering import ClusteredDatastore, cluster_datastore
from .config import HermesConfig
from .hierarchical import HermesSearcher, SearchResult
from .scheduler import HermesScheduler


@dataclass(frozen=True)
class RetrievalOutcome:
    """Real retrieval results plus their modelled system cost."""

    search: SearchResult
    latency_s: float
    energy_j: float

    def cost(self) -> RetrievalCost:
        return RetrievalCost(latency_s=self.latency_s, energy_j=self.energy_j)


@dataclass(frozen=True)
class RAGResponse:
    """One served batch: retrieval results and generation timeline."""

    retrieval: RetrievalOutcome
    generation: GenerationResult
    augmented: list[AugmentedQuery] | None = None


class HermesSystem:
    """A deployed Hermes RAG service.

    Parameters
    ----------
    embeddings:
        The corpus embedding matrix that the clustered indices are built on.
    total_tokens:
        Nominal datastore size in tokens for the deployment being modelled
        (the real index is a scale model; latency/energy follow this size).
    config:
        Hermes tunables (Table 2 defaults).
    generation:
        Serving configuration (batch/sequence/stride; pipelining/caching).
    inference:
        Inference cost model (defaults to Gemma2-9B on one A6000 Ada).
    chunk_store:
        Optional id→text store enabling prompt augmentation.
    encoder:
        Optional text encoder for raw-text queries.
    fleet:
        Optional custom retrieval fleet (defaults to one Xeon Gold node per
        cluster).
    dvfs:
        Frequency policy for the deep-search phase (Fig. 21's knob).
    """

    def __init__(
        self,
        embeddings: np.ndarray,
        *,
        total_tokens: float,
        config: HermesConfig | None = None,
        generation: GenerationConfig | None = None,
        inference: InferenceModel | None = None,
        chunk_store: ChunkStore | None = None,
        encoder: SyntheticEncoder | None = None,
        fleet: NodeCluster | None = None,
        dvfs: DVFSPolicy = DVFSPolicy.NONE,
        datastore: ClusteredDatastore | None = None,
    ) -> None:
        self.config = config or HermesConfig()
        self.generation_config = generation or GenerationConfig()
        self.inference = inference or InferenceModel()
        self.chunk_store = chunk_store
        self.encoder = encoder
        self.dvfs = dvfs
        self.datastore = (
            datastore
            if datastore is not None
            else cluster_datastore(embeddings, self.config)
        )
        self.searcher = HermesSearcher(self.datastore, config=self.config)
        self.scheduler = HermesScheduler(
            datastore=self.datastore,
            total_tokens=total_tokens,
            cluster=fleet,
            config=self.config,
        )

    # -- encoding ------------------------------------------------------------
    def encode(self, queries: "list[str] | np.ndarray") -> np.ndarray:
        """Accept raw text (requires an encoder) or pre-encoded embeddings."""
        if isinstance(queries, np.ndarray):
            return queries
        if self.encoder is None:
            raise ValueError("raw-text queries require an encoder")
        return self.encoder.encode_batch(list(queries))

    # -- retrieval ---------------------------------------------------------------
    def retrieve(
        self, queries: "list[str] | np.ndarray", *, k: int | None = None
    ) -> RetrievalOutcome:
        """Hierarchical retrieval: real results, modelled fleet cost."""
        embeddings = self.encode(queries)
        search = self.searcher.search(embeddings, k=k)
        # Enhanced DVFS may stretch retrieval into the pipelined inference block.
        modelled = self.scheduler.dispatch(
            search.routing,
            dvfs=self.dvfs,
            latency_target_s=inference_block_s(self.inference, self.generation_config)
            if self.dvfs is DVFSPolicy.ENHANCED
            else None,
        )
        return RetrievalOutcome(
            search=search, latency_s=modelled.latency_s, energy_j=modelled.energy_j
        )

    # -- full service --------------------------------------------------------------
    def serve(
        self, queries: "list[str] | np.ndarray", *, k: int | None = None
    ) -> RAGResponse:
        """Retrieve, augment (when a chunk store is attached), and simulate
        the strided generation for one batch."""
        retrieval = self.retrieve(queries, k=k)
        batch = retrieval.search.batch_size
        gen_cfg = replace(self.generation_config, batch=batch)
        generation = simulate_generation(
            constant_retrieval(retrieval.cost()), self.inference, gen_cfg
        )
        augmented = None
        if self.chunk_store is not None and not isinstance(queries, np.ndarray):
            augmented = [
                augment_query(
                    text,
                    self.chunk_store,
                    retrieval.search.ids[i],
                    top_n=self.config.rerank_top,
                )
                for i, text in enumerate(queries)
            ]
        return RAGResponse(
            retrieval=retrieval, generation=generation, augmented=augmented
        )

    # -- persistence -----------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist the deployment (indices + serving config) to a directory.

        The expensive artefact — the clustered indices — round-trips exactly;
        the inference/encoder models are reconstructed from their specs.
        """
        import dataclasses
        import json
        from pathlib import Path

        from .store_io import save_datastore

        directory = Path(directory)
        save_datastore(self.datastore, directory)
        meta = {
            "total_tokens": self.scheduler.total_tokens,
            "dvfs": self.dvfs.value,
            "generation": dataclasses.asdict(self.generation_config),
        }
        (directory / "system.json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def load(cls, directory, **overrides) -> "HermesSystem":
        """Rebuild a system saved by :meth:`save` (overrides win)."""
        import json
        from pathlib import Path

        from .store_io import load_datastore

        directory = Path(directory)
        datastore = load_datastore(directory)
        meta = json.loads((directory / "system.json").read_text())
        kwargs = {
            "total_tokens": meta["total_tokens"],
            "generation": GenerationConfig(**meta["generation"]),
            "dvfs": DVFSPolicy(meta["dvfs"]),
            "config": datastore.config,
            "datastore": datastore,
        }
        kwargs.update(overrides)
        # embeddings are unused when a prebuilt datastore is supplied
        return cls(np.empty((0, 1), dtype=np.float32), **kwargs)

    # -- introspection ----------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident size of the real clustered indices."""
        return self.datastore.memory_bytes()

    def describe(self) -> dict:
        """Summary of the deployed configuration (for logs and examples)."""
        return {
            "clusters": self.datastore.n_clusters,
            "documents": self.datastore.ntotal,
            "imbalance": self.datastore.imbalance,
            "total_tokens_modelled": self.scheduler.total_tokens,
            "clusters_to_search": self.config.clusters_to_search,
            "sample_nprobe": self.config.sample_nprobe,
            "deep_nprobe": self.config.deep_nprobe,
            "inference_model": self.inference.model.name,
            "gpu": f"{self.inference.n_gpus}x {self.inference.gpu.name}",
            "dvfs": self.dvfs.value,
        }
