"""Reproduction of *Hermes: Algorithm-System Co-design for Efficient
Retrieval-Augmented Generation At Scale* (Shen et al., ISCA 2025).

Public API quick tour
---------------------

>>> from repro import HermesSystem, HermesConfig, make_corpus
>>> corpus = make_corpus(5000)
>>> system = HermesSystem(corpus.embeddings, total_tokens=1e12)
>>> outcome = system.retrieve(corpus.embeddings[:8], k=5)
>>> outcome.search.ids.shape
(8, 5)

Subpackages
-----------

``repro.core``
    Hermes itself: clustered datastore, hierarchical search, scheduler,
    DVFS policies, end-to-end pipeline.
``repro.ann``
    Vector-search substrate (Flat/IVF/HNSW, SQ/PQ/OPQ quantization, K-means).
``repro.datastore``
    Synthetic corpora, encoder, and query workloads.
``repro.llm``
    Inference cost models and the strided-generation timeline.
``repro.hardware`` / ``repro.perfmodel``
    Platform models and the multi-node analysis tool.
``repro.baselines``
    Monolithic retrieval and the RAGCache overlap analyses.
``repro.experiments``
    One module per paper table/figure.
"""

from .baselines import MonolithicRetriever
from .core import (
    ClusteredDatastore,
    HermesConfig,
    HermesScheduler,
    HermesSearcher,
    HermesSystem,
    cluster_datastore,
    split_datastore_evenly,
)
from .datastore import SyntheticEncoder, TopicModel, make_corpus
from .llm import GenerationConfig, InferenceModel, simulate_generation
from .metrics import ndcg, recall_at_k
from .perfmodel import DVFSPolicy, MultiNodeModel

__version__ = "1.0.0"

__all__ = [
    "MonolithicRetriever",
    "ClusteredDatastore",
    "HermesConfig",
    "HermesScheduler",
    "HermesSearcher",
    "HermesSystem",
    "cluster_datastore",
    "split_datastore_evenly",
    "SyntheticEncoder",
    "TopicModel",
    "make_corpus",
    "GenerationConfig",
    "InferenceModel",
    "simulate_generation",
    "ndcg",
    "recall_at_k",
    "DVFSPolicy",
    "MultiNodeModel",
    "__version__",
]
