"""Reproduction of *Hermes: Algorithm-System Co-design for Efficient
Retrieval-Augmented Generation At Scale* (Shen et al., ISCA 2025).

Public API quick tour
---------------------

>>> from repro import HermesSearcher, MultiNodeModel, cluster_datastore, make_corpus
>>> from repro.perfmodel import routing_to_batch
>>> corpus = make_corpus(5000)
>>> datastore = cluster_datastore(corpus.embeddings)
>>> result = HermesSearcher(datastore).search(corpus.embeddings[:8], k=5)
>>> result.ids.shape
(8, 5)
>>> fleet = MultiNodeModel.hosting(datastore.shard_token_sizes(1e12))
>>> loads = routing_to_batch(result.routing).node_loads(datastore.n_clusters)
>>> fleet.hermes(8, loads).latency_s > 0  # the routed batch at 1T tokens
True

Subpackages
-----------

``repro.core``
    Hermes itself: clustered datastore, hierarchical search, DVFS policies.
``repro.ann``
    Vector-search substrate (Flat/IVF/HNSW, SQ/PQ/OPQ quantization, K-means).
``repro.datastore``
    Synthetic corpora, encoder, and query workloads.
``repro.llm``
    Inference cost models and the strided-generation timeline.
``repro.hardware`` / ``repro.perfmodel``
    Platform models and the multi-node analysis tool (fleet provisioning,
    routed loads, latency / energy of a batch at nominal scale).
``repro.serving``
    The live stride-scheduled pipeline, cache / batcher frontend, faults,
    admission control and replication.
``repro.baselines``
    Monolithic retrieval and the RAGCache overlap analyses.
``repro.experiments``
    One module per paper table/figure.
"""

from .baselines import MonolithicRetriever
from .core import (
    ClusteredDatastore,
    HermesConfig,
    HermesSearcher,
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
    "HermesSearcher",
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
