"""Quickstart: build a Hermes RAG deployment and serve a query batch.

Run with::

    python examples/quickstart.py

This walks the minimal happy path: generate a topic-structured corpus, build
the clustered Hermes datastore, retrieve with the hierarchical search (real
document ids), cost that routed batch on a fleet hosting the same clustering
at a trillion tokens, and run the strided-generation timeline — printing the
latency/energy comparison against the monolithic baseline.
"""

from repro import (
    GenerationConfig,
    HermesConfig,
    HermesSearcher,
    InferenceModel,
    MultiNodeModel,
    cluster_datastore,
    make_corpus,
    simulate_generation,
)
from repro.datastore import trivia_queries
from repro.llm.generation import RetrievalCost, constant_retrieval
from repro.perfmodel import routing_to_batch

TOTAL_TOKENS = 1e12


def main() -> None:
    # 1. A corpus with latent topic structure (stands in for Common Crawl
    #    embeddings; see DESIGN.md "Substitutions").
    corpus = make_corpus(10_000, n_topics=10, dim=64, seed=0)
    queries = trivia_queries(corpus.topic_model, 32)

    # 2. A Hermes deployment: 10 clustered indices searched 3-deep with the
    #    paper's nProbe split, and one node per cluster hosting that cluster's
    #    share of a 1T-token datastore.
    config = HermesConfig(n_clusters=10, clusters_to_search=3)
    datastore = cluster_datastore(corpus.embeddings, config)
    fleet = MultiNodeModel.hosting(datastore.shard_token_sizes(TOTAL_TOKENS))
    print(
        f"deployment: {datastore.n_clusters} clusters over {datastore.ntotal} "
        f"documents (size imbalance {datastore.imbalance:.2f}x), modelling "
        f"{TOTAL_TOKENS:.0e} tokens\n"
    )

    # 3. Serve one batch: real retrieval results, modelled system cost.
    search = HermesSearcher(datastore).search(queries.embeddings)
    retrieval = fleet.hermes(
        search.batch_size,
        routing_to_batch(search.routing).node_loads(datastore.n_clusters),
        sample_nprobe=config.sample_nprobe,
        deep_nprobe=config.deep_nprobe,
    )
    generation = simulate_generation(
        constant_retrieval(RetrievalCost(retrieval.latency_s, retrieval.energy_j)),
        InferenceModel(),
        GenerationConfig(batch=32, input_tokens=512, output_tokens=256, stride=16),
    )
    print(f"retrieved ids (first query): {search.ids[0]}")
    print(f"retrieval per stride : {retrieval.latency_s:8.2f} s  {retrieval.energy_j:9.0f} J")
    print(f"TTFT                 : {generation.ttft_s:8.2f} s")
    print(f"end-to-end           : {generation.e2e_s:8.2f} s")
    print(f"total energy         : {generation.total_energy_j:8.0f} J\n")

    # 4. Against the monolithic baseline on the same workload.
    mono = fleet.monolithic(TOTAL_TOKENS, 32, nprobe=config.deep_nprobe)
    print(f"monolithic retrieval : {mono.latency_s:8.2f} s per stride")
    print(f"Hermes speedup       : {mono.latency_s / retrieval.latency_s:8.2f}x")


if __name__ == "__main__":
    main()
