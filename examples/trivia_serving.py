"""Question-answering service over a token-level corpus.

Run with::

    python examples/trivia_serving.py

The workload the paper's intro motivates: factoid QA against an external
knowledge store. This example exercises the *full* offline and online paths —
raw token documents are chunked and encoded (no pre-made embeddings), queries
arrive as text, and every question gets its augmented prompt. The batch's
cost at the deployment scale being modelled comes from the fleet model and
the generation timeline; a few questions are then served live through the
stride-scheduled pipeline. It ends by checking retrieval quality against the
exhaustive ground truth, showing where the Hermes accuracy/efficiency
trade-off lands.
"""

import numpy as np

from repro import (
    GenerationConfig,
    HermesConfig,
    HermesSearcher,
    InferenceModel,
    MonolithicRetriever,
    MultiNodeModel,
    cluster_datastore,
    ndcg,
    simulate_generation,
)
from repro.datastore import (
    ChunkStore,
    CorpusGenerator,
    SyntheticEncoder,
    TokenVocabulary,
    augment_query,
    chunk_documents,
)
from repro.llm.generation import RetrievalCost, constant_retrieval
from repro.perfmodel import routing_to_batch
from repro.serving import PipelineConfig, RAGServingPipeline

N_TOPICS = 8
N_DOCS = 600
QUERIES_PER_TOPIC = 4
#: the deployment scale being modelled
TOTAL_TOKENS = 100e9


def build_knowledge_store():
    """Offline stage: documents -> chunks -> embeddings (paper Fig. 2)."""
    vocab = TokenVocabulary(n_topics=N_TOPICS, pool_size=150, common_size=100)
    generator = CorpusGenerator(vocab, doc_tokens=128, topical_fraction=0.75, seed=1)
    documents = generator.generate(N_DOCS)
    chunks = chunk_documents(documents, chunk_tokens=64)
    encoder = SyntheticEncoder(dim=96, seed=0)
    embeddings = encoder.encode_chunks(chunks)
    return vocab, chunks, encoder, embeddings


def make_questions(vocab: TokenVocabulary) -> list[tuple[str, int]]:
    """Text questions, each drawn from one topic's characteristic tokens."""
    rng = np.random.default_rng(7)
    questions = []
    for topic in range(N_TOPICS):
        pool = vocab.topic_pool(topic)
        for _ in range(QUERIES_PER_TOPIC):
            tokens = rng.choice(pool, size=16, replace=False)
            questions.append((" ".join(f"tok{t}" for t in tokens), topic))
    return questions


def main() -> None:
    vocab, chunks, encoder, embeddings = build_knowledge_store()
    print(f"knowledge store: {len(chunks)} chunks, dim {embeddings.shape[1]}")

    config = HermesConfig(n_clusters=N_TOPICS, clusters_to_search=2)
    datastore = cluster_datastore(embeddings, config)
    searcher = HermesSearcher(datastore)
    store = ChunkStore(chunks)
    questions = make_questions(vocab)
    texts = [q for q, _ in questions]

    # Online stage (paper Fig. 3): encode, retrieve, augment.
    query_emb = encoder.encode_batch(texts)
    search = searcher.search(query_emb)
    augmented = [
        augment_query(text, store, search.ids[i], top_n=config.rerank_top)
        for i, text in enumerate(texts)
    ]

    # What that routed batch costs on a fleet hosting this clustering at scale.
    retrieval = MultiNodeModel.hosting(datastore.shard_token_sizes(TOTAL_TOKENS)).hermes(
        len(texts),
        routing_to_batch(search.routing).node_loads(datastore.n_clusters),
        sample_nprobe=config.sample_nprobe,
        deep_nprobe=config.deep_nprobe,
    )
    generation = simulate_generation(
        constant_retrieval(RetrievalCost(retrieval.latency_s, retrieval.energy_j)),
        InferenceModel(),
        GenerationConfig(batch=len(texts)),
    )
    print(f"\nserved {len(texts)} questions")
    print(f"retrieval per stride: {retrieval.latency_s:.2f} s")
    print(f"E2E generation      : {generation.e2e_s:.1f} s")

    # The same questions as live requests: measured retrieval through the
    # batcher and cache, modelled GPU clock, lookahead speculation per stride.
    with RAGServingPipeline(
        searcher, encoder, store, config=PipelineConfig(mode="lookahead", k=5)
    ) as pipeline:
        live = pipeline.serve([encoder.tokenize(text) for text in texts[:4]])
    print(
        f"live, 4 requests    : TTFT {live.mean_ttft_s:.2f} s, "
        f"E2E {live.mean_e2e_s:.1f} s, {live.mean_energy_j:.0f} J per request"
    )

    # How topically on-target is the augmentation?
    on_target = 0
    for (text, topic), aug in zip(questions, augmented):
        context_topics = [
            vocab.topic_of_token(int(w[3:]))
            for w in aug.context_texts[0].split()
            if vocab.topic_of_token(int(w[3:])) >= 0
        ]
        if context_topics and np.bincount(
            context_topics, minlength=N_TOPICS
        ).argmax() == topic:
            on_target += 1
    print(f"context topical hit rate: {on_target}/{len(questions)}")

    # Retrieval quality vs the exhaustive ground truth.
    _, truth = MonolithicRetriever(embeddings).ground_truth(query_emb, 5)
    print(f"Hermes NDCG vs brute force: {ndcg(search.ids, truth):.3f} "
          f"(searching {config.clusters_to_search}/{N_TOPICS} clusters)")

    print("\nexample augmented prompt (truncated):")
    print(" ", augmented[0].prompt()[:120], "...")


if __name__ == "__main__":
    main()
