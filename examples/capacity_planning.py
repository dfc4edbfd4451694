"""Capacity planning: size a Hermes fleet for a target deployment.

Run with::

    python examples/capacity_planning.py

The operator-facing use of the paper's §4.1/Fig. 10/Fig. 19 analysis: given a
datastore size, an inference model, and a serving shape, pick the cluster
count so retrieval hides under inference, then report the resulting fleet —
node count, memory per node, throughput, energy per request — and what the
two DVFS policies save.
"""

from repro.experiments.fig10 import max_hidden_cluster_tokens, recommended_clusters
from repro.experiments.common import build_fleet, hermes_retrieval_cost, monolithic_retrieval_cost
from repro.llm.generation import (
    GenerationConfig,
    RetrievalCost,
    constant_retrieval,
    inference_block_s,
    simulate_generation,
)
from repro.llm.inference import InferenceModel
from repro.llm.models import get_model
from repro.perfmodel.aggregate import DVFSPolicy, expected_deep_loads
from repro.perfmodel.measurements import index_memory_bytes

DATASTORE_TOKENS = 300e9
MODEL_KEY = "gemma2_9b"
SERVING = GenerationConfig(batch=128, input_tokens=512, output_tokens=256, stride=16)


def main() -> None:
    inference = InferenceModel(model=get_model(MODEL_KEY))
    window = inference_block_s(inference, SERVING)
    print(f"deployment target : {DATASTORE_TOKENS:.0e} tokens, {inference.model.name}")
    print(f"inference window  : {window:.2f} s per stride (batch {SERVING.batch})")

    # 1. Cluster sizing (Fig. 10's pipeline-gap rule).
    max_cluster = max_hidden_cluster_tokens(config=SERVING)
    n_clusters = recommended_clusters(DATASTORE_TOKENS, config=SERVING)
    print(f"\nmax hidden cluster: {max_cluster:.3g} tokens")
    print(f"recommended fleet : {n_clusters} nodes")
    per_node_gb = index_memory_bytes(DATASTORE_TOKENS / n_clusters) / 1e9
    print(f"memory per node   : {per_node_gb:.0f} GB (IVF-SQ8)")

    # 2. Model the fleet under the NQ-like access skew.
    fleet = build_fleet(DATASTORE_TOKENS, n_clusters=n_clusters)
    clusters_to_search = 3
    loads = expected_deep_loads(SERVING.batch, fleet.access_frequency, clusters_to_search)

    plain = fleet.model.hermes(SERVING.batch, loads)
    dvfs = fleet.model.hermes(SERVING.batch, loads, dvfs=DVFSPolicy.BASELINE)
    enhanced = fleet.model.hermes(
        SERVING.batch, loads, dvfs=DVFSPolicy.ENHANCED, latency_target_s=window
    )
    naive = fleet.model.naive_split(SERVING.batch)
    mono = monolithic_retrieval_cost(DATASTORE_TOKENS, SERVING.batch)

    print(f"\nretrieval per stride (batch {SERVING.batch}):")
    print(f"  monolithic      : {mono.latency_s:7.2f} s   {mono.energy_j:9.0f} J")
    print(f"  naive split     : {naive.latency_s:7.2f} s   {naive.energy_j:9.0f} J")
    print(f"  hermes          : {plain.latency_s:7.2f} s   {plain.energy_j:9.0f} J")
    print(f"  hermes +dvfs    : {dvfs.latency_s:7.2f} s   {dvfs.energy_j:9.0f} J")
    print(f"  hermes +dvfs++  : {enhanced.latency_s:7.2f} s   {enhanced.energy_j:9.0f} J")
    print(f"  fleet throughput: {fleet.model.throughput_qps(SERVING.batch, plain):.0f} QPS")
    hidden = "yes" if plain.latency_s <= window else "NO — add nodes"
    print(f"  hides under inference window: {hidden}")

    # 3. End-to-end request view (pipelined + prefix-cached stack).
    from dataclasses import replace

    cost = hermes_retrieval_cost(
        fleet, SERVING.batch, clusters_to_search=clusters_to_search,
        dvfs=DVFSPolicy.ENHANCED, latency_target_s=window,
    )
    stack_cfg = replace(SERVING, pipelined=True, prefix_cached=True)
    stacked = simulate_generation(constant_retrieval(cost), inference, stack_cfg)
    baseline = simulate_generation(
        constant_retrieval(RetrievalCost(mono.latency_s, mono.energy_j)),
        inference,
        SERVING,
    )
    print("\nend-to-end per batch:")
    print(f"  baseline (monolithic, unoptimized): {baseline.e2e_s:7.1f} s")
    print(f"  hermes/piperag/ragcache stack     : {stacked.e2e_s:7.1f} s")
    print(f"  speedup                           : {baseline.e2e_s / stacked.e2e_s:7.2f}x")
    print(f"  energy saving                     : "
          f"{baseline.total_energy_j / stacked.total_energy_j:7.2f}x")


if __name__ == "__main__":
    main()
