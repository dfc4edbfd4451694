"""Multi-node aggregation: the paper's Fig. 15 analysis tool.

Given per-node measurement models (:mod:`repro.perfmodel.measurements`), a
fleet (:class:`repro.hardware.node.NodeCluster`), and a routing trace, this
module computes end-to-end retrieval latency, energy, and throughput for the
three serving organisations the paper compares:

- **monolithic**: one node holds the whole datastore;
- **naive split**: every node searches every query batch, results are
  aggregated (commercial distributed vector DBs);
- **Hermes**: a cheap sample phase on all nodes ranks clusters, then only the
  routed subset runs the deep search — optionally with the paper's two DVFS
  policies (§4.2 and Fig. 21) trimming node frequencies.

Latency of a phase is the slowest participating node; energy sums active
nodes plus idle draw of the rest for the phase duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..hardware.cpu import XEON_GOLD_6448Y, CPUPlatform
from ..hardware.dvfs import frequency_for_target, operating_point
from ..hardware.node import NodeCluster
from .measurements import RetrievalCostModel, index_memory_bytes


class DVFSPolicy(Enum):
    """Frequency-scaling policies for the Hermes deep-search phase."""

    #: All nodes run at maximum frequency.
    NONE = "none"
    #: Underloaded nodes slow down to match the slowest cluster in the batch
    #: (the paper's 10.1-14.5% savings).
    BASELINE = "baseline"
    #: All nodes slow down to match the *inference* latency the retrieval is
    #: pipelined under (the paper's enhanced 18.8-22.1% savings).
    ENHANCED = "enhanced"


@dataclass(frozen=True)
class PhaseResult:
    """Latency/energy of one retrieval phase across the fleet."""

    latency_s: float
    energy_j: float
    per_node_latency_s: np.ndarray
    per_node_energy_j: np.ndarray

    @property
    def nodes_active(self) -> int:
        return int(np.count_nonzero(self.per_node_latency_s > 0))


@dataclass(frozen=True)
class DistributedRetrievalResult:
    """Full Hermes (or naive-split) retrieval outcome for one batch."""

    latency_s: float
    energy_j: float
    sample: PhaseResult | None
    deep: PhaseResult

    @property
    def clusters_deep_searched(self) -> int:
        return self.deep.nodes_active


class MultiNodeModel:
    """Aggregates calibrated per-node costs into fleet-level metrics."""

    def __init__(self, cluster: NodeCluster) -> None:
        if not len(cluster):
            raise ValueError("cluster must contain at least one node")
        self.cluster = cluster
        self._cost_models = [RetrievalCostModel(platform=n.cpu) for n in cluster]

    @classmethod
    def hosting(
        cls, shard_tokens: "list[float]", cpu: CPUPlatform | None = None
    ) -> "MultiNodeModel":
        """A homogeneous fleet with node *i* hosting a shard of ``shard_tokens[i]``.

        Nodes are provisioned to fit the largest shard with headroom (the
        capacity check still guards hand-built fleets). With a clustering's
        ``shard_token_sizes(total)`` the measured shard imbalance flows into
        latency, energy and DVFS.
        """
        shard_tokens = [float(t) for t in shard_tokens]
        if not shard_tokens or min(shard_tokens) < 0 or sum(shard_tokens) <= 0:
            raise ValueError("shard_tokens must be non-negative with a positive total")
        shard_bytes = [index_memory_bytes(t) for t in shard_tokens]
        cluster = NodeCluster.homogeneous(
            len(shard_tokens),
            cpu=cpu or XEON_GOLD_6448Y,
            memory_gb=max(1024.0, 2 * max(shard_bytes) / 1e9),
        )
        cluster.host_shards(shard_tokens, shard_bytes)
        return cls(cluster)

    # -- single-node organisations -----------------------------------------
    def monolithic(
        self, datastore_tokens: float, batch: int, *, nprobe: int = 128
    ) -> PhaseResult:
        """One node searches the entire datastore (the paper's baseline)."""
        cost = self._cost_models[0]
        latency = cost.batch_latency(datastore_tokens, batch, nprobe=nprobe)
        energy = cost.batch_energy(datastore_tokens, batch, nprobe=nprobe)
        per_lat = np.zeros(len(self.cluster))
        per_en = np.zeros(len(self.cluster))
        per_lat[0] = latency
        per_en[0] = energy
        return PhaseResult(
            latency_s=latency,
            energy_j=energy,
            per_node_latency_s=per_lat,
            per_node_energy_j=per_en,
        )

    # -- fleet phases ------------------------------------------------------------
    def _phase(
        self,
        per_node_batch: np.ndarray,
        *,
        nprobe: int,
        dvfs: DVFSPolicy = DVFSPolicy.NONE,
        latency_target_s: float | None = None,
        period_s: float | None = None,
    ) -> PhaseResult:
        """Run one phase where node *i* searches ``per_node_batch[i]`` queries.

        Under :attr:`DVFSPolicy.BASELINE` every node slows to just meet the
        slowest node's max-frequency latency; under :attr:`DVFSPolicy.ENHANCED`
        the target additionally stretches to ``latency_target_s`` (the
        pipelined inference window).

        Energy accounting separates **idle** draw — every node pays idle
        power for the accounting window ``period_s`` (defaults to the phase
        latency; in steady-state pipelined serving the batch period is set by
        the slowest pipeline stage, so comparisons across DVFS policies pass
        a common period) — from **dynamic** energy, which scales with the
        chosen frequency squared per unit work (cubic power x inverse-linear
        time).
        """
        n = len(self.cluster)
        loads = np.asarray(per_node_batch, dtype=np.int64)
        if len(loads) != n:
            raise ValueError(f"expected {n} per-node loads, got {len(loads)}")
        busy = np.zeros(n)
        for i, (node, cost) in enumerate(zip(self.cluster, self._cost_models)):
            if loads[i] > 0:
                busy[i] = cost.batch_latency(
                    node.shard_tokens, int(loads[i]), nprobe=nprobe
                )
        max_busy = float(busy.max()) if busy.size else 0.0

        if dvfs is DVFSPolicy.ENHANCED:
            if latency_target_s is None:
                raise ValueError("ENHANCED DVFS requires latency_target_s")
            target = max(max_busy, latency_target_s)
        else:
            target = max_busy

        per_lat = np.zeros(n)
        per_dyn = np.zeros(n)
        for i, (node, cost) in enumerate(zip(self.cluster, self._cost_models)):
            if loads[i] == 0:
                continue
            if dvfs is DVFSPolicy.NONE:
                freq = node.cpu.max_freq_ghz
            else:
                freq = frequency_for_target(node.cpu, busy[i], target)
            point = operating_point(
                node.cpu,
                busy[i],
                freq,
                utilization=cost.utilization(int(loads[i])),
            )
            per_lat[i] = point.latency_s
            per_dyn[i] = (
                node.cpu.power_at(freq, utilization=cost.utilization(int(loads[i])))
                - node.cpu.idle_power_w
            ) * point.latency_s
        phase_latency = float(per_lat.max()) if per_lat.size else 0.0
        period = max(phase_latency, period_s or 0.0)
        per_en = per_dyn + np.array(
            [node.cpu.idle_power_w * period for node in self.cluster]
        )
        return PhaseResult(
            latency_s=phase_latency,
            energy_j=float(per_en.sum()),
            per_node_latency_s=per_lat,
            per_node_energy_j=per_en,
        )

    def naive_split(
        self, batch: int, *, nprobe: int = 128
    ) -> DistributedRetrievalResult:
        """Every node searches the whole batch; results are aggregated."""
        loads = np.full(len(self.cluster), batch, dtype=np.int64)
        deep = self._phase(loads, nprobe=nprobe)
        return DistributedRetrievalResult(
            latency_s=deep.latency_s, energy_j=deep.energy_j, sample=None, deep=deep
        )

    def hermes(
        self,
        batch: int,
        deep_loads: np.ndarray,
        *,
        sample_nprobe: int = 8,
        deep_nprobe: int = 128,
        dvfs: DVFSPolicy = DVFSPolicy.NONE,
        latency_target_s: float | None = None,
        period_s: float | None = None,
    ) -> DistributedRetrievalResult:
        """Hermes hierarchical retrieval: sample all, deep-search the routed.

        ``deep_loads[i]`` is the number of the batch's queries whose top-m
        routing includes cluster *i* (from a
        :class:`~repro.perfmodel.trace.BatchRouting` or an expected-load
        vector). The sample phase always runs the full batch on every node.
        """
        sample_loads = np.full(len(self.cluster), batch, dtype=np.int64)
        sample = self._phase(sample_loads, nprobe=sample_nprobe)
        deep = self._phase(
            np.asarray(deep_loads),
            nprobe=deep_nprobe,
            dvfs=dvfs,
            latency_target_s=latency_target_s,
            period_s=period_s,
        )
        return DistributedRetrievalResult(
            latency_s=sample.latency_s + deep.latency_s,
            energy_j=sample.energy_j + deep.energy_j,
            sample=sample,
            deep=deep,
        )

    # -- throughput --------------------------------------------------------------
    def throughput_qps(self, batch: int, result: DistributedRetrievalResult) -> float:
        """Steady-state fleet throughput for back-to-back identical batches.

        The fleet is a pipeline: a new batch can start its sample phase while
        the previous one deep-searches, so throughput is gated by the busier
        of the two phases (per-node max busy time).
        """
        stage_times = []
        if result.sample is not None:
            stage_times.append(float(result.sample.per_node_latency_s.max()))
        stage_times.append(float(result.deep.per_node_latency_s.max()))
        bottleneck = max(t for t in stage_times if t >= 0)
        if bottleneck <= 0:
            return math.inf
        return batch / bottleneck


def expected_deep_loads(
    batch: int, access_frequency: np.ndarray, clusters_searched: int
) -> np.ndarray:
    """Expected per-node deep-search loads from a cluster access distribution.

    Each query deep-searches ``clusters_searched`` clusters; cluster *i*
    participates proportionally to its trace access frequency. Loads are the
    expected query counts per node (rounded, preserving the total).
    """
    freq = np.asarray(access_frequency, dtype=np.float64)
    if freq.ndim != 1 or not len(freq):
        raise ValueError("access_frequency must be a non-empty 1-D distribution")
    if clusters_searched <= 0 or clusters_searched > len(freq):
        raise ValueError(
            f"clusters_searched must be in [1, {len(freq)}], got {clusters_searched}"
        )
    if not np.isclose(freq.sum(), 1.0):
        raise ValueError("access_frequency must sum to 1")
    raw = batch * clusters_searched * freq
    loads = np.floor(raw).astype(np.int64)
    shortfall = batch * clusters_searched - int(loads.sum())
    if shortfall > 0:
        order = np.argsort(raw - loads)[::-1]
        loads[order[:shortfall]] += 1
    return np.minimum(loads, batch)
