"""Hermes DVFS load-balancing policies (§4.2 "Load Balancing Optimization",
Fig. 21).

Cluster sizes and access frequencies are imbalanced (Fig. 13), so within a
batch some nodes finish their deep search early and idle. Two policies turn
that slack into energy savings:

- **baseline DVFS**: every node slows to just meet the *slowest cluster's*
  latency in the batch — zero latency cost by construction (the paper
  measures 10.1-14.5% savings);
- **enhanced DVFS**: because retrieval is pipelined under inference, retrieval
  finishing earlier than the inference stride buys nothing; every node slows
  to the *inference latency* instead (18.8-22.1% savings, 19.6% at the
  evaluated 3-clusters-searched point).

This module is the one statement of that rule: :func:`evaluate_dvfs` costs
a batch under none / baseline / enhanced DVFS on a fleet model, for Fig. 21's
expected loads and for a scheduler's routed batch alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..perfmodel.aggregate import DistributedRetrievalResult, DVFSPolicy, MultiNodeModel


@dataclass(frozen=True)
class DVFSComparison:
    """Energy of one batch under the three DVFS settings."""

    none: DistributedRetrievalResult
    baseline: DistributedRetrievalResult
    enhanced: DistributedRetrievalResult

    @property
    def baseline_savings(self) -> float:
        """Fractional energy saved by baseline DVFS vs. no DVFS."""
        return 1.0 - self.baseline.energy_j / self.none.energy_j

    @property
    def enhanced_savings(self) -> float:
        """Fractional energy saved by enhanced DVFS vs. no DVFS."""
        return 1.0 - self.enhanced.energy_j / self.none.energy_j


def evaluate_dvfs(
    model: MultiNodeModel,
    batch: int,
    deep_loads: np.ndarray,
    *,
    inference_latency_s: float,
    sample_nprobe: int = 8,
    deep_nprobe: int = 128,
) -> DVFSComparison:
    """Cost one batch under no/baseline/enhanced DVFS.

    ``deep_loads[i]`` is how many of the batch's queries deep-search node
    *i* (expected loads, or a routed batch's
    :meth:`~repro.perfmodel.trace.BatchRouting.node_loads`).
    ``inference_latency_s`` is the pipelined inference window (prefill +
    stride decode) that enhanced DVFS may stretch retrieval into; baseline
    DVFS only exploits intra-batch slack.
    """
    if inference_latency_s <= 0:
        raise ValueError("inference_latency_s must be positive")

    hermes = partial(
        model.hermes,
        batch,
        deep_loads,
        sample_nprobe=sample_nprobe,
        deep_nprobe=deep_nprobe,
    )
    # In steady-state pipelined serving the batch period is the slower of
    # deep search at max frequency and the inference window; all policies pay
    # idle power over that same period so the comparison isolates the
    # dynamic-energy savings DVFS actually buys.
    period = max(inference_latency_s, hermes(dvfs=DVFSPolicy.NONE).deep.latency_s)
    return DVFSComparison(
        none=hermes(dvfs=DVFSPolicy.NONE, period_s=period),
        baseline=hermes(dvfs=DVFSPolicy.BASELINE, period_s=period),
        enhanced=hermes(
            dvfs=DVFSPolicy.ENHANCED,
            latency_target_s=inference_latency_s,
            period_s=period,
        ),
    )
