"""Dynamic Voltage and Frequency Scaling (DVFS) mechanics.

Hermes's load-balancing optimisation (§4.2 and Fig. 21) slows down lightly
loaded retrieval nodes to save energy without lengthening the batch critical
path. This module provides the device-level mechanics — given a node's busy
time and a latency target, find the lowest frequency that still meets the
target, and the resulting energy; the *policies* (slow to the slowest
cluster vs. slow to the inference latency) live in
:mod:`repro.core.dvfs_policy`.

Latency scales inversely with frequency (retrieval is compute/bandwidth
bound); dynamic power scales cubically (voltage tracks frequency), so running
slower-but-longer still wins energy: ``E(f) ∝ idle/f + dyn·f²``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpu import CPUPlatform


@dataclass(frozen=True)
class DVFSOperatingPoint:
    """The outcome of scaling one node for one batch."""

    freq_ghz: float
    latency_s: float
    energy_j: float


def frequency_for_target(
    platform: CPUPlatform, busy_time_at_max_s: float, target_latency_s: float
) -> float:
    """Lowest frequency (GHz) at which the work still meets *target_latency_s*.

    ``busy_time_at_max_s`` is the node's busy time at maximum frequency. The
    result is clamped to the platform's DVFS range; a target below the
    max-frequency latency simply returns max frequency (we never overclock).
    """
    if busy_time_at_max_s < 0:
        raise ValueError("busy time must be non-negative")
    if target_latency_s <= 0:
        raise ValueError("target latency must be positive")
    if busy_time_at_max_s == 0:
        return platform.min_freq_ghz
    needed_fraction = busy_time_at_max_s / target_latency_s
    freq = needed_fraction * platform.max_freq_ghz
    return min(max(freq, platform.min_freq_ghz), platform.max_freq_ghz)


def operating_point(
    platform: CPUPlatform,
    busy_time_at_max_s: float,
    freq_ghz: float,
    *,
    utilization: float = 1.0,
) -> DVFSOperatingPoint:
    """Latency and energy of running the given work at *freq_ghz*."""
    latency = busy_time_at_max_s * platform.slowdown_at(freq_ghz)
    power = platform.power_at(freq_ghz, utilization=utilization)
    return DVFSOperatingPoint(
        freq_ghz=min(max(freq_ghz, platform.min_freq_ghz), platform.max_freq_ghz),
        latency_s=latency,
        energy_j=power * latency,
    )

