"""Tests for DVFS mechanics."""

import pytest

from repro.hardware.cpu import XEON_GOLD_6448Y
from repro.hardware.dvfs import frequency_for_target, operating_point


class TestFrequencyForTarget:
    def test_no_slack_needs_max_frequency(self):
        f = frequency_for_target(XEON_GOLD_6448Y, busy_time_at_max_s=1.0, target_latency_s=1.0)
        assert f == pytest.approx(XEON_GOLD_6448Y.max_freq_ghz)

    def test_double_slack_halves_frequency(self):
        f = frequency_for_target(XEON_GOLD_6448Y, 1.0, 2.0)
        assert f == pytest.approx(XEON_GOLD_6448Y.max_freq_ghz / 2)

    def test_clamped_to_min(self):
        f = frequency_for_target(XEON_GOLD_6448Y, 0.01, 100.0)
        assert f == XEON_GOLD_6448Y.min_freq_ghz

    def test_impossible_target_clamped_to_max(self):
        f = frequency_for_target(XEON_GOLD_6448Y, 10.0, 1.0)
        assert f == XEON_GOLD_6448Y.max_freq_ghz

    def test_zero_work_uses_min(self):
        assert (
            frequency_for_target(XEON_GOLD_6448Y, 0.0, 1.0)
            == XEON_GOLD_6448Y.min_freq_ghz
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            frequency_for_target(XEON_GOLD_6448Y, -1.0, 1.0)
        with pytest.raises(ValueError):
            frequency_for_target(XEON_GOLD_6448Y, 1.0, 0.0)


class TestOperatingPoint:
    def test_latency_inverse_in_frequency(self):
        p = XEON_GOLD_6448Y
        full = operating_point(p, 1.0, p.max_freq_ghz)
        half = operating_point(p, 1.0, p.max_freq_ghz / 2)
        assert half.latency_s == pytest.approx(2 * full.latency_s)

    def test_energy_decreases_at_lower_frequency(self):
        p = XEON_GOLD_6448Y
        full = operating_point(p, 1.0, p.max_freq_ghz)
        half = operating_point(p, 1.0, p.max_freq_ghz / 2)
        assert half.energy_j < full.energy_j

