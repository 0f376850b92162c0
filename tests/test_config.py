"""Tests for repro.config.FocusConfig."""

import pytest

from repro.config import DEFAULT_CONFIG, FocusConfig


class TestValidation:
    def test_default_is_table1(self):
        assert DEFAULT_CONFIG.block_frames == 2
        assert DEFAULT_CONFIG.block_height == 2
        assert DEFAULT_CONFIG.block_width == 2
        assert DEFAULT_CONFIG.vector_size == 32
        assert DEFAULT_CONFIG.similarity_threshold == 0.9
        assert DEFAULT_CONFIG.m_tile == 1024

    def test_block_size(self):
        assert DEFAULT_CONFIG.block_size == 8
        assert FocusConfig(block_frames=1, block_height=3,
                           block_width=3).block_size == 9

    def test_rejects_bad_vector_size(self):
        with pytest.raises(ValueError):
            FocusConfig(vector_size=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            FocusConfig(similarity_threshold=0.0)
        with pytest.raises(ValueError):
            FocusConfig(similarity_threshold=1.5)

    def test_rejects_bad_tiles(self):
        with pytest.raises(ValueError):
            FocusConfig(m_tile=0)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            FocusConfig(block_frames=0)

    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            FocusConfig(retention_schedule={-1: 0.5})
        with pytest.raises(ValueError):
            FocusConfig(retention_schedule={3: 0.0})
        with pytest.raises(ValueError):
            FocusConfig(retention_schedule={3: 1.5})


class TestSchedule:
    def test_default_schedule_is_paper(self):
        assert DEFAULT_CONFIG.retention_schedule == {
            3: 0.40, 6: 0.30, 9: 0.20, 18: 0.15, 26: 0.10,
        }

    def test_identity_scale(self):
        scaled = DEFAULT_CONFIG.scaled_schedule(28)
        assert scaled == DEFAULT_CONFIG.retention_schedule

    def test_scaled_to_half_depth(self):
        scaled = DEFAULT_CONFIG.scaled_schedule(14)
        # Indices remapped proportionally; ratios preserved.
        assert set(scaled.values()) <= {0.40, 0.30, 0.20, 0.15, 0.10}
        assert all(0 <= layer < 14 for layer in scaled)

    def test_scaled_monotone_ratios(self):
        scaled = DEFAULT_CONFIG.scaled_schedule(12)
        layers = sorted(scaled)
        ratios = [scaled[layer] for layer in layers]
        assert ratios == sorted(ratios, reverse=True)

    def test_collision_keeps_smaller_ratio(self):
        config = FocusConfig(retention_schedule={4: 0.4, 5: 0.2},
                             schedule_depth=28)
        scaled = config.scaled_schedule(6)
        # Both entries land on layer 1; pruning is monotone.
        assert scaled == {1: 0.2}

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.scaled_schedule(0)


class TestOverrides:
    def test_with_overrides(self):
        other = DEFAULT_CONFIG.with_overrides(vector_size=16)
        assert other.vector_size == 16
        assert other.m_tile == DEFAULT_CONFIG.m_tile
        assert DEFAULT_CONFIG.vector_size == 32

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.vector_size = 8  # type: ignore[misc]
