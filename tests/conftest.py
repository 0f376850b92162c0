"""Shared fixtures: tiny models and samples sized for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FocusConfig
from repro.model.embedding import Codebooks, SubspaceLayout
from repro.model.spec import ModelConfig
from repro.model.vlm import SyntheticVLM
from repro.workloads.datasets import (
    DatasetProfile,
    clear_sample_memo,
    make_sample,
)
from repro.workloads.video import RenderParams


TINY_HIDDEN = 64


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: end-to-end test that takes seconds, not ms"
    )


@pytest.fixture(autouse=True)
def empty_sample_memo():
    """Start every test with an empty sample memo.

    The memo is process-global; without this a sample rendered by one
    test would be served to the next, so a test's render counts and
    monkeypatched generators would depend on test order.
    """
    clear_sample_memo()


@pytest.fixture(scope="session")
def tiny_model_config() -> ModelConfig:
    return ModelConfig(
        name="tiny", hidden=TINY_HIDDEN, num_layers=3, num_heads=2, seed=7
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_model_config) -> SyntheticVLM:
    return SyntheticVLM(tiny_model_config)


@pytest.fixture(scope="session")
def tiny_layout(tiny_model_config) -> SubspaceLayout:
    return tiny_model_config.layout


@pytest.fixture(scope="session")
def tiny_codebooks(tiny_layout) -> Codebooks:
    return Codebooks(tiny_layout, seed=0)


@pytest.fixture(scope="session")
def tiny_profile() -> DatasetProfile:
    return DatasetProfile(
        name="tiny-video", num_frames=3, grid_height=4, grid_width=4,
        num_objects=2, num_text_tokens=5, motion_scale=0.4,
        render=RenderParams(),
    )


@pytest.fixture(scope="session")
def tiny_sample(tiny_profile, tiny_codebooks):
    return make_sample(tiny_profile, tiny_codebooks, seed=0, sample_index=0)


@pytest.fixture(scope="session")
def tiny_samples(tiny_profile, tiny_codebooks):
    return [
        make_sample(tiny_profile, tiny_codebooks, seed=0, sample_index=i)
        for i in range(4)
    ]


@pytest.fixture()
def tiny_focus_config() -> FocusConfig:
    return FocusConfig(m_tile=64)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
