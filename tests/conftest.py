"""Shared fixtures: tiny models and samples sized for fast tests."""

from __future__ import annotations

import contextlib
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.config import FocusConfig
from repro.core.matching import SimilarityMatcher
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


@pytest.fixture
def reference_matcher(monkeypatch):
    """Context manager that routes every wavefront matcher call —
    per-sample and block-diagonal batched alike — through
    ``match_tile_reference``, the row-at-a-time oracle.  It yields the
    list of oracle calls, so a test can check that the swap took."""

    @contextlib.contextmanager
    def swap():
        calls = []

        def reference(self, blocks, neighbor_table, levels=None,
                      norms=None, schedule=None):
            calls.append(blocks.shape[0])
            return self.match_tile_reference(blocks, neighbor_table, norms)

        with monkeypatch.context() as patch:
            patch.setattr(
                SimilarityMatcher, "match_tile_wavefront", reference
            )
            yield calls

    return swap


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


class ServePeers:
    """``repro serve --port 0 --no-store`` peer subprocesses of a test."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        self.procs: list[subprocess.Popen] = []

    def start(self, *flags: str) -> tuple[subprocess.Popen, str]:
        """Spawn a peer; return (process, base_url)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--no-store", *flags],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        self.procs.append(proc)
        deadline = time.time() + 30
        while time.time() < deadline:
            line = proc.stderr.readline()
            match = re.search(r"http://[\d.]+:\d+", line)
            if match:
                return proc, match.group(0)
            if proc.poll() is not None:
                break
        self.stop(proc)
        raise RuntimeError("peer never announced its address")

    @staticmethod
    def stop(proc: subprocess.Popen) -> None:
        """Terminate a peer subprocess; never leak it or its pipes.

        ``terminate`` first (clean asyncio shutdown), escalate to
        ``kill`` if it doesn't exit within the grace period, and always
        close the stdio pipes — a leaked pipe keeps the socket pair (and
        on failure paths the whole process) alive past the test.
        Stopping a stopped peer is a no-op.
        """
        try:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        finally:
            for pipe in (proc.stdout, proc.stderr):
                if pipe is not None:
                    pipe.close()


@pytest.fixture
def serve_peers():
    """A :class:`ServePeers`; every peer it started is stopped at
    teardown."""
    peers = ServePeers()
    yield peers
    for proc in peers.procs:
        peers.stop(proc)
