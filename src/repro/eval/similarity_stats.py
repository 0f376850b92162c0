"""Inter-frame similarity statistics (the Fig. 2(b) measurement).

Captures per-layer FC inputs — the tensors the similarity concentrator
operates on — and measures, for each candidate vector size, how much
of the stream is redundant against the co-located sub-vectors of the
previous frame.

The whole measurement is registered as the ``fig2b`` engine job kind,
so it shares the engine's dedupe/cache/parallelism machinery with the
standard evaluation cells.
"""

from __future__ import annotations

import numpy as np

from repro.engine.jobs import EvalJob, register_job_kind
from repro.eval.runner import ModelCache
from repro.model.plugins import InferencePlugin
from repro.workloads.datasets import make_dataset


class ActivationCapture(InferencePlugin):
    """Capture per-layer FC inputs (the tensors SIC operates on)."""

    def __init__(self) -> None:
        self.captured: list[np.ndarray] = []
        self.positions: np.ndarray | None = None
        self.is_text: np.ndarray | None = None

    def gemm_input(self, layer_index, site, x, batch, producers, n):
        if site == "fc1":
            lane = batch.lanes[0]  # one lane: the plugin does not stack
            self.captured.append(np.array(x[0]))
            self.positions = np.array(lane.positions)
            self.is_text = np.array(lane.is_text)
        return x, [None]


def similarity_fractions(
    model_name: str,
    dataset: str,
    vector_sizes: tuple[int, ...],
    num_samples: int,
    seed: int,
    threshold: float = 0.9,
    cdf_points: int = 101,
) -> dict[str, object]:
    """Previous-frame cosine-similarity statistics per vector size.

    Returns a picklable payload::

        {"fraction_above": {v: float},
         "cdf_grid": np.ndarray,
         "cdfs": {v: np.ndarray}}

    where ``fraction_above[v]`` is the share of sub-vectors whose
    similarity to the co-located previous-frame sub-vector exceeds
    ``threshold`` — the redundancy the SIC can harvest at size ``v``.
    """
    model = ModelCache.get(model_name)
    samples = make_dataset(dataset, model.config.layout, num_samples, seed)
    cdf_grid = np.linspace(0, 1, cdf_points)
    sims_by_size: dict[int, list[np.ndarray]] = {v: [] for v in vector_sizes}
    for sample in samples:
        capture = ActivationCapture()
        model.forward(sample, capture)
        frames, height, width = sample.grid
        for hidden in capture.captured:
            image = hidden[: sample.num_visual_tokens]
            per_frame = image.reshape(frames, height * width, -1)
            current = per_frame[1:]
            previous = per_frame[:-1]
            for v in vector_sizes:
                blocks = -(-image.shape[1] // v)
                pad = blocks * v - image.shape[1]
                cur = np.pad(current, ((0, 0), (0, 0), (0, pad)))
                prev = np.pad(previous, ((0, 0), (0, 0), (0, pad)))
                cur = cur.reshape(*cur.shape[:2], blocks, v)
                prev = prev.reshape(*prev.shape[:2], blocks, v)
                dots = np.einsum("fpbv,fpbv->fpb", cur, prev)
                denom = (
                    np.linalg.norm(cur, axis=-1)
                    * np.linalg.norm(prev, axis=-1)
                )
                sims = dots / np.maximum(denom, 1e-8)
                sims_by_size[v].append(sims.ravel())

    fraction_above: dict[int, float] = {}
    cdfs: dict[int, np.ndarray] = {}
    for v in vector_sizes:
        values = np.concatenate(sims_by_size[v])
        fraction_above[v] = float(np.mean(values > threshold))
        cdfs[v] = np.array([np.mean(values <= g) for g in cdf_grid])
    return {
        "fraction_above": fraction_above,
        "cdf_grid": cdf_grid,
        "cdfs": cdfs,
    }


@register_job_kind("fig2b")
def _execute_fig2b(job: EvalJob, forward_batch: int) -> dict[str, object]:
    params = job.extra_map
    return similarity_fractions(
        job.model,
        job.dataset,
        tuple(params["vector_sizes"]),
        job.num_samples,
        job.sample_seed,
        threshold=float(params.get("threshold", 0.9)),
    )
