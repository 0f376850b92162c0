"""Cross-sample batched forward: one concentration pass per eval shard.

PR 4 made a *single* forward fast; this module amortizes the remaining
Python-dispatch and small-array overhead across samples, the software
analogue of the Focus Unit's streaming datapath amortizing the
similarity/gather hardware over a token stream.  Same-shape samples
stack into one ``(lanes, tokens, hidden)`` pass
(:meth:`~repro.model.vlm.SyntheticVLM.forward_batch`); the plugins
here drive the Focus pipeline over that stack:

* :class:`BatchFocusPlugin` — SEC per lane (cheap, runs only at
  schedule layers) and SIC via *one* batched gather over the whole
  stack: each m-tile of the stack is matched as one block-diagonal
  tile, so even lanes whose layouts diverged after semantic pruning
  resolve in a single matcher pass
  (:meth:`~repro.core.matching.SimilarityMatcher.match_tile_batch`).
* :class:`Int8BatchPlugin` — the Table IV INT8 activation arm; absmax
  rounding is per-row, so the stacked quantization is per-lane
  bit-identical to the serial wrapper.

Tile plans are cached under the lanes' content-addressed
:func:`~repro.core.pipeline.layout_digest` tokens, exactly as in the
per-sample :class:`~repro.core.pipeline.FocusPlugin`.

Methods that compress tokens before the LLM stack or merge between
layers (``framefusion``, ``adaptiv``, ``cmc``) and methods with
data-dependent keep counts (``focus-topp``) have no batched
implementation, and ``dense`` runs faster per sample (see
:data:`BATCH_METHOD_REGISTRY`); :func:`make_batch_plugin` returns
``None`` and the evaluation loop falls back to the per-sample oracle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.config import DEFAULT_CONFIG, FocusConfig
from repro.core.blocks import linear_index
from repro.core.gather import SimilarityGather
from repro.core.pipeline import GATHER_SITES, layout_digest
from repro.core.scatter import scatter_accumulation_ops
from repro.core.semantic import SemanticConcentrator
from repro.model.plugins import BatchPlugin, DedupStats
from repro.model.spec import ModelConfig
from repro.model.vlm import BatchState, SyntheticVLM
from repro.quant.int8 import fake_quant_int8
from repro.workloads.datasets import Sample

__all__ = [
    "BATCH_METHOD_REGISTRY",
    "BatchFocusPlugin",
    "Int8BatchPlugin",
    "bucket_samples",
    "make_batch_plugin",
    "run_batched",
]


class BatchFocusPlugin(BatchPlugin):
    """Focus concentration over a lane stack.

    Per-lane observable behaviour — keep masks, gather statistics,
    trace updates — is bit-identical to a per-lane
    :class:`~repro.core.pipeline.FocusPlugin`: the SEC literally runs
    the serial code on each lane's probability slice, and the batched
    gather's per-sample slices reproduce the serial gather exactly
    (see :meth:`~repro.core.gather.SimilarityGather.gather_batch`).
    """

    def __init__(
        self,
        model: SyntheticVLM | ModelConfig | int,
        config: FocusConfig = DEFAULT_CONFIG,
        enable_sec: bool = True,
        enable_sic: bool = True,
        token_wise: bool = False,
    ) -> None:
        if isinstance(model, SyntheticVLM):
            num_layers = model.config.num_layers
        elif isinstance(model, ModelConfig):
            num_layers = model.num_layers
        else:
            num_layers = int(model)
        self.config = config
        self.enable_sec = enable_sec
        self.enable_sic = enable_sic
        self.sec = SemanticConcentrator(config, num_layers)
        self.gather_engine = SimilarityGather(config, token_wise=token_wise)

    def after_attention_probs(
        self, layer_index: int, probs: np.ndarray, batch: BatchState
    ) -> list[np.ndarray] | None:
        if not self.enable_sec:
            return None
        keeps: list[np.ndarray | None] = []
        for index, lane in enumerate(batch.lanes):
            grid_linear = linear_index(
                np.maximum(lane.positions, 0), lane.grid
            )
            decision = self.sec.prune(
                layer_index,
                probs[index],
                lane.is_text,
                lane.num_image_initial,
                grid_linear,
            )
            if decision is None:
                keeps.append(None)
                continue
            lane.trace.metadata_bits += decision.metadata_bits
            lane.trace.sec_events.append(decision.event)
            keeps.append(decision.keep)
        pruned = [k for k in keeps if k is not None]
        if not pruned:
            return None
        if len(pruned) != len(keeps):
            # Cannot happen for the fixed-budget SEC (equal initial
            # counts + exact-k selection keep lanes in lockstep), but a
            # ragged prune would silently desynchronize the stack.
            raise RuntimeError(
                "semantic pruning diverged across lanes of one batch"
            )
        return pruned

    def gemm_input(
        self,
        layer_index: int,
        site: str,
        x: np.ndarray,
        batch: BatchState,
        producers,
        n: int,
    ) -> tuple[np.ndarray, list[DedupStats | None]]:
        if not self.enable_sic or site not in GATHER_SITES:
            return x, [None] * batch.num_lanes
        lanes = batch.lanes
        result = self.gather_engine.gather_batch(
            x,
            [lane.positions for lane in lanes],
            [lane.is_text for lane in lanes],
            lanes[0].grid,
            cache_token=[layout_digest(lane) for lane in lanes],
        )
        stats_list: list[DedupStats | None] = []
        num_rows = x.shape[1]
        for lane, r in zip(lanes, result.per_sample):
            stats_list.append(DedupStats(
                unique_vectors=r.unique_total,
                total_vectors=r.total_vectors,
                map_bits=r.map_bits,
                vector_size=r.vector_size,
                tile_lengths=r.tile_lengths,
                tile_rows=r.tile_rows,
                scatter_ops=scatter_accumulation_ops(
                    num_rows, n, r.reps.shape[0]
                ),
            ))
            lane.trace.sic_comparisons += r.comparisons
        return result.x_approx, stats_list


class Int8BatchPlugin(BatchPlugin):
    """Wrap a batch plugin with per-token INT8 activation rounding.

    The absmax scale is per row (last axis), so quantizing the stack
    equals quantizing each lane alone — the stacked counterpart of
    :class:`~repro.quant.int8.Int8ActivationPlugin`, applied before
    the wrapped plugin's gather exactly as in the serial wrapper.
    """

    def __init__(self, inner: BatchPlugin | None = None) -> None:
        self.inner = inner or BatchPlugin()

    def begin(self, batch: BatchState) -> None:
        self.inner.begin(batch)

    def gemm_input(
        self,
        layer_index: int,
        site: str,
        x: np.ndarray,
        batch: BatchState,
        producers,
        n: int,
    ) -> tuple[np.ndarray, list[DedupStats | None]]:
        quantized = fake_quant_int8(x, axis=-1)
        return self.inner.gemm_input(
            layer_index, site, quantized, batch, producers, n
        )

    def after_attention_probs(
        self, layer_index: int, probs: np.ndarray, batch: BatchState
    ) -> list[np.ndarray] | None:
        return self.inner.after_attention_probs(layer_index, probs, batch)

    def finish(self, batch: BatchState) -> None:
        self.inner.finish(batch)


BatchPluginFactory = Callable[[SyntheticVLM, FocusConfig], BatchPlugin]

BATCH_METHOD_REGISTRY: dict[str, BatchPluginFactory] = {
    "focus": lambda model, cfg: BatchFocusPlugin(model, cfg),
    "focus-sec": lambda model, cfg: BatchFocusPlugin(
        model, cfg, enable_sic=False
    ),
    "focus-sic": lambda model, cfg: BatchFocusPlugin(
        model, cfg, enable_sec=False
    ),
    "focus-token": lambda model, cfg: BatchFocusPlugin(
        model, cfg, token_wise=True
    ),
}
"""Methods with a batched implementation.  Everything else (entry
compression, inter-layer merging, data-dependent keep counts) falls
back to the serial per-sample loop, and so does ``dense``, which has
no gather to amortize: at one BLAS thread its stacked forward took
1.2-1.4x the per-sample loop's time on 8 videomme samples."""


def make_batch_plugin(
    method: str,
    model: SyntheticVLM,
    config: FocusConfig = DEFAULT_CONFIG,
    quantized: bool = False,
) -> BatchPlugin | None:
    """Batch plugin for a registry method, or ``None`` if unsupported."""
    factory = BATCH_METHOD_REGISTRY.get(method)
    if factory is None:
        return None
    plugin = factory(model, config)
    if quantized:
        plugin = Int8BatchPlugin(plugin)
    return plugin


def bucket_samples(samples: list[Sample]) -> list[list[int]]:
    """Group sample indices by token-layout shape, in encounter order.

    The bucketing rule: samples batch together iff they agree on
    (visual-token count, text-token count, FHW grid) — exactly the
    quantities that make their initial token stacks rectangular and
    their neighbor tables shareable.  Ragged eval spans (mixed
    datasets) therefore split into a handful of buckets, each run as
    one or more batched passes.
    """
    buckets: dict[tuple, list[int]] = {}
    for index, sample in enumerate(samples):
        key = (
            sample.num_visual_tokens,
            sample.num_text_tokens,
            sample.grid,
        )
        buckets.setdefault(key, []).append(index)
    return list(buckets.values())


def run_batched(
    model: SyntheticVLM,
    samples: list[Sample],
    plugin: BatchPlugin,
    batch_size: int,
) -> list:
    """Evaluate ``samples`` in shape-bucketed batched passes.

    Returns per-sample :class:`~repro.model.vlm.InferenceResult`\\ s in
    the *original* sample order, so callers accumulate records exactly
    as the serial loop would.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    outcomes: list = [None] * len(samples)
    for lane_indices in bucket_samples(samples):
        for start in range(0, len(lane_indices), batch_size):
            chunk = lane_indices[start:start + batch_size]
            results = model.forward_batch(
                [samples[i] for i in chunk], plugin
            )
            for index, result in zip(chunk, results):
                outcomes[index] = result
    return outcomes
