"""Evaluation harness: method registry and the model x dataset x method
driver that produces accuracy, sparsity and hardware traces.

This is the reproduction's equivalent of the paper's lmms-eval +
trace-generation flow (Sec. VII-A): every method is a plugin factory,
every evaluation returns an :class:`~repro.eval.metrics.EvalResult`
whose traces feed the cycle simulator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.baselines.adaptiv import AdapTiVPlugin
from repro.baselines.cmc import CMCPlugin
from repro.baselines.dense import DensePlugin
from repro.baselines.framefusion import FrameFusionPlugin
from repro.config import DEFAULT_CONFIG, FocusConfig
from repro.core.adaptive import AdaptiveFocusPlugin
from repro.core.pipeline import FocusPlugin
from repro.engine.jobs import config_digest
from repro.eval.metrics import EvalResult, computation_sparsity, dense_macs_for
from repro.model.plugins import InferencePlugin
from repro.model.vlm import SyntheticVLM
from repro.model.zoo import get_model_config
from repro.quant.int8 import quantize_model
from repro.workloads.datasets import Sample, make_dataset_span

PluginFactory = Callable[[SyntheticVLM, FocusConfig], InferencePlugin]

METHOD_REGISTRY: dict[str, PluginFactory] = {
    "dense": lambda model, cfg: DensePlugin(),
    "framefusion": lambda model, cfg: FrameFusionPlugin(model.config),
    "adaptiv": lambda model, cfg: AdapTiVPlugin(),
    "cmc": lambda model, cfg: CMCPlugin(model.config.layout),
    "focus": lambda model, cfg: FocusPlugin(model, cfg),
    "focus-sec": lambda model, cfg: FocusPlugin(model, cfg, enable_sic=False),
    "focus-sic": lambda model, cfg: FocusPlugin(model, cfg, enable_sec=False),
    "focus-token": lambda model, cfg: FocusPlugin(model, cfg, token_wise=True),
    "focus-topp": lambda model, cfg: AdaptiveFocusPlugin(model, cfg),
}
"""Method name -> plugin factory.  ``focus-sec``/``focus-sic`` are the
Fig. 11 ablation arms; ``focus-token`` is Fig. 2(c)'s token-wise
variant; ``focus-topp`` is the adaptive top-p extension the paper's
Sec. VII-D proposes as future work."""

PAPER_METHOD_NAMES = {
    "dense": "Ori.",
    "framefusion": "FF",
    "adaptiv": "Ada.",
    "cmc": "CMC",
    "focus": "Ours",
}
"""Column labels as printed in the paper's tables."""


def make_plugin(
    method: str, model: SyntheticVLM, config: FocusConfig = DEFAULT_CONFIG
) -> InferencePlugin:
    """Instantiate a method plugin by registry name."""
    try:
        factory = METHOD_REGISTRY[method]
    except KeyError:
        raise KeyError(
            f"unknown method {method!r}; available: {sorted(METHOD_REGISTRY)}"
        ) from None
    return factory(model, config)


MODEL_CACHE_MAX_ENTRIES = 8
"""LRU bound on cached synthetic models (per cache, per process).
The zoo holds four models, so eight covers every registered config
plus test-patched variants while keeping long-lived serve processes —
which construct models on demand from arbitrary request mixes — at
bounded memory, consistent with the other engine caches
(:data:`repro.core.gather.TABLE_CACHE_MAX_ENTRIES`,
:data:`repro.model.functional.MASK_CACHE_MAX_ENTRIES`)."""


class ModelCache:
    """Constructs each synthetic model at most once per process.

    Entries are keyed on ``(name, config digest, quantized)``, not the
    bare name: if the registry entry behind a name ever changes (a
    test patching :data:`repro.model.zoo.MODEL_CONFIGS`, two jobs in
    one batch resolving the same name to different configs), the stale
    model is simply not found and a fresh one is built — a shard
    worker can never evaluate against a model constructed from a
    different config than its job's key describes.  The INT8 variant
    (``quantized=True``) is built from the cached FP16 model by
    :func:`~repro.quant.int8.quantize_model`; quantization is
    deterministic, so it is as cacheable as the original.

    Access is serialized by a lock (the serving frontend evaluates
    concurrent runs on one process-wide cache) and the store is a
    bounded LRU: weight construction is deterministic, so an evicted
    entry rebuilt later is bit-identical — eviction only costs time.
    """

    _models: OrderedDict[tuple[str, str, bool], SyntheticVLM] = OrderedDict()
    _lock = threading.Lock()

    @classmethod
    def get(cls, name: str, quantized: bool = False) -> SyntheticVLM:
        # The INT8 variant's FP16 source is fetched before the lock is
        # taken (the lock is not re-entrant), and the variant is keyed
        # on the config its source was built from.
        source = cls.get(name) if quantized else None
        config = source.config if source else get_model_config(name)
        key = (name, config_digest(config), quantized)
        with cls._lock:
            model = cls._models.get(key)
            if model is not None:
                cls._models.move_to_end(key)
                return model
            # Built under the lock: constructing the same model twice
            # in parallel would waste the exact work the cache exists
            # to avoid, and construction is fast relative to the
            # evaluations it serves.
            model = quantize_model(source) if source else SyntheticVLM(config)
            cls._models[key] = model
            while len(cls._models) > MODEL_CACHE_MAX_ENTRIES:
                cls._models.popitem(last=False)
            return model


def evaluate_samples(
    model: SyntheticVLM,
    samples: list[Sample],
    method: str,
    config: FocusConfig = DEFAULT_CONFIG,
    model_name: str = "",
    dataset_name: str = "",
    forward_batch: int = 1,
) -> EvalResult:
    """Run one method over a list of samples.

    On an INT8 variant (:attr:`SyntheticVLM.quantized
    <repro.model.vlm.SyntheticVLM.quantized>`) the method's own plugin
    runs on the INT8 datapath and the result's method carries an
    ``-int8`` suffix: the Table IV INT8 arms, for any registered
    method.  ``forward_batch`` caps the lanes per forward pass (see
    :func:`_forward_outcomes`).
    """
    result = EvalResult(
        model=model_name or model.config.name,
        dataset=dataset_name,
        method=f"{method}-int8" if model.quantized else method,
    )
    outcomes = _forward_outcomes(model, samples, method, config, forward_batch)
    for sample, outcome in zip(samples, outcomes):
        result.correct.append(outcome.correct)
        result.sparsities.append(
            computation_sparsity(outcome.trace, model.config, sample)
        )
        result.traces.append(outcome.trace)
        result.dense_macs.append(dense_macs_for(model.config, sample))
    return result


def bucket_samples(samples: list[Sample]) -> list[list[int]]:
    """Group sample indices by token-layout shape, in encounter order.

    The bucketing rule: samples stack together iff they agree on
    (visual-token count, text-token count, FHW grid) — exactly the
    quantities that make their initial token stacks rectangular and
    their neighbor tables shareable.  Ragged eval spans (mixed
    datasets) therefore split into a handful of buckets, each run as
    one or more stacked passes.
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


def _forward_outcomes(
    model: SyntheticVLM,
    samples: list[Sample],
    method: str,
    config: FocusConfig,
    forward_batch: int,
) -> list:
    """Per-sample inference outcomes, in sample order.

    Samples run in shape-bucketed stacks of at most ``forward_batch``
    lanes when the method's plugin is
    :attr:`~repro.model.plugins.InferencePlugin.stackable`, and one
    lane at a time otherwise; each sample's outcome is bit-identical
    either way.
    """
    plugin = make_plugin(method, model, config)
    lanes = forward_batch if plugin.stackable else 1
    outcomes: list = [None] * len(samples)
    passes = 0
    for bucket in bucket_samples(samples):
        for start in range(0, len(bucket), lanes):
            if passes and not plugin.reusable:
                # Stateful plugins get a fresh instance per pass;
                # reusable ones are hoisted.
                plugin = make_plugin(method, model, config)
            passes += 1
            chunk = bucket[start:start + lanes]
            results = model.forward_batch([samples[i] for i in chunk], plugin)
            for index, result in zip(chunk, results):
                outcomes[index] = result
    return outcomes


def evaluate_span(
    model_name: str,
    dataset_name: str,
    method: str,
    span: tuple[int, int],
    seed: int = 0,
    config: FocusConfig = DEFAULT_CONFIG,
    quantized: bool = False,
    forward_batch: int = 1,
) -> EvalResult:
    """Evaluate sample indices ``[start, stop)`` of a cell.

    Because dataset generation is prefix-stable (see
    :func:`repro.workloads.datasets.make_dataset_span`), evaluating a
    span in isolation produces exactly the per-sample records the
    serial whole-cell loop would have produced at those indices — so
    spans merged in global sample order by
    :meth:`~repro.eval.metrics.EvalResult.merge` are bit-identical to
    :func:`evaluate`, for any span partition.
    """
    start, stop = span
    model = ModelCache.get(model_name, quantized)
    samples = make_dataset_span(
        dataset_name, model.config.layout, start, stop, seed=seed
    )
    return evaluate_samples(
        model, samples, method, config,
        model_name=model_name, dataset_name=dataset_name,
        forward_batch=forward_batch,
    )


def evaluate(
    model_name: str,
    dataset_name: str,
    method: str,
    num_samples: int = 16,
    seed: int = 0,
    config: FocusConfig = DEFAULT_CONFIG,
    quantized: bool = False,
    forward_batch: int = 1,
) -> EvalResult:
    """Evaluate a (model, dataset, method) cell.

    Samples are generated deterministically from ``seed`` so every
    method sees the *same* items — accuracy comparisons are paired, as
    in the paper's tables.  ``quantized=True`` runs the INT8 arm on
    the same items (Table IV pairs FP16 and INT8 this way).
    """
    return evaluate_span(
        model_name, dataset_name, method, (0, num_samples), seed,
        config=config, quantized=quantized, forward_batch=forward_batch,
    )
