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
from repro.quant.int8 import Int8ActivationPlugin, quantize_model
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

    Entries are keyed on ``(name, config digest)``, not the bare name:
    if the registry entry behind a name ever changes (a test patching
    :data:`repro.model.zoo.MODEL_CONFIGS`, two jobs in one batch
    resolving the same name to different configs), the stale model is
    simply not found and a fresh one is built — a shard worker can
    never evaluate against a model constructed from a different config
    than its job's key describes.

    Access is serialized by a lock (the serving frontend evaluates
    concurrent runs on one process-wide cache) and the store is a
    bounded LRU: weight construction is deterministic, so an evicted
    entry rebuilt later is bit-identical — eviction only costs time.
    """

    _models: OrderedDict[tuple[str, str], SyntheticVLM] = OrderedDict()
    _lock = threading.Lock()

    @classmethod
    def _key(cls, name: str) -> tuple[str, str]:
        return (name, config_digest(get_model_config(name)))

    @classmethod
    def get(cls, name: str) -> SyntheticVLM:
        key = cls._key(name)
        with cls._lock:
            model = cls._models.get(key)
            if model is not None:
                cls._models.move_to_end(key)
                return model
            # Built under the lock: constructing the same model twice
            # in parallel would waste the exact work the cache exists
            # to avoid, and construction is fast relative to the
            # evaluations it serves.
            model = SyntheticVLM(get_model_config(name))
            cls._models[key] = model
            while len(cls._models) > MODEL_CACHE_MAX_ENTRIES:
                cls._models.popitem(last=False)
            return model


class QuantizedModelCache:
    """INT8-quantized counterpart of :class:`ModelCache`.

    Quantization is deterministic, so the quantized model is as
    cacheable as the FP16 original; it shares the original's
    :class:`~repro.model.spec.ModelConfig`, which keeps dense-MAC
    accounting (and therefore sparsity) directly comparable.  Keyed on
    ``(name, config digest)`` like :class:`ModelCache`, with the same
    lock + LRU bound.  Lock order is always Quantized -> Model (this
    cache calls into :class:`ModelCache`, never the reverse), so the
    nesting cannot deadlock.
    """

    _models: OrderedDict[tuple[str, str], SyntheticVLM] = OrderedDict()
    _lock = threading.Lock()

    @classmethod
    def get(cls, name: str) -> SyntheticVLM:
        key = ModelCache._key(name)
        with cls._lock:
            model = cls._models.get(key)
            if model is not None:
                cls._models.move_to_end(key)
                return model
            model = quantize_model(ModelCache.get(name))
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
    quantized: bool = False,
    forward_batch: int = 1,
) -> EvalResult:
    """Run one method over a list of samples.

    With ``quantized=True`` the model is expected to carry INT8
    weights and every method plugin is wrapped in
    :class:`~repro.quant.int8.Int8ActivationPlugin`, reproducing the
    Table IV INT8 arms for any registered method.  ``forward_batch``
    caps the lanes per forward pass (see :func:`_forward_outcomes`).
    """
    result = EvalResult(
        model=model_name or model.config.name,
        dataset=dataset_name,
        method=f"{method}-int8" if quantized else method,
    )
    outcomes = _forward_outcomes(
        model, samples, method, config, quantized, forward_batch
    )
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
    quantized: bool,
    forward_batch: int,
) -> list:
    """Per-sample inference outcomes, in sample order.

    Samples run in shape-bucketed stacks of at most ``forward_batch``
    lanes when the method's plugin is
    :attr:`~repro.model.plugins.InferencePlugin.stackable`, and one
    lane at a time otherwise; each sample's outcome is bit-identical
    either way.
    """
    def fresh_plugin() -> InferencePlugin:
        plugin = make_plugin(method, model, config)
        return Int8ActivationPlugin(plugin) if quantized else plugin

    plugin = fresh_plugin()
    lanes = forward_batch if plugin.stackable else 1
    outcomes: list = [None] * len(samples)
    passes = 0
    for bucket in bucket_samples(samples):
        for start in range(0, len(bucket), lanes):
            if passes and not plugin.reusable:
                # Stateful plugins get a fresh instance per pass;
                # reusable ones are hoisted.
                plugin = fresh_plugin()
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
    model = ModelCache.get(model_name)
    samples = make_dataset_span(
        dataset_name, model.config.layout, start, stop, seed=seed
    )
    if quantized:
        model = QuantizedModelCache.get(model_name)
    return evaluate_samples(
        model, samples, method, config,
        model_name=model_name, dataset_name=dataset_name,
        quantized=quantized, forward_batch=forward_batch,
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
