"""Evaluation jobs: the unit of work the experiment engine schedules.

An :class:`EvalJob` is a *pure function of its key*: the same
``(kind, model, dataset, method, config-digest, num_samples, seed,
quantized, extra)`` tuple always produces bit-identical results, no
matter which process executes it or in what order.  That property is
what makes deduplication, content-addressed caching, and parallel
execution safe.

Job kinds are extensible: ``eval`` (the sample span
``[start, start + num_samples)`` of a (model, dataset, method) cell,
evaluated by :func:`repro.eval.runner.evaluate_span`; ``start`` rides
in ``extra`` and is left out at 0, so a plan's cell is the span at 0 —
see :mod:`repro.eval.eval_shards`) is built in, and other modules
register additional kinds with :func:`register_job_kind`, such as the
Fig. 2(b) similarity capture in :mod:`repro.eval.similarity_stats`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from repro.config import DEFAULT_CONFIG, FocusConfig

ENGINE_CACHE_VERSION = 1
"""Bumped whenever job payloads change shape; part of every job id so
stale on-disk cache entries can never be misread."""


def config_digest(config: FocusConfig) -> str:
    """Stable short digest of a :class:`FocusConfig`.

    Two configs with equal field values always digest identically,
    regardless of construction order; the retention schedule (a dict)
    is canonicalized by sorting.
    """
    payload = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        payload.append((f.name, value))
    digest = hashlib.sha256(repr(tuple(payload)).encode("utf-8"))
    return digest.hexdigest()[:16]


def derive_seed(seed: int, *labels: object) -> int:
    """Derive an independent integer seed from ``(seed, *labels)``.

    The same construction as :func:`repro.utils.rng.rng_for`, exposed
    as an integer so jobs can seed foreign RNGs (e.g. NumPy's legacy
    global state) deterministically from their own key.  Derivation is
    order-independent across workers: only the key matters.
    """
    digest = hashlib.sha256(repr((seed,) + labels).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True, eq=False)
class EvalJob:
    """One schedulable evaluation, identified entirely by its key.

    Attributes:
        model: Model registry name.
        dataset: Dataset profile name.
        method: Method registry name (or a kind-specific label).
        num_samples: Samples evaluated by the job.
        seed: Experiment seed.  Sample streams are derived from
            ``(seed, dataset, sample_index)`` by the RNG layer, *not*
            from the method, so accuracy comparisons between methods
            stay paired exactly as the paper's tables require.
        config: Focus hyper-parameters; keyed by content digest.
        quantized: Run on the INT8 variant of the model, which rounds
            its weights and GEMM-site activations (Table IV's int8
            arms).
        kind: Executor kind; ``eval`` is the standard cell or sample
            span.
        extra: Kind-specific parameters as a tuple of ``(name, value)``
            pairs (must be hashable and ``repr``-stable).
        provider: Dotted module path that registers this job's kind
            (via :func:`register_job_kind`).  Lets worker processes
            started with ``spawn`` — which import nothing beyond this
            module — load the executor for any custom kind.  Not part
            of the job's identity.
    """

    model: str
    dataset: str
    method: str
    num_samples: int
    seed: int
    config: FocusConfig = DEFAULT_CONFIG
    quantized: bool = False
    kind: str = "eval"
    extra: tuple[tuple[str, object], ...] = ()
    provider: str = ""

    @cached_property
    def key(self) -> tuple:
        """Hashable identity: equal keys mean interchangeable results."""
        return (
            self.kind,
            self.model,
            self.dataset,
            self.method,
            self.num_samples,
            self.seed,
            config_digest(self.config),
            self.quantized,
            self.extra,
        )

    @cached_property
    def job_id(self) -> str:
        """Content address used for cache filenames."""
        payload = repr((ENGINE_CACHE_VERSION,) + self.key)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    @property
    def extra_map(self) -> dict[str, object]:
        """The ``extra`` pairs as a dict, for kind executors."""
        return dict(self.extra)

    @property
    def sample_seed(self) -> int:
        """Seed handed to the dataset generator.

        This is the bare experiment seed: :func:`repro.utils.rng.rng_for`
        already namespaces every sample stream by
        ``(seed, "dataset", dataset, sample_index)``, so per-job
        derivation happens at the RNG layer while methods sharing a
        ``(dataset, seed)`` pair still see identical items.
        """
        return self.seed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvalJob):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def describe(self) -> str:
        """Short human-readable label for progress lines."""
        quant = " int8" if self.quantized else ""
        kind = f"[{self.kind}] " if self.kind != "eval" else ""
        start = dict(self.extra).get("start") if self.kind == "eval" else 0
        at = f", start={start}" if start else ""
        return (
            f"{kind}{self.method}{quant} on {self.model}/{self.dataset} "
            f"(n={self.num_samples}, seed={self.seed}{at})"
        )


JobExecutor = Callable[[EvalJob, int], Any]
"""``executor(job, forward_batch)``: the second argument is the engine's
forward-pass lane count, an execution knob outside the job's key."""

JOB_EXECUTORS: dict[str, JobExecutor] = {}
"""Kind name -> executor.  Populated at import time by this module
(``eval``) and lazily by kind-providing modules."""


def register_job_kind(kind: str) -> Callable[[JobExecutor], JobExecutor]:
    """Decorator registering an executor for a job kind."""

    def deco(fn: JobExecutor) -> JobExecutor:
        JOB_EXECUTORS[kind] = fn
        return fn

    return deco


@register_job_kind("eval")
def _execute_eval(job: EvalJob, forward_batch: int) -> Any:
    from repro.eval.eval_shards import job_span
    from repro.eval.runner import evaluate_span

    return evaluate_span(
        job.model,
        job.dataset,
        job.method,
        job_span(job),
        job.sample_seed,
        config=job.config,
        quantized=job.quantized,
        forward_batch=forward_batch,
    )


DEFAULT_KIND_PROVIDERS = ("repro.eval.similarity_stats",)
"""Modules imported when an unregistered kind is encountered and the
job names no provider of its own."""


def _ensure_kind_loaded(kind: str, provider: str = "") -> None:
    """Import the module(s) that register non-core job kinds.

    Worker processes started with ``spawn`` import this module fresh;
    lazily pulling in the job's declared provider (or the built-in
    provider list) keeps them able to execute any job without the
    parent's import history.
    """
    if kind in JOB_EXECUTORS:
        return
    import importlib

    modules = (provider,) if provider else DEFAULT_KIND_PROVIDERS
    for module in modules:
        importlib.import_module(module)


def execute_job(job: EvalJob, forward_batch: int = 1) -> Any:
    """Run one job to completion (worker-process entry point).

    The process-global NumPy RNG is seeded from ``(seed, job key)``
    first, so even code that (incorrectly) reaches for global
    randomness behaves identically under any worker count and
    scheduling order.  ``forward_batch`` (lanes per forward pass) only
    changes wall-clock, so it is passed to the executor, not keyed.
    """
    np.random.seed(derive_seed(job.seed, *job.key) % (2**32))
    _ensure_kind_loaded(job.kind, job.provider)
    try:
        executor = JOB_EXECUTORS[job.kind]
    except KeyError:
        raise KeyError(
            f"unknown job kind {job.kind!r}; "
            f"available: {sorted(JOB_EXECUTORS)}"
        ) from None
    return executor(job, forward_batch)
