"""Per-sample evaluation sharding as an engine workload.

A whole (model, dataset, method) ``eval`` cell is split into contiguous per-sample-span shards, each an
``eval-shard`` :class:`~repro.engine.jobs.EvalJob` the
:class:`~repro.engine.scheduler.ExperimentEngine` dedupes, caches, and
executes on its worker pool; the span results are re-folded in global
sample order by :meth:`EvalResult.merge
<repro.eval.metrics.EvalResult.merge>`.

Bit-identity with the serial cell rests on two properties:

* dataset generation is *prefix-stable* — sample ``i`` depends only on
  ``(seed, dataset, i)`` (:func:`repro.workloads.datasets.
  make_dataset_span`), so a span evaluated in isolation sees exactly
  the items the serial loop would have fed it;
* shards return *per-span* :class:`~repro.eval.metrics.EvalResult`\\ s
  whose per-sample lists concatenate in span order, reproducing the
  serial loop's record sequence (and therefore its float means) bit
  for bit.

Shard keys deliberately exclude the parent cell's total sample count:
the span ``[0, 3)`` of an 8-sample cell and of a 16-sample cell are
the *same job*.  Growing ``--samples`` therefore re-executes only the
new suffix spans — the prefix is served from the result cache, in
memory or on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.jobs import EvalJob, register_job_kind
from repro.engine.sharding import plan_shards
from repro.eval.metrics import EvalResult

EVAL_SHARD_KIND = "eval-shard"
EVAL_SHARD_PROVIDER = "repro.eval.eval_shards"


def shard_span(job: EvalJob) -> tuple[int, int]:
    """The ``[start, stop)`` sample span of an ``eval-shard`` job."""
    return tuple(job.extra_map["span"])


def result_method(job: EvalJob) -> str:
    """The method label an evaluation of ``job`` reports.

    :func:`repro.eval.runner.evaluate_samples` suffixes INT8 arms, so
    merged and serial results carry identical labels.
    """
    return f"{job.method}-int8" if job.quantized else job.method


def plan_eval_shards(job: EvalJob, shard_size: int) -> tuple[EvalJob, ...]:
    """Split a whole-cell ``eval`` job into per-span shard jobs.

    Every shard is a pure function of its key — ``(model, dataset,
    method, span, seed, config digest, quantized)`` — and is shared by
    *any* cell that covers the span: two experiments evaluating the
    same cell at different ``num_samples`` dedupe on their common
    prefix spans.
    """
    if job.kind != "eval":
        raise ValueError(
            f"can only shard 'eval' jobs, got kind {job.kind!r}"
        )
    return tuple(
        EvalJob(
            model=job.model,
            dataset=job.dataset,
            method=job.method,
            num_samples=stop - start,
            seed=job.seed,
            config=job.config,
            quantized=job.quantized,
            kind=EVAL_SHARD_KIND,
            extra=(("span", (start, stop)),),
            provider=EVAL_SHARD_PROVIDER,
        )
        for start, stop in plan_shards(job.num_samples, shard_size)
    )


@register_job_kind(EVAL_SHARD_KIND)
def _execute_eval_shard(job: EvalJob, forward_batch: int) -> EvalResult:
    """Evaluate one sample span; return its per-sample records."""
    from repro.eval.runner import evaluate_span

    return evaluate_span(
        job.model,
        job.dataset,
        job.method,
        shard_span(job),
        job.seed,
        config=job.config,
        quantized=job.quantized,
        forward_batch=forward_batch,
    )


def merge_eval_shards(
    parent: EvalJob, span_results: list[EvalResult]
) -> EvalResult:
    """Re-fold span results (already in global sample order) into a cell.

    Bit-identical to evaluating ``parent`` serially for every shard
    size and worker count — the property the parity test harness locks
    in.
    """
    return EvalResult.merge(
        span_results,
        model=parent.model,
        dataset=parent.dataset,
        method=result_method(parent),
    )


@dataclass
class ShardProgress:
    """Running partial-result statistics for one sharded cell.

    Updated as the cell's shards finish (in completion order, which is
    scheduling-dependent); feeds the ``eval-shard-done`` progress
    event's running accuracy/sparsity so a consumer can stream partial
    results before the cell is fully merged.  The counters are plain
    sums — display-grade, not the bit-exact fold the final merge does.
    """

    shards_total: int
    shards_done: int = 0
    samples: int = 0
    num_correct: int = 0
    sparsity_sum: float = 0.0

    def update(self, span_result: EvalResult) -> None:
        self.shards_done += 1
        self.samples += span_result.num_samples
        self.num_correct += sum(bool(c) for c in span_result.correct)
        self.sparsity_sum += float(sum(span_result.sparsities))

    @property
    def accuracy(self) -> float:
        """Running accuracy over finished shards, in percent."""
        if not self.samples:
            return 0.0
        return 100.0 * self.num_correct / self.samples

    @property
    def sparsity(self) -> float:
        """Running mean computation sparsity, in percent."""
        if not self.samples:
            return 0.0
        return 100.0 * self.sparsity_sum / self.samples

    def as_detail(self, parent: EvalJob) -> dict[str, object]:
        """The ``eval-shard-done`` event's ``detail`` payload."""
        return {
            "parent": parent.describe(),
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "samples": self.samples,
            "accuracy": self.accuracy,
            "sparsity": self.sparsity,
        }
