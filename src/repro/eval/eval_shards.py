"""Per-sample evaluation: a cell is a fold of per-sample jobs.

An ``eval`` :class:`~repro.engine.jobs.EvalJob` evaluates the sample
span ``[start, start + num_samples)``.  ``start`` rides in ``extra`` and
is left out at 0, so a plan's cell is the span at 0 and a one-sample
cell is its own sample job.  :class:`CellFolds` is the policy the
:class:`~repro.engine.scheduler.ExperimentEngine` applies to a cell of
several samples that misses the cache: look up each sample, execute
the contiguous runs of missing ones in chunks of at most
``forward_batch`` samples (one executed job fills one forward stack),
cache every sample, and fold the cell with :meth:`EvalResult.merge
<repro.eval.metrics.EvalResult.merge>`.

The fold is bit-identical to evaluating the cell whole: dataset
generation is *prefix-stable* (sample ``i`` depends only on ``(seed,
dataset, i)``, see :func:`repro.workloads.datasets.make_dataset_span`),
and per-sample records concatenated in sample order reproduce the
whole cell's lists and float means bit for bit.  Sample keys exclude
the cell's total, so sample 3 of an 8-sample and of a 16-sample cell
are one job, and growing ``--samples`` executes only the new samples.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.engine.faults import JobFailure, shard_failure
from repro.engine.jobs import EvalJob
from repro.engine.sharding import plan_shards
from repro.eval.metrics import EvalResult


def span_start(job: EvalJob) -> int:
    """The first sample index an ``eval`` job evaluates."""
    return dict(job.extra).get("start", 0)


def job_span(job: EvalJob) -> tuple[int, int]:
    """The ``[start, stop)`` sample span of an ``eval`` job."""
    start = span_start(job)
    return start, start + job.num_samples


def span_job(cell: EvalJob, start: int, num_samples: int) -> EvalJob:
    """The ``eval`` job for ``num_samples`` samples of ``cell`` from
    sample ``start`` on."""
    return dataclasses.replace(
        cell, num_samples=num_samples,
        extra=(("start", start),) if start else (),
    )


def cell_samples(job: EvalJob) -> tuple[EvalJob, ...]:
    """The one-sample jobs ``job`` folds; empty if it runs whole (a
    one-sample cell, or a kind other than ``eval``)."""
    if job.kind != "eval" or job.num_samples < 2:
        return ()
    start = span_start(job)
    return tuple(
        span_job(job, start + i, 1) for i in range(job.num_samples)
    )


def merge_samples(
    cell: EvalJob, sample_results: Sequence[EvalResult]
) -> EvalResult:
    """Fold sample results (in sample order) into ``cell``'s result,
    labelled like :func:`repro.eval.runner.evaluate_samples` labels
    it: a ``quantized`` cell runs on the INT8 model variant, so its
    method carries an ``-int8`` suffix."""
    method = f"{cell.method}-int8" if cell.quantized else cell.method
    return EvalResult.merge(
        sample_results, model=cell.model, dataset=cell.dataset,
        method=method,
    )


@dataclass
class ShardProgress:
    """Running partial result of one cell, as its samples land.

    Plain sums in completion order — display-grade, not the bit-exact
    fold the final merge does.
    """

    shards_total: int
    shards_done: int = 0
    num_correct: int = 0
    sparsity_sum: float = 0.0

    def update(
        self, cell: EvalJob, sample: EvalResult
    ) -> dict[str, object]:
        """Count one landed sample; return the ``eval-shard-done``
        event's ``detail`` payload."""
        self.shards_done += 1
        self.num_correct += sum(bool(c) for c in sample.correct)
        self.sparsity_sum += float(sum(sample.sparsities))
        return {
            "parent": cell.describe(),
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "samples": self.shards_done,
            "accuracy": 100.0 * self.num_correct / self.shards_done,
            "sparsity": 100.0 * self.sparsity_sum / self.shards_done,
        }


class CellFolds:
    """One batch's split cells: the job that carries each sample, the
    cells' running progress, and their folds.  ``lanes`` is the most
    samples one executed chunk carries (the engine's
    ``forward_batch``)."""

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.cells: dict[EvalJob, tuple[EvalJob, ...]] = {}
        self.progress: dict[EvalJob, ShardProgress] = {}
        self.parents: dict[EvalJob, list[EvalJob]] = {}
        self.carried: dict[EvalJob, tuple[EvalJob, ...]] = {}
        self.carrier: dict[EvalJob, EvalJob] = {}
        self.landed: dict[EvalJob, EvalResult] = {}

    def split(self, cell: EvalJob) -> tuple[EvalJob, ...]:
        """Register a cell that missed the cache; return its samples,
        or ``()`` if it runs whole."""
        samples = cell_samples(cell)
        if samples:
            self.cells[cell] = samples
            self.progress[cell] = ShardProgress(shards_total=len(samples))
            for sample in samples:
                self.parents.setdefault(sample, []).append(cell)
        return samples

    def chunks(
        self, cell: EvalJob, missing: Sequence[EvalJob]
    ) -> list[EvalJob]:
        """The jobs that execute ``cell``'s ``missing`` samples.

        Contiguous runs (in sample order) are cut into chunks of at
        most ``lanes`` samples.  A one-sample chunk is the sample job
        itself; a longer one is the span job covering it, which may be
        ``cell`` itself.
        """
        runs: list[list[EvalJob]] = []
        for sample in missing:
            last = runs[-1][-1] if runs else None
            if last is None or span_start(sample) != span_start(last) + 1:
                runs.append([])
            runs[-1].append(sample)
        units = []
        for run in runs:
            for first, stop in plan_shards(len(run), self.lanes):
                chunk = tuple(run[first:stop])
                unit = chunk[0]
                if len(chunk) > 1:
                    unit = span_job(cell, span_start(unit), len(chunk))
                    self.carried[unit] = chunk
                    self.carrier.update(dict.fromkeys(chunk, unit))
                units.append(unit)
        return units

    def cacheable(self, job: EvalJob) -> bool:
        """Whether an executed ``job`` is cached under its own key.

        Not a chunk that starts past sample 0: cells start at 0, so no
        lookup ever asks for it, and its samples are cached one by one.
        """
        return job not in self.carried or span_start(job) == 0

    def records(
        self, job: EvalJob, payload: EvalResult
    ) -> list[tuple[EvalJob, EvalResult]]:
        """The samples of split cells that a finished or cached ``job``
        carries, each with its own result (split out of a chunk)."""
        samples = self.carried.get(job)
        if samples is None:
            return [(job, payload)] if job in self.parents else []
        return [
            (sample, EvalResult(
                model=payload.model, dataset=payload.dataset,
                method=payload.method, correct=[c], sparsities=[s],
                traces=[t], dense_macs=[d],
            ))
            for sample, c, s, t, d in zip(
                samples, payload.correct, payload.sparsities,
                payload.traces, payload.dense_macs,
            )
        ]

    def land(
        self, records: Sequence[tuple[EvalJob, EvalResult]]
    ) -> list[tuple[EvalJob, list[dict[str, object]]]]:
        """Record landed samples (from :meth:`records`); return each
        with the ``eval-shard-done`` payload of every cell holding it."""
        landed = []
        for sample, record in records:
            self.landed[sample] = record
            landed.append((sample, [
                self.progress[cell].update(cell, record)
                for cell in self.parents[sample]
            ]))
        return landed

    def fold(
        self,
        results: Mapping[EvalJob, object],
        failures: Mapping[EvalJob, JobFailure],
    ) -> Iterator[tuple[EvalJob, EvalResult | JobFailure]]:
        """Each split cell's merged result, or a ``shards-failed``
        failure naming the jobs that lost its samples.  A cell that
        ran whole as one chunk is already settled and is skipped."""
        for cell, samples in self.cells.items():
            if cell in results or cell in failures:
                continue
            lost = dict.fromkeys(
                self.carrier.get(s, s) for s in samples
                if s not in self.landed
            )
            if lost:
                yield cell, shard_failure(cell, [failures[j] for j in lost])
            else:
                yield cell, merge_samples(
                    cell, [self.landed[s] for s in samples]
                )
