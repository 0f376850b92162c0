"""Fault tolerance primitives for the experiment engine.

Three concerns live here, shared by the scheduler, the serving layer,
and the CLI:

* **Retry policy** — :class:`RetryPolicy` describes how many attempts a
  job gets, which exceptions are worth retrying, and how long to back
  off between attempts.  Backoff jitter is *deterministic*, derived
  from the job's content address, so two runs of the same schedule
  retry on identical timelines and stay CI-reproducible.
* **Structured failure** — :class:`JobFailure` is the terminal record
  of a job that exhausted its attempts (or was quarantined as
  *poisoned* after repeatedly killing its worker).  In partial-results
  mode (``run(..., on_error="collect")``) the scheduler maps failed
  jobs to their :class:`JobFailure` instead of raising, and
  :class:`ExperimentFailure` aggregates them per experiment for the
  registry/serving layers.
* **Fault injection** — :class:`FaultPlan` is a deterministic,
  config/env-driven harness that makes :func:`~repro.engine.jobs.
  execute_job` raise, sleep past its timeout, or hard-kill its worker
  on chosen attempts of matching jobs.  Every recovery path in the
  scheduler is therefore testable with ordinary unit tests and CI
  smoke runs — no flaky "hope a worker dies" tests.

Fault-plan DSL
--------------

A plan is a ``;``-separated list of rules, each
``PATTERN@ATTEMPTS:ACTION``:

``PATTERN``
    An :mod:`fnmatch` glob matched against the job's *fault label*
    (:func:`fault_label`):
    ``kind:method:model:dataset:nNUM:sSEED[:extra=value...]`` — e.g.
    ``eval:focus:llava-video:videomme:n1:s0:start=1`` (sample 1 of a
    cell; sample 0 and whole cells carry no ``start``).
``ATTEMPTS``
    ``N`` fires the rule on attempts 1..N of matching jobs (so ``1``
    is "flaky once", ``2`` "flaky twice"); ``*`` fires on every
    attempt (a *poison* job that can never succeed).
``ACTION``
    ``raise`` (raise :class:`InjectedFault`), ``sleep=SECONDS``
    (hang past the timeout), or ``kill`` (``os._exit`` the worker
    process; outside a pool worker this degrades to raising
    :class:`InjectedCrash` so in-process runs stay survivable).

Example — the CI smoke plan::

    eval:focus:*@2:raise; eval:dense:llava-video:videomme:*@1:sleep=30; eval:cmc:*@1:kill

Plans activate either programmatically (:func:`install_fault_plan`)
or through the ``REPRO_FAULT_PLAN`` environment variable, which pool
worker processes inherit — the same rule text drives the parent's
serial path and every worker.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro.engine.jobs import EvalJob, execute_job

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
"""Environment variable holding the active fault-plan spec (inherited
by pool worker processes)."""

FAILURE_KINDS = ("error", "timeout", "poisoned", "shards-failed")
"""Every ``kind`` a :class:`JobFailure` can carry."""


class InjectedFault(RuntimeError):
    """Raised by a fault plan's ``raise`` action (transient by design)."""


class InjectedCrash(RuntimeError):
    """A ``kill`` action triggered outside a pool worker process.

    Killing the only process would end the run itself, so in-process
    execution degrades the action to an ordinary (retryable) exception.
    """


class JobTimeout(RuntimeError):
    """A job exceeded its per-job wall-clock budget."""


class PeerUnreachable(RuntimeError):
    """A fleet peer could not take (or finish) a job batch.

    Raised by :class:`repro.remote.dispatch.PeerClient` on transport
    failure, a non-200 response, or an undecodable result envelope.
    The scheduler treats it exactly like a lost worker: the batch is
    re-queued for local execution without charging any job's retry
    budget, and the peer sits out a cooldown.
    """


class PoisonedJob(RuntimeError):
    """Raised (in ``on_error="raise"`` mode) for a quarantined job.

    Carries the structured :class:`JobFailure` as :attr:`failure`.
    """

    def __init__(self, failure: "JobFailure") -> None:
        super().__init__(failure.describe())
        self.failure = failure


@dataclass(frozen=True)
class JobFailure:
    """Terminal record of one permanently failed job.

    Attributes:
        job: The failed job (its key identifies what was lost).
        kind: ``"error"`` (exceptions exhausted the attempt budget),
            ``"timeout"`` (wall-clock budget exhausted),
            ``"poisoned"`` (quarantined after repeatedly killing its
            worker), or ``"shards-failed"`` (a cell whose per-sample
            jobs failed — the cell cannot be folded).
        attempts: Attempts consumed before giving up.
        tracebacks: One formatted traceback (or crash/timeout note)
            per failed attempt, oldest first.
    """

    job: EvalJob
    kind: str
    attempts: int
    tracebacks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )

    @property
    def error(self) -> str:
        """The last attempt's one-line error summary."""
        if not self.tracebacks:
            return ""
        return self.tracebacks[-1].strip().splitlines()[-1]

    def describe(self) -> str:
        return (
            f"{self.kind} after {self.attempts} attempt(s): "
            f"{self.job.describe()}"
            + (f" ({self.error})" if self.error else "")
        )

    def as_detail(self) -> dict[str, Any]:
        """JSON-native payload for progress events and the run store."""
        return {
            "job_id": self.job.job_id,
            "label": self.job.describe(),
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
            "tracebacks": list(self.tracebacks),
        }


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment's aggregated job failures (partial-results mode).

    Returned by the registry in place of an assembled result when any
    of the experiment's jobs failed under ``on_error="collect"``; the
    formatter layer renders :meth:`describe` in place of the report.
    """

    name: str
    failures: tuple[JobFailure, ...]

    def describe(self) -> str:
        lines = [
            f"experiment {self.name or '<unnamed>'}: "
            f"{len(self.failures)} job(s) failed"
        ]
        lines += [f"  - {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)

    def as_detail(self) -> list[dict[str, Any]]:
        return [failure.as_detail() for failure in self.failures]


def shard_failure(
    parent: EvalJob, span_failures: list[JobFailure]
) -> JobFailure:
    """The cell failure for a cell whose per-sample jobs failed."""
    return JobFailure(
        job=parent,
        kind="shards-failed",
        attempts=0,
        tracebacks=tuple(
            failure.describe() for failure in span_failures
        ),
    )


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) failed job attempts are retried.

    Attributes:
        max_attempts: Total attempts a job gets before its failure is
            permanent (``1`` disables retries; worker-crash recovery
            is independent of this — see ``max_crash_attempts``).
        backoff_s: Base backoff before the second attempt.
        backoff_multiplier: Exponential growth factor per retry.
        max_backoff_s: Backoff ceiling.
        jitter: Extra backoff fraction in ``[0, jitter]``, derived
            *deterministically* from ``(job_id, attempt)`` — spreads a
            thundering herd without sacrificing reproducibility.
        max_crash_attempts: Consecutive attributed worker crashes
            before a job is quarantined as *poisoned*.  Crashes do not
            consume the regular ``max_attempts`` budget: a job whose
            cohort-mate killed the worker must not lose its own
            retries to co-victimhood.
        retryable: Exception classes worth retrying.
        non_retryable: Exception classes never retried, even when they
            match ``retryable``.
    """

    max_attempts: int = 1
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 5.0
    jitter: float = 0.1
    max_crash_attempts: int = 2
    retryable: tuple[type[BaseException], ...] = (Exception,)
    non_retryable: tuple[type[BaseException], ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.backoff_multiplier < 1:
            raise ValueError(
                "backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )
        if self.max_backoff_s < 0:
            raise ValueError(
                f"max_backoff_s must be >= 0, got {self.max_backoff_s}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.max_crash_attempts < 1:
            raise ValueError(
                "max_crash_attempts must be >= 1, got "
                f"{self.max_crash_attempts}"
            )

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether an exception class is worth another attempt."""
        return isinstance(exc, self.retryable) and not isinstance(
            exc, self.non_retryable
        )

    def should_retry(self, exc: BaseException, attempts: int) -> bool:
        """Whether a job with ``attempts`` failures gets another try."""
        return attempts < self.max_attempts and self.is_retryable(exc)

    def delay_s(self, job: EvalJob, attempt: int) -> float:
        """Backoff before re-dispatching ``job`` after failed attempt
        number ``attempt`` (1-based).  Deterministic: the jitter
        fraction is a pure function of ``(job_id, attempt)``."""
        base = min(
            self.backoff_s * self.backoff_multiplier ** max(0, attempt - 1),
            self.max_backoff_s,
        )
        if base <= 0.0 or self.jitter <= 0.0:
            return base
        digest = hashlib.sha256(
            f"{job.job_id}:{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "little") / 2**64
        return base * (1.0 + self.jitter * fraction)


DEFAULT_RETRY_POLICY = RetryPolicy()
"""The engine's policy when none is configured: no exception retries
(``max_attempts=1``), but worker-crash recovery stays on with the
default quarantine threshold."""


# -- fault injection --------------------------------------------------


def fault_label(job: EvalJob) -> str:
    """The canonical label fault-plan patterns match against."""
    extras = "".join(
        f":{name}={value!r}" for name, value in job.extra
    )
    return (
        f"{job.kind}:{job.method}:{job.model}:{job.dataset}"
        f":n{job.num_samples}:s{job.seed}{extras}"
    )


@dataclass(frozen=True)
class FaultRule:
    """One parsed fault-plan rule (see the module docstring's DSL)."""

    pattern: str
    action: str  # "raise" | "sleep" | "kill"
    param: float = 0.0  # sleep seconds
    max_attempt: int | None = 1  # fire while attempt <= this; None = always

    def __post_init__(self) -> None:
        if self.action not in ("raise", "sleep", "kill"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.max_attempt is not None and self.max_attempt < 1:
            raise ValueError(
                f"attempts must be >= 1 or '*', got {self.max_attempt}"
            )
        if self.action == "sleep" and self.param < 0:
            raise ValueError(
                f"sleep seconds must be >= 0, got {self.param}"
            )

    def fires(self, job: EvalJob, attempt: int) -> bool:
        if self.max_attempt is not None and attempt > self.max_attempt:
            return False
        return fnmatch.fnmatchcase(fault_label(job), self.pattern)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`FaultRule` injections."""

    rules: tuple[FaultRule, ...]
    spec: str = ""

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``;``-separated rule DSL; raises ``ValueError``."""
        rules = []
        for rule_text in spec.split(";"):
            rule_text = rule_text.strip()
            if not rule_text:
                continue
            head, sep, action_text = rule_text.rpartition(":")
            if not sep:
                raise ValueError(
                    f"fault rule {rule_text!r} lacks ':ACTION' "
                    "(expected PATTERN@ATTEMPTS:ACTION)"
                )
            pattern, sep, attempts_text = head.rpartition("@")
            if not sep or not pattern:
                raise ValueError(
                    f"fault rule {rule_text!r} lacks 'PATTERN@ATTEMPTS' "
                    "(expected PATTERN@ATTEMPTS:ACTION)"
                )
            if attempts_text == "*":
                max_attempt = None
            else:
                try:
                    max_attempt = int(attempts_text)
                except ValueError:
                    raise ValueError(
                        f"fault rule {rule_text!r} has bad attempts "
                        f"{attempts_text!r} (an integer or '*')"
                    ) from None
            action, _, param_text = action_text.partition("=")
            param = 0.0
            if action == "sleep":
                try:
                    param = float(param_text)
                except ValueError:
                    raise ValueError(
                        f"fault rule {rule_text!r}: sleep needs "
                        "'sleep=SECONDS'"
                    ) from None
            elif param_text:
                raise ValueError(
                    f"fault rule {rule_text!r}: action {action!r} "
                    "takes no '=' parameter"
                )
            rules.append(FaultRule(
                pattern=pattern, action=action, param=param,
                max_attempt=max_attempt,
            ))
        if not rules:
            raise ValueError(f"fault plan {spec!r} contains no rules")
        return cls(rules=tuple(rules), spec=spec)

    def rule_for(self, job: EvalJob, attempt: int) -> FaultRule | None:
        """The first rule firing for this ``(job, attempt)``, if any."""
        for rule in self.rules:
            if rule.fires(job, attempt):
                return rule
        return None

    def apply(
        self, job: EvalJob, attempt: int, in_worker: bool = False
    ) -> None:
        """Inject the matching fault, if any, for this dispatch."""
        rule = self.rule_for(job, attempt)
        if rule is None:
            return
        label = fault_label(job)
        if rule.action == "raise":
            raise InjectedFault(
                f"injected fault for {label} (attempt {attempt})"
            )
        if rule.action == "sleep":
            time.sleep(rule.param)
            return
        if in_worker:  # hard-kill: BrokenProcessPool in the parent
            os._exit(13)
        raise InjectedCrash(
            f"injected worker kill for {label} (attempt {attempt}) "
            "outside a pool worker"
        )


_installed_plan: FaultPlan | None = None
_env_plan_cache: tuple[str | None, FaultPlan | None] = (None, None)


def install_fault_plan(spec: "str | FaultPlan | None") -> FaultPlan | None:
    """Activate (or, with ``None``, clear) a fault plan process-wide.

    The parsed spec is also exported through :data:`FAULT_PLAN_ENV` so
    pool worker processes spawned afterwards inherit it.
    """
    global _installed_plan
    if spec is None:
        _installed_plan = None
        os.environ.pop(FAULT_PLAN_ENV, None)
        return None
    plan = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
    _installed_plan = plan
    if plan.spec:
        os.environ[FAULT_PLAN_ENV] = plan.spec
    return plan


def active_fault_plan() -> FaultPlan | None:
    """The installed plan, else one parsed from the environment."""
    if _installed_plan is not None:
        return _installed_plan
    global _env_plan_cache
    spec = os.environ.get(FAULT_PLAN_ENV)
    if not spec:
        return None
    if _env_plan_cache[0] != spec:
        _env_plan_cache = (spec, FaultPlan.parse(spec))
    return _env_plan_cache[1]


def run_job_attempt(
    job: EvalJob, attempt: int = 1, in_worker: bool = False,
    forward_batch: int = 1,
) -> Any:
    """Execute one job attempt, applying the active fault plan first.

    This is the scheduler's dispatch entry point — the pool submits it
    (with ``in_worker=True``) so the attempt number reaches the worker
    and env-driven fault plans fire identically under ``fork`` and
    ``spawn`` start methods.  Without an active plan it is exactly
    :func:`~repro.engine.jobs.execute_job`.
    """
    plan = active_fault_plan()
    if plan is not None:
        plan.apply(job, attempt, in_worker=in_worker)
    return execute_job(job, forward_batch)
