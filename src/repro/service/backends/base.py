"""Executor-backend contract and the shared QuMA job-execution function.

An :class:`ExecutorBackend` turns :class:`~repro.service.job.JobSpec`\\ s
into :class:`~repro.service.job.JobResult`\\ s asynchronously: ``submit``
returns a :class:`~repro.service.job.JobFuture` immediately; ``drain``
blocks until everything submitted so far has resolved; ``close`` releases
worker resources; ``stats`` reports backend-side counters.

Job execution is a pure function of the spec (per-job RNG streams are
re-derived from the spec's run seed), so every backend produces
bit-identical results for the same specs — the determinism contract the
parity tests pin down (see DESIGN.md).
"""

from __future__ import annotations

import abc
import os
import threading
import time

import numpy as np

from repro.core.quma import check_run_result
from repro.core.replay import run_with_replay
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    STAGE_ACQUIRE,
    STAGE_ATTEMPT_FAILED,
    STAGE_COLLECT,
    STAGE_COMPILE,
    STAGE_EXECUTE,
    STAGE_REPLAY,
    JobTelemetry,
    Span,
)
from repro.pulse.waveform import Waveform
from repro.readout.calibration import joint_outcome_counts
from repro.service.cache import CompileCache, ReplayCache
from repro.service.faults import FaultPlan
from repro.service.job import JobFuture, JobResult, JobSpec
from repro.service.policy import NO_RETRY, wrap_job_failure
from repro.service.pool import MachinePool
from repro.utils.errors import (
    ConfigurationError,
    JobCancelled,
    JobError,
    JobTimeout,
)


def snapshot_worker_state(metrics: MetricsRegistry, pool: MachinePool,
                          cache: CompileCache,
                          replay_cache: ReplayCache | None) -> dict:
    """Mirror pool/cache internals into gauges and snapshot the registry.

    Called at job end on telemetry-enabled jobs, so the snapshot that
    rides home on the result reflects this worker's *lifetime* state —
    the per-worker view that was previously unreachable from the parent
    process.  Gauges hold absolute values (latest-wins within a worker;
    the service sums them across workers at merge time).
    """
    for prefix, stats in (("pool", pool.stats()), ("cache", cache.stats()),
                          ("replay_cache", replay_cache.stats()
                           if replay_cache is not None else {})):
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                metrics.gauge(f"{prefix}.{key}").set(value)
    return metrics.snapshot()


def _check_deadline(t0: float, timeout: float | None, stage: str) -> None:
    """Cooperative per-attempt deadline check at a stage boundary.

    In-process execution cannot be preempted, so the deadline is enforced
    where the job naturally yields control — after each lifecycle stage.
    The raised :class:`JobTimeout` is retryable: transient hangs recover
    on the next attempt, deterministic ones burn their bounded attempt
    budget and quarantine.
    """
    if timeout is None:
        return
    elapsed = time.perf_counter() - t0
    if elapsed > timeout:
        raise JobTimeout(
            f"attempt exceeded its {timeout} s budget after {stage} "
            f"({elapsed:.3f} s elapsed)", stage=stage, elapsed_s=elapsed)


def execute_job(spec: JobSpec, pool: MachinePool, cache: CompileCache,
                replay_cache: ReplayCache | None = None,
                metrics: MetricsRegistry | None = None,
                faults: FaultPlan | None = None, attempt: int = 0,
                allow_crash: bool = False) -> JobResult:
    """Run one QuMA job against a pool and cache; deterministic given the spec.

    With ``spec.replay`` (the default) eligible programs take the
    round-replay fast path; a verified plan lands in ``replay_cache`` so
    subsequent jobs of the same sweep (same config-minus-seed, program,
    uploads, microprograms) replay every round without touching the event
    kernel.  Replayed and fully-simulated jobs produce bit-identical
    averages for the same run seed, so caching never changes results.

    ``metrics`` is the executing context's registry (worker-local for
    process and fleet workers); job counters and stage histograms land there.
    With ``spec.telemetry`` the result additionally carries lifecycle
    spans, the simulator trace (when the machine traces), and the
    registry snapshot — none of which touches the RNG streams, so
    telemetry on/off is bit-identical in ``averages``.

    ``faults`` (a :class:`~repro.service.faults.FaultPlan`) injects the
    attempt's scheduled chaos at each named lifecycle site;
    ``spec.timeout`` is enforced cooperatively at stage boundaries.
    Neither touches the RNG streams: a recovered retry re-runs this same
    pure function with the same spec, so its result is bit-identical.
    """
    telemetry_on = spec.telemetry
    job_seed = spec.run_seed
    t0 = time.perf_counter()
    if faults is not None:
        faults.check("compile", job_seed, attempt, allow_crash=allow_crash,
                     metrics=metrics, label=spec.label)
    resolved = cache.resolve(spec)
    t1 = time.perf_counter()
    _check_deadline(t0, spec.timeout, STAGE_COMPILE)
    if faults is not None:
        faults.check("acquire", job_seed, attempt, allow_crash=allow_crash,
                     metrics=metrics, label=spec.label)
    machine, reused = pool.acquire(spec.config)
    try:
        machine.reset(seed=spec.run_seed, dcu_points=resolved.k_points)
        for name, n_params, body_asm in spec.microprograms:
            machine.define_microprogram(name, n_params, body_asm)
        for upload in spec.uploads:
            op_id = machine.op_table.define(upload.op_name)
            waveform = Waveform(upload.op_name, np.asarray(upload.samples))
            machine.ctpgs[f"ctpg{upload.qubit}"].lut.upload(op_id, waveform)
        machine.exec_ctrl.load(resolved.program)
        t_loaded = time.perf_counter() if telemetry_on else 0.0
        _check_deadline(t0, spec.timeout, STAGE_ACQUIRE)
        if faults is not None:
            faults.check("execute", job_seed, attempt,
                         allow_crash=allow_crash, metrics=metrics,
                         label=spec.label)
        if spec.replay:
            replay_key = (replay_cache.key_for(spec)
                          if replay_cache is not None else None)
            plan = (replay_cache.get(replay_key)
                    if replay_key is not None else None)
            result, new_plan, report = run_with_replay(
                machine, resolved.n_rounds, plan=plan)
            if (new_plan is not None and not report.plan_hit
                    and replay_key is not None):
                replay_cache.put(replay_key, new_plan)
        else:
            result = machine.run()
            report = None
        t_ran = time.perf_counter() if telemetry_on else 0.0
        _check_deadline(t0, spec.timeout, STAGE_EXECUTE)
        if faults is not None:
            faults.check("collect", job_seed, attempt,
                         allow_crash=allow_crash, metrics=metrics,
                         label=spec.label)
        check_run_result(result)
        scalar_qubit = spec.cal_qubit
        if scalar_qubit is None and spec.cal_targets is not None:
            scalar_qubit = spec.cal_targets[0]
        cal = (machine.readout_calibrations[scalar_qubit]
               if scalar_qubit is not None else machine.readout_calibration)
        cal_targets = s_grounds = s_exciteds = joint_counts = None
        if spec.cal_targets is not None:
            cal_targets = spec.cal_targets
            register = [machine.readout_calibrations[q] for q in cal_targets]
            m = len(cal_targets)
            if resolved.k_points != m:
                raise ConfigurationError(
                    f"correlated job collects K={resolved.k_points} "
                    f"statistics per round, but cal_targets names {m} "
                    f"register qubits")
            s_grounds = tuple(c.s_ground for c in register)
            s_exciteds = tuple(c.s_excited for c in register)
            raw = machine.dcu.raw()
            if len(raw) % m:
                # A desynced stream (extra or missing MD against the
                # declared register) would silently shift statistics to
                # the wrong qubit columns — fail loudly instead.
                raise ConfigurationError(
                    f"correlated job recorded {len(raw)} statistics, not "
                    f"a whole number of {m}-qubit register rounds")
            rounds = len(raw) // m
            joint_counts = joint_outcome_counts(
                raw.reshape(rounds, m),
                np.asarray([c.threshold for c in register]))
        t_end = time.perf_counter()
        _check_deadline(t0, spec.timeout, STAGE_COLLECT)
        compile_s = t1 - t0
        execute_s = t_end - t1
        replayed_rounds = report.replayed_rounds if report else 0
        plan_hit = report.plan_hit if report else False
        fallback_reason = (report.fallback_reason if report
                           else "replay disabled by spec")
        if metrics is not None:
            metrics.counter("jobs").inc()
            metrics.counter("cache_hits").inc(int(resolved.cache_hit))
            metrics.counter("machine_reuses").inc(int(reused))
            metrics.counter("replay_plan_hits").inc(int(plan_hit))
            metrics.counter("replayed_rounds").inc(replayed_rounds)
            metrics.histogram("compile_s").observe(compile_s)
            metrics.histogram("execute_s").observe(execute_s)
        telemetry = None
        if telemetry_on:
            run_stage = STAGE_REPLAY if replayed_rounds else STAGE_EXECUTE
            run_meta = {"replayed_rounds": replayed_rounds,
                        "plan_hit": plan_hit,
                        "n_rounds": resolved.n_rounds,
                        "replay_fallback_reason": fallback_reason}
            # Mitigated sweeps tag their variants so traces show which
            # spans belong to folded (noise-scaled) executions.
            if spec.params.get("mitigation"):
                run_meta["mitigation"] = spec.params["mitigation"]
            if spec.params.get("zne_scale") is not None:
                run_meta["zne_scale"] = spec.params["zne_scale"]
            spans = (
                Span(STAGE_COMPILE, 0.0, compile_s,
                     meta={"cache_hit": resolved.cache_hit}),
                Span(STAGE_ACQUIRE, compile_s, t_loaded - t0,
                     meta={"machine_reused": reused}),
                Span(run_stage, t_loaded - t0, t_ran - t0, meta=run_meta),
                Span(STAGE_COLLECT, t_ran - t0, t_end - t0),
            )
            telemetry = JobTelemetry(
                spans=spans,
                worker=f"pid:{os.getpid()}",
                sim_trace=(tuple(machine.trace.records)
                           if machine.trace.enabled else ()),
                metrics=(snapshot_worker_state(metrics, pool, cache,
                                               replay_cache)
                         if metrics is not None else {}),
            )
        return JobResult(
            averages=result.averages.copy(),
            run=result,
            s_ground=cal.s_ground,
            s_excited=cal.s_excited,
            seed=spec.run_seed,
            params=dict(spec.params),
            label=spec.label,
            cache_hit=resolved.cache_hit,
            machine_reused=reused,
            compile_s=compile_s,
            execute_s=execute_s,
            total_s=t_end - t0,
            telemetry=telemetry,
            replayed_rounds=replayed_rounds,
            replay_plan_hit=plan_hit,
            replay_fallback_reason=fallback_reason,
            cal_targets=cal_targets,
            s_grounds=s_grounds,
            s_exciteds=s_exciteds,
            joint_counts=joint_counts,
        )
    finally:
        pool.release(machine)


def _attempt_failure_spans(failures: list, base_attempt: int) -> tuple:
    """Spans for recovered attempts, job-relative *before* the final epoch.

    The successful attempt's spans use epoch 0 = its own start; earlier
    failed attempts (and their backoff sleeps) therefore map to negative
    offsets, walking backwards from the epoch.  After the submit-side
    rebase they appear in their true place on the timeline, between
    submit and the job's successful start.
    """
    spans = []
    offset = 0.0
    for i in range(len(failures) - 1, -1, -1):
        exc, duration, backoff = failures[i]
        offset -= backoff
        spans.append(Span(
            STAGE_ATTEMPT_FAILED, offset - duration, offset,
            category="service",
            meta={"attempt": base_attempt + i,
                  "error": f"{type(exc).__name__}: {exc}"}))
        offset -= duration
    spans.reverse()
    return tuple(spans)


def retry_call(spec: JobSpec, attempt_fn, *,
               metrics: MetricsRegistry | None = None,
               base_attempt: int = 0) -> JobResult:
    """Run ``attempt_fn(attempt)`` under the spec's retry policy.

    The uniform retry loop every in-process execution path shares
    (serial backend, worker daemons, the baseline route): retryable
    failures back off deterministically and re-run; terminal failures —
    non-retryable, or attempts exhausted — raise a
    :class:`~repro.utils.errors.JobError` whose message depends only on
    the original exception, so every backend surfaces the same error for
    the same faulty spec.  ``base_attempt`` offsets the attempt numbering
    when a backend resubmits after worker loss, keeping the fault
    schedule and seeded backoff aligned across respawns.

    On success the result's ``attempts`` counts total executions, and
    with telemetry enabled each recovered failure becomes an
    ``attempt-failed`` span ahead of the job's epoch.
    """
    policy = spec.retry if spec.retry is not None else NO_RETRY
    attempt = base_attempt
    failures: list = []
    while True:
        t0 = time.perf_counter()
        try:
            result = attempt_fn(attempt)
        except Exception as exc:
            duration = time.perf_counter() - t0
            if policy.should_retry(exc, attempt):
                if metrics is not None:
                    metrics.counter("retries").inc()
                backoff = policy.backoff_for(attempt + 1, spec.run_seed)
                failures.append((exc, duration, backoff))
                if backoff > 0:
                    time.sleep(backoff)
                attempt += 1
                continue
            if metrics is not None:
                metrics.counter("jobs_failed").inc()
            raise wrap_job_failure(
                exc, attempts=attempt + 1, label=spec.label,
                seed=spec.run_seed,
                quarantined=(policy.is_retryable(exc)
                             and attempt + 1 >= policy.max_attempts
                             and policy.max_attempts > 1)) from exc
        result.attempts = attempt + 1
        if failures and getattr(result, "telemetry", None) is not None:
            result.telemetry.spans = (
                _attempt_failure_spans(failures, base_attempt)
                + tuple(result.telemetry.spans))
        return result


def execute_with_retry(spec: JobSpec, pool: MachinePool, cache: CompileCache,
                       replay_cache: ReplayCache | None = None,
                       metrics: MetricsRegistry | None = None,
                       faults: FaultPlan | None = None,
                       base_attempt: int = 0,
                       allow_crash: bool = False) -> JobResult:
    """:func:`execute_job` under the spec's retry policy and fault plan."""
    return retry_call(
        spec,
        lambda attempt: execute_job(
            spec, pool, cache, replay_cache, metrics=metrics, faults=faults,
            attempt=attempt, allow_crash=allow_crash),
        metrics=metrics, base_attempt=base_attempt)


class ExecutorBackend(abc.ABC):
    """Asynchronous spec-in, future-out execution engine.

    Subclasses implement :meth:`_submit` (hand one spec to the engine and
    return an unresolved-or-resolved future); the base class tracks
    outstanding futures so :meth:`drain` and the counters work uniformly.
    """

    #: Registry/display name, overridden per subclass.
    name = "?"

    #: Default cap on retained quarantine entries (oldest evicted beyond
    #: it); override per instance with ``max_quarantine=``.
    MAX_QUARANTINE = 100

    def __init__(self, max_quarantine: int | None = None):
        if max_quarantine is not None and max_quarantine < 1:
            raise ConfigurationError(
                "max_quarantine must be at least 1 (or None for the "
                f"default of {self.MAX_QUARANTINE})")
        self._outstanding: set[JobFuture] = set()
        self._lock = threading.Lock()
        self.submitted = 0
        self.failed = 0
        self.cancelled = 0
        self.max_quarantine = (max_quarantine if max_quarantine is not None
                               else self.MAX_QUARANTINE)
        #: Poisoned-job records dropped past the cap — long fleet runs
        #: see at a glance that the roster is a tail, not the whole story.
        self.quarantine_evicted = 0
        #: Terminal failures, newest last: ``{label, seed, error,
        #: exc_type, attempts, exhausted}`` per poisoned job.  Reported
        #: via :meth:`stats`; quarantined futures are resolved, so they
        #: never block :meth:`drain`.
        self.quarantine: list[dict] = []

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobFuture:
        """Queue one job; returns a future resolved when it finishes."""
        future = self._submit(spec)
        with self._lock:
            self.submitted += 1
            self._outstanding.add(future)
        # The callback prunes on completion, keeping submission O(1) even
        # when a large batch fans out while every future is still pending.
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, future: JobFuture) -> None:
        exception = future.exception()
        with self._lock:
            self._outstanding.discard(future)
            if exception is None:
                return
            if isinstance(exception, JobCancelled):
                self.cancelled += 1
                return
            self.failed += 1
            self.quarantine.append({
                "label": future.spec.label,
                "seed": future.spec.run_seed,
                "error": str(exception),
                "exc_type": getattr(exception, "exc_type",
                                    type(exception).__name__),
                "attempts": getattr(exception, "attempts", 1),
                "exhausted": getattr(exception, "quarantined", False),
            })
            overflow = len(self.quarantine) - self.max_quarantine
            if overflow > 0:
                self.quarantine_evicted += overflow
                del self.quarantine[:overflow]

    @abc.abstractmethod
    def _submit(self, spec: JobSpec) -> JobFuture:
        """Backend-specific submission."""

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> None:
        """Block until every job submitted so far has resolved.

        Does not raise on failed jobs — exceptions surface when the
        caller takes ``future.result()``.  ``timeout`` bounds the *whole*
        drain; when it elapses with jobs unresolved a
        :class:`TimeoutError` reports how many are stuck (worker-loss
        recovery resolves its casualties, so an expired drain means jobs
        are genuinely still running or hung).
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            pending = list(self._outstanding)
        for future in pending:
            if deadline is None:
                future.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not future.wait(remaining):
                unresolved = sum(1 for f in pending if not f.done())
                raise TimeoutError(
                    f"{self.name} drain timed out after {timeout} s "
                    f"({unresolved} jobs unresolved)")

    def resolve_outstanding(self, message: str) -> int:
        """Resolve every still-pending future with a :class:`JobError`.

        The close-time safety net: a backend must never abandon a future
        its caller may be blocked on.  Returns how many were resolved;
        races with genuine late resolutions are tolerated (the real
        outcome wins).
        """
        with self._lock:
            pending = list(self._outstanding)
        resolved = 0
        for future in pending:
            if future.done():
                continue
            try:
                future.set_exception(JobError(
                    message, exc_type="JobError",
                    label=future.spec.label, seed=future.spec.run_seed))
                resolved += 1
            except RuntimeError:
                pass  # a real resolution won the race
        return resolved

    def close(self) -> None:
        """Release worker resources (idempotent).

        The base implementation resolves any outstanding futures so no
        caller is left blocked on an abandoned job; engine-owning
        subclasses shut their engine down first, then delegate here.
        """
        self.resolve_outstanding(
            f"{self.name} backend closed with the job unresolved")

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- inspection ----------------------------------------------------------

    def stats(self) -> dict:
        """Backend counters; subclasses extend with engine-side detail."""
        with self._lock:
            pending = len(self._outstanding)
            quarantine = list(self.quarantine)
        return {"backend": self.name, "submitted": self.submitted,
                "failed": self.failed, "pending": pending,
                "cancelled": self.cancelled,
                "quarantined": len(quarantine),
                "quarantine_evicted": self.quarantine_evicted,
                "quarantine": quarantine}
