"""Which layer entry points the traced run wraps, and the per-layer metrics.

Functions a caller imports by name are wrapped in the caller's module
namespace, where the call looks them up; a function reached from two
namespaces is wrapped in both under one span name.  On the process and
fleet workloads the simulator layers run inside workers the client's
wrappers cannot see; there the worker-side figures come from what the
program already returns (``JobResult`` stage fields and replay counters,
``stats()``).

Times and counts are per *pass* (the workload's fixed list of sweeps),
so a faster layer elsewhere, which fits more passes into the run, does
not inflate them.  Deterministic counts repeat exactly between runs.
"""

from __future__ import annotations

import itertools
import time

from perfbench.stats import percentile
from perfbench.tracing import Tracer, layer_summary

#: (target, span name): one span per call.
SPANS = (
    ("repro.service.cache:CompileCache.resolve", "cache.resolve"),
    ("repro.service.pool:MachinePool.acquire", "pool.acquire"),
    ("repro.core.quma:QuMA.__init__", "quma.build"),
    ("repro.core.quma:calibrate_readout", "readout.calibrate"),
    ("repro.mitigation.readout:calibrate_readout", "readout.calibrate"),
    ("repro.service.backends.base:run_with_replay", "replay"),
    ("repro.core.quma:QuMA.run", "quma.run"),
    ("repro.qubit.state:DensityMatrix.apply_kraus", "state.apply_kraus"),
    ("repro.qubit.state:DensityMatrix.apply_unitary", "state.apply_unitary"),
    ("repro.qubit.state:DensityMatrix.apply_superop", "state.apply_superop"),
    ("repro.qubit.state:DensityMatrix.project", "state.project"),
    ("repro.core.replay:adc_quantize", "readout.adc_quantize"),
    ("repro.core.replay:integrate_batch", "readout.integrate_batch"),
    ("repro.core.measurement:transmitted_trace", "readout.transmitted_trace"),
    ("repro.readout.multiplex:transmitted_trace",
     "readout.transmitted_trace"),
    ("repro.mitigation.base:Mitigator.expand_spec", "mitigation.expand"),
    ("repro.mitigation.base:ZNEMitigator.expand_spec", "mitigation.expand"),
    ("repro.mitigation.base:confusion_matrix", "mitigation.confusion_matrix"),
    ("repro.mitigation.base:Mitigator.correct", "mitigation.correct"),
    ("repro.mitigation.base:ReadoutMitigator.correct", "mitigation.correct"),
    ("repro.experiments.base:Experiment.build_specs",
     "experiments.build_specs"),
    ("repro.experiments.base:Experiment.update", "experiments.update"),
    ("repro.experiments.base:Experiment.analyze", "experiments.analyze"),
    ("repro.service.fleet.client:recv_frame", "fleet.recv_frame"),
    # Socket reads inside recv_frame, so its self time is decoding only.
    ("repro.service.fleet.protocol:_recv_exact", "fleet.recv_wait"),
)

#: Per-shot trace synthesis: joint plans call it from the replay module,
#: single-qubit plans through ``transmitted_trace_batch`` in its own.
SYNTHESIZE_TARGETS = ("repro.core.replay:synthesize_trace_batch",
                      "repro.readout.resonator:synthesize_trace_batch")

#: (target, counter name): counted, no span (one call per kernel event).
COUNTS = (("repro.sim.kernel:Simulator.at", "kernel.events"),)


class _CountingSocket:
    """Forwards ``sendall`` to a socket, counting the bytes."""

    def __init__(self, sock, tracer: Tracer):
        self._sock = sock
        self._tracer = tracer

    def sendall(self, data) -> None:
        self._tracer.count("fleet.bytes_sent", len(data))
        self._sock.sendall(data)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; ``tracer.close()`` restores them."""
    for target, name in SPANS:
        tracer.wrap(target, name)
    for target, name in COUNTS:
        tracer.count_calls(target, name)

    def synthesize(original, args, kwargs):
        traces = original(*args, **kwargs)
        tracer.count("readout.synthesize_batch.samples", traces.size)
        return traces

    for target in SYNTHESIZE_TARGETS:
        tracer.wrap(target, "readout.synthesize_batch", synthesize)

    def send_frame(original, args, kwargs):
        sock, *rest = args
        return original(_CountingSocket(sock, tracer), *rest, **kwargs)

    tracer.wrap("repro.service.fleet.client:send_frame", "fleet.send_frame",
                send_frame)

    jobs = itertools.count(1)

    def submit(original, args, kwargs):
        # Client-observed latency of each job: from the future's own
        # submit stamp to the moment it resolves on this side.
        future = original(*args, **kwargs)
        phase = tracer.phase

        def resolved(done):
            if phase is not None:
                tracer.samples[f"{phase}:job_latency"].append(
                    (done, time.perf_counter() - done.submitted_at))
        future.add_done_callback(resolved)
        return future

    def submit_span(original, args, kwargs):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        return tracer.timed("scheduler.submit",
                            lambda: submit(original, args, kwargs),
                            job=f"{next(jobs)}:{spec.label}")

    tracer.patch("repro.service.scheduler:ExperimentService.submit",
                 lambda original: lambda *a, **k: submit_span(original, a, k))


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("scheduler.queue_wait_ms.p50", "ms", "lower"),
    ("scheduler.queue_wait_ms.p95", "ms", "lower"),
    ("scheduler.dispatch_ms.p50", "ms", "lower"),
    ("service.retries", "count/pass", "lower"),
    ("cache.resolve.self_s", "s/pass", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("pool.acquire.self_s", "s/pass", "lower"),
    ("pool.builds", "count/pass", "lower"),
    ("pool.reuse_ratio", "ratio", "higher"),
    ("quma.build.self_s", "s/pass", "lower"),
    ("readout.calibrate.calls", "count/pass", "lower"),
    ("readout.calibrate.self_s", "s/pass", "lower"),
    ("replay.self_s", "s/pass", "lower"),
    ("replay.plan_hit_ratio", "ratio", "higher"),
    ("replay.replayed_round_ratio", "ratio", "higher"),
    ("replay.plans_built", "count/pass", "lower"),
    ("replay.fallbacks", "count/pass", "lower"),
    ("quma.run.self_s", "s/pass", "lower"),
    ("kernel.events", "count/pass", "lower"),
    ("kernel.us_per_event", "us", "lower"),
    ("quma.sim_ns_per_round", "ns/round", "lower"),
    ("quma.instructions_per_round", "instr/round", "lower"),
    ("quma.stall_ns_per_round", "ns/round", "lower"),
    ("state.apply_kraus.calls", "count/pass", "lower"),
    ("state.apply_kraus.self_s", "s/pass", "lower"),
    ("state.apply_unitary.calls", "count/pass", "lower"),
    ("state.apply_unitary.self_s", "s/pass", "lower"),
    ("state.apply_superop.calls", "count/pass", "lower"),
    ("state.apply_superop.self_s", "s/pass", "lower"),
    ("state.project.calls", "count/pass", "lower"),
    ("state.project.self_s", "s/pass", "lower"),
    ("readout.synthesize_batch.calls", "count/pass", "lower"),
    ("readout.synthesize_batch.self_s", "s/pass", "lower"),
    ("readout.synthesize_batch.samples", "count/pass", "lower"),
    ("readout.adc_quantize.self_s", "s/pass", "lower"),
    ("readout.integrate_batch.self_s", "s/pass", "lower"),
    ("readout.transmitted_trace.calls", "count/pass", "lower"),
    ("readout.transmitted_trace.self_s", "s/pass", "lower"),
    ("mitigation.expand.self_s", "s/pass", "lower"),
    ("mitigation.confusion_matrix.calls", "count/pass", "lower"),
    ("mitigation.confusion_matrix.self_s", "s/pass", "lower"),
    ("mitigation.correct.self_s", "s/pass", "lower"),
    ("experiments.build_specs.self_s", "s/pass", "lower"),
    ("experiments.update.self_s", "s/pass", "lower"),
    ("experiments.analyze.self_s", "s/pass", "lower"),
    ("fleet.frames_sent", "count/pass", "lower"),
    ("fleet.bytes_sent", "bytes/pass", "lower"),
    ("fleet.send_frame.self_s", "s/pass", "lower"),
    ("fleet.recv_frame.self_s", "s/pass", "lower"),
    ("job.total_ms.p50", "ms", "lower"),
    ("job.total_ms.p95", "ms", "lower"),
    ("setup.quma.build.self_s", "s", "lower"),
    ("setup.readout.calibrate.self_s", "s", "lower"),
    ("setup.pool.builds", "count", "lower"),
)

#: What "replay disabled" looks like in ``JobResult.replay_fallback_reason``.
REPLAY_DISABLED = "replay disabled by spec"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(values, p: float) -> float:
    return percentile(values, p) if values else 0.0


def layer_metrics(tracer: Tracer, result) -> dict[str, float]:
    """Reduce one traced phase (a ``PhaseResult``) to PER_LAYER values."""
    steady = layer_summary(tracer.recorded("steady"))
    setup = layer_summary(tracer.recorded("setup"))
    passes = max(len(result.passes), 1)
    runs = result.runs

    def span(name: str, field: str, table=steady) -> float:
        return table.get(name, {}).get(field, 0)

    def counter(name: str) -> float:
        return tracer.counters.get(f"steady:{name}", 0)

    jobs = [job for run in runs for job in run.jobs]
    executed_rounds = sum(run.executed_rounds for run in runs)
    enabled = [job for job in jobs
               if job.replay_fallback_reason != REPLAY_DISABLED]
    dispatch_ms = [(latency - done.result().total_s) * 1e3
                   for done, latency in tracer.samples["steady:job_latency"]
                   if done.exception() is None]
    models = [job.run for job in jobs if job.run is not None]
    events = counter("kernel.events")

    values = {
        "scheduler.queue_wait_ms.p50":
            _p([job.queue_wait_s * 1e3 for job in jobs], 50),
        "scheduler.queue_wait_ms.p95":
            _p([job.queue_wait_s * 1e3 for job in jobs], 95),
        "scheduler.dispatch_ms.p50": _p(dispatch_ms, 50),
        "service.retries": result.retries / passes,
        "cache.hit_ratio": _ratio(sum(job.cache_hit for job in jobs),
                                  len(jobs)),
        "pool.builds": sum(not job.machine_reused for job in jobs) / passes,
        "pool.reuse_ratio": _ratio(sum(job.machine_reused for job in jobs),
                                   len(jobs)),
        "replay.plan_hit_ratio": _ratio(
            sum(job.replay_plan_hit for job in enabled), len(enabled)),
        "replay.replayed_round_ratio": _ratio(
            sum(job.replayed_rounds for job in jobs), executed_rounds),
        "replay.plans_built": sum(
            1 for job in enabled if not job.replay_plan_hit
            and job.replay_fallback_reason is None) / passes,
        "replay.fallbacks": sum(
            1 for job in enabled
            if job.replay_fallback_reason is not None) / passes,
        "kernel.events": events / passes,
        "kernel.us_per_event": _ratio(span("quma.run", "incl_s") * 1e6,
                                      events),
        "quma.sim_ns_per_round": _ratio(
            sum(run.duration_ns for run in models), executed_rounds),
        "quma.instructions_per_round": _ratio(
            sum(run.instructions_executed for run in models),
            executed_rounds),
        "quma.stall_ns_per_round": _ratio(
            sum(run.stall_ns for run in models), executed_rounds),
        "readout.synthesize_batch.samples":
            counter("readout.synthesize_batch.samples") / passes,
        "fleet.frames_sent": span("fleet.send_frame", "calls") / passes,
        "fleet.bytes_sent": counter("fleet.bytes_sent") / passes,
        "job.total_ms.p50": _p([job.total_s * 1e3 for job in jobs], 50),
        "job.total_ms.p95": _p([job.total_s * 1e3 for job in jobs], 95),
        "setup.quma.build.self_s": span("quma.build", "self_s", setup),
        "setup.readout.calibrate.self_s":
            span("readout.calibrate", "self_s", setup),
        "setup.pool.builds": sum(not job.machine_reused
                                 for job in result.warm_jobs),
    }
    for name, _, _ in PER_LAYER:
        if name not in values:
            layer, _, field = name.rpartition(".")
            values[name] = span(layer, field) / passes
    return {name: values[name] for name, _, _ in PER_LAYER}
