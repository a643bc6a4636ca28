"""One benchmark run: set-ups, the timed closed loop, checks and metrics."""

from __future__ import annotations

import gc
import time

from repro.service import ExperimentService

from perfbench.stats import median, peak_rss_mb, summarize
from perfbench.workloads import PhaseResult, SweepFailed, run_pass

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sweep_s_p50", "s", "lower"),
    ("first_result_s_p50", "s", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)


def measure(workload_cls, seed: int, seconds: float, setups: int,
            tracer=None):
    """Set up ``setups`` times, run the timed phase on the last set-up."""
    def phase(name):
        if tracer is not None:
            tracer.phase = name

    result = PhaseResult()
    workload = workload_cls(seed)
    try:
        for k in range(setups):
            phase("setup")
            t0 = time.perf_counter()
            workload.open()
            warm = workload.warm_up()
            result.setup_s.append(time.perf_counter() - t0)
            phase(None)
            if k < setups - 1:
                workload.close()
        result.warm_passes = warm
        gc.collect()
        phase("steady")
        t0 = time.perf_counter()
        while True:
            result.passes.append(run_pass(workload, len(result.passes),
                                          workload.service))
            if time.perf_counter() - t0 >= seconds:
                break
        result.wall_s = time.perf_counter() - t0
        phase(None)
        result.peak_rss_mb = peak_rss_mb()
        counters = workload.service.stats()["metrics"]["service"]["counters"]
        result.retries = counters.get("service.retries", 0)
        result.errors += verify(workload, result)
    except SweepFailed as exc:
        result.attempted += exc.attempted
        result.failed += exc.failed
        result.errors.append(str(exc))
    finally:
        phase(None)
        workload.close()
    result.attempted += sum(len(run.jobs) for run in result.runs)
    return result


def pass_digests(runs) -> tuple[str, ...]:
    return tuple(run.digest for run in runs)


def verify(workload, result) -> list[str]:
    """Physics tolerances, repeat determinism and the serial reference."""
    errors = []
    for runs in result.passes:
        for run in runs:
            failure = run.check(run.analysis, run.experiment) \
                if run.check is not None else None
            if failure:
                errors.append(failure)
        errors.extend(workload.check_pass(runs))
    first = pass_digests(result.passes[0])
    if workload.repeats_inputs:
        repeats = result.passes[1:] + result.warm_passes
        if any(pass_digests(runs) != first for runs in repeats):
            errors.append("repeat passes gave different averages")
    elif pass_digests(run_pass(workload, 0, workload.service)) != first:
        errors.append("re-running pass 0 gave different averages")
    if workload.backend != "serial":
        with ExperimentService(backend="serial") as serial:
            if pass_digests(run_pass(workload, 0, serial)) != first:
                errors.append(f"{workload.backend} averages differ from "
                              "the serial re-run")
    return errors


def end_to_end(result) -> dict[str, dict]:
    """The end-to-end metrics of one phase, with sample counts.

    Sweep kinds in one workload differ several-fold in length, so a
    pooled median would jump between kinds with the sweep count; the
    sweep figures are the mean over kinds of each kind's median.
    """
    runs = result.runs
    kinds = list(dict.fromkeys(run.kind for run in runs))

    def per_kind(attr):
        groups = {kind: [getattr(run, attr) for run in runs
                         if run.kind == kind] for kind in kinds}
        value = (sum(median(v) for v in groups.values()) / len(kinds)
                 if kinds else 0.0)
        return value, {kind: summarize(v) for kind, v in groups.items()}

    sweep_s, sweep_kinds = per_kind("sweep_s")
    first_s, first_kinds = per_kind("first_result_s")
    rounds = sum(run.requested_rounds for run in runs)
    units = {name: unit for name, unit, _ in END_TO_END}
    values = {
        "setup_s": (median(result.setup_s) if result.setup_s else 0.0,
                    len(result.setup_s), None),
        "sweep_s_p50": (sweep_s, len(runs), sweep_kinds),
        "first_result_s_p50": (first_s, len(runs), first_kinds),
        "rounds_per_s": (rounds / result.wall_s if result.wall_s else 0.0,
                         len(result.passes), None),
        "peak_rss_mb": (result.peak_rss_mb, 1, None),
    }
    out = {name: {"value": value, "unit": units[name], "n": n,
                  **({"per_kind": detail} if detail else {})}
           for name, (value, n, detail) in values.items()}
    out["failed_job_ratio"] = {
        "value": result.failed / result.attempted if result.attempted
        else 0.0, "unit": "ratio", "n": result.attempted}
    return out


def model_stats(result) -> dict:
    """Modelled-machine statistics of pass 0; identical under a
    simulator-only change, so two commits compare them exactly."""
    jobs = [job for run in result.passes[0] for job in run.jobs
            if job.run is not None] if result.passes else []
    rounds = sum(run.executed_rounds for run in result.passes[0]) \
        if result.passes else 0
    if not rounds:
        return {}
    return {
        "sim_ns_per_round": sum(j.run.duration_ns for j in jobs) / rounds,
        "instructions_per_round":
            sum(j.run.instructions_executed for j in jobs) / rounds,
        "stall_ns_per_round": sum(j.run.stall_ns for j in jobs) / rounds,
    }
