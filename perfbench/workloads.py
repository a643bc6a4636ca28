"""The four benchmark workloads and the closed-loop client that drives them.

Traffic model, every workload: one client (the experimenter) submits one
sweep through ``Session.submit_experiment`` (which fans out every job at
once), streams it, and waits for the analysis before it submits the
next.  A *pass* is the workload's fixed list of sweeps; the timed phase
repeats passes until the run's seconds are spent.  The workload seed
derives every config seed and RB sequence draw; the program sees only
the generated sweep parameters.  No workload uses more than two worker
processes or daemon connections.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import MachineConfig
from repro.readout import ReadoutParams
from repro.service import ExperimentService
from repro.service.fleet.launch import launch_worker, stop_worker
from repro.session import Session

#: Worker processes or daemons a multi-process workload may use.
MAX_WORKERS = 2

# Physics tolerances: the correctness gate.  Each bound sits several
# standard deviations of shot noise away from values seen over 150 seeds.
RABI_1024_REL_TOL = 0.05      #: |fitted / expected pi amplitude - 1|, N=1024
RABI_64_REL_TOL = 0.25        #: the same at N=64 (sd over seeds: 0.04)
ALLXY_MAX_DEVIATION = 0.05    #: mean |F - ideal staircase|
BELL_MIN_FIDELITY = 0.8       #: (1 + ZZ + XX - YY) / 4 on the default chip
GHZ_MIN_POPULATION = 0.8      #: P(0000) + P(1111)
RB_MAX_EPC = 0.02             #: error per Clifford
T1_REL_TOL = 0.25             #: |fitted T1 / configured T1 - 1|


def derive_seed(seed: int, *tags) -> int:
    """A 32-bit seed for one named input, from the workload seed alone."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def worker_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_WORKERS, cpus))


@dataclass
class SweepDef:
    """One sweep as the experimenter submits it."""

    kind: str                  #: label for per-kind statistics
    experiment: str            #: registry name
    params: dict               #: ``submit_experiment`` keywords
    fit: bool = False          #: refine the incremental fit while streaming
    #: Physics gate: (analysis, experiment) -> failure text or None.
    check: Callable | None = None


@dataclass
class SweepRun:
    kind: str
    t_submit: float
    t_first: float
    t_done: float
    jobs: list                 #: executed JobResults, submission order
    requested_rounds: int      #: rounds the sweep parameters ask for
    executed_rounds: int       #: rounds of every executed job
    analysis: object
    experiment: object
    digest: str
    check: Callable | None = None

    @property
    def sweep_s(self) -> float:
        return self.t_done - self.t_submit

    @property
    def first_result_s(self) -> float:
        return self.t_first - self.t_submit


class SweepFailed(Exception):
    def __init__(self, kind: str, attempted: int, failed: int, cause):
        super().__init__(f"sweep {kind} failed: {cause!r}")
        self.attempted = attempted
        self.failed = failed


def averages_digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(np.ascontiguousarray(job.averages).tobytes())
        if job.joint_counts is not None:
            h.update(np.ascontiguousarray(job.joint_counts).tobytes())
    return h.hexdigest()


def executed_rounds(future) -> int:
    return sum(f.spec.n_rounds if f.spec.n_rounds is not None
               else f.spec.compiler_options.n_rounds
               for f in future.futures)


def run_sweep(session: Session, sweep: SweepDef) -> SweepRun:
    """Submit, stream, and wait for the analysis of one sweep."""
    t_submit = time.perf_counter()
    future = session.submit_experiment(sweep.experiment, **sweep.params)
    t_first = None
    try:
        for _ in future.stream(fit=sweep.fit):
            if t_first is None:
                t_first = time.perf_counter()
        analysis = future.result()
    except Exception as exc:
        for job in future.futures:
            job.wait(timeout=60)
        failed = sum(1 for job in future.futures
                     if not job.done() or job.cancelled()
                     or job.exception() is not None)
        raise SweepFailed(sweep.kind, len(future.futures), failed,
                          exc) from exc
    t_done = time.perf_counter()
    jobs = list(future.sweep.jobs)
    rounds = executed_rounds(future)
    # A mitigated sweep executes ``group`` variants of every requested job.
    requested = rounds // getattr(future.experiment, "group", 1)
    return SweepRun(sweep.kind, t_submit, t_first, t_done, jobs, requested,
                    rounds, analysis, future.experiment,
                    averages_digest(jobs), sweep.check)


# -- physics checks -----------------------------------------------------------

def _rabi_check(rel_tol: float):
    def check(result, experiment):
        rel = result.pi_amplitude / result.expected_pi_amplitude - 1.0
        if not abs(rel) <= rel_tol:
            return (f"rabi pi amplitude {result.pi_amplitude:.4f} is "
                    f"{rel:+.3f} off {result.expected_pi_amplitude:.4f}")
        return None
    return check


def _allxy_check(result, experiment):
    if not result.deviation <= ALLXY_MAX_DEVIATION:
        return f"allxy deviation {result.deviation:.4f}"
    return None


def _bell_check(result, experiment):
    if result.fidelity is None or not result.fidelity >= BELL_MIN_FIDELITY:
        return f"bell fidelity bound {result.fidelity}"
    return None


def _ghz_check(result, experiment):
    if not result.population >= GHZ_MIN_POPULATION:
        return f"ghz population {result.population:.4f}"
    return None


def _rb_check(result, experiment):
    if not 0.0 <= result.error_per_clifford <= RB_MAX_EPC:
        return f"rb error per Clifford {result.error_per_clifford:.3g}"
    return None


def _t1_check(result, experiment):
    t1_ns = experiment.config.transmons[0].t1_ns
    if not abs(result.fitted_tau_ns / t1_ns - 1.0) <= T1_REL_TOL:
        return f"t1 fit {result.fitted_tau_ns:.0f} ns against {t1_ns:.0f} ns"
    return None


# -- workloads ----------------------------------------------------------------

class Workload:
    """A service set-up, a warm-up, and a pass of sweeps per index."""

    name = "?"
    why = ""
    backend = "serial"
    #: Passes repeat identical sweep parameters (so identical averages).
    repeats_inputs = True

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.config_seed = derive_seed(seed, self.name, "config")
        self.service: ExperimentService | None = None

    def open(self) -> None:
        self.service = ExperimentService(backend=self.backend,
                                         workers=worker_count())

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def sweeps(self, index: int, service: ExperimentService
               ) -> list[tuple[Session, SweepDef]]:
        raise NotImplementedError

    def warm_up(self) -> list[list[SweepRun]]:
        """The set-up's passes that fill pools and caches."""
        return [run_pass(self, 0, self.service)]

    def check_pass(self, runs: list[SweepRun]) -> list[str]:
        """Checks that span several sweeps of one pass."""
        return []


def run_pass(workload: Workload, index: int,
             service: ExperimentService) -> list[SweepRun]:
    return [run_sweep(session, sweep)
            for session, sweep in workload.sweeps(index, service)]


class FullsimRegister(Workload):
    name = "fullsim_register"
    why = ("Replay-ineligible full-sim path on a warm serial session; moves "
           "sim.kernel, qubit.state, per-shot readout; not replay, batch "
           "readout, pool, compile")

    def sweeps(self, index, service):
        session = Session(service=service, seed=self.config_seed)
        return [
            (session, SweepDef("bell", "bell", {
                "targets": ((0, 1),), "bases": ("ZZ", "XX", "YY"),
                "replay": False}, check=_bell_check)),
            (session, SweepDef("ghz", "ghz", {
                "targets": ((0, 1, 2, 3),), "replay": False},
                check=_ghz_check)),
        ]


class WarmReplay1Q(Workload):
    name = "warm_replay_1q"
    why = ("Single-qubit calibration suite incl. AllXY at N=1024, every "
           "replay plan cached; moves core.replay, batch readout/ADC; not "
           "sim.kernel, qubit.state")
    n_rounds = 1024

    def sweeps(self, index, service):
        session = Session(service=service, seed=self.config_seed)
        n = self.n_rounds
        return [
            (session, SweepDef("rabi", "rabi", {"n_rounds": n},
                               check=_rabi_check(RABI_1024_REL_TOL))),
            (session, SweepDef("allxy", "allxy", {"n_rounds": n},
                               check=_allxy_check)),
            (session, SweepDef("rb", "rb", {
                "n_rounds": n, "seed": derive_seed(self.seed, self.name,
                                                   "rb")},
                check=_rb_check)),
            (session, SweepDef("t1", "t1", {"n_rounds": n},
                               check=_t1_check)),
        ]


#: Degraded readout (as in benchmarks/bench_mitigation.py): misassignment
#: in the tens of percent, so readout mitigation has something to recover.
DEGRADED_AMP_EXCITED = 0.345
DEGRADED_MSMT_CYCLES = 60


def degraded_pair_config(seed: int) -> MachineConfig:
    readouts = tuple(ReadoutParams(f_if_hz=40e6 + q * 1e6,
                                   amp_excited=DEGRADED_AMP_EXCITED)
                     for q in range(2))
    return MachineConfig(qubits=(0, 1), flux_pairs=((0, 1),),
                         readouts=readouts, msmt_cycles=DEGRADED_MSMT_CYCLES,
                         calibration_shots=400, seed=seed,
                         trace_enabled=False)


class SeedScanProcess(Workload):
    name = "seed_scan_process"
    why = ("Fresh config seed per pass on process x2 (cold builds, "
           "calibration, plan builds, confusion matrix, IPC); moves pool, "
           "replay writes, mitigation, scheduler; not fleet")
    backend = "process"
    repeats_inputs = False

    def pass_seed(self, index) -> int:
        return derive_seed(self.seed, self.name, "pass", index)

    def warm_up(self):
        return [run_pass(self, -1, self.service)]

    def sweeps(self, index, service):
        seed = self.pass_seed(index)
        default = Session(service=service, seed=seed)
        degraded = Session(service=service, config=degraded_pair_config(seed))
        return [
            (default, SweepDef("rabi", "rabi", {"n_rounds": 64},
                               check=_rabi_check(RABI_64_REL_TOL))),
            (degraded, SweepDef("bell", "bell", {"targets": ((0, 1),)})),
            # Linear extrapolation, as in benchmarks/bench_mitigation.py:
            # over 450 seeds it beat the raw fidelity by at least 0.13,
            # where Richardson's noise amplification came within 0.003.
            (degraded, SweepDef("mitigated_bell", "mitigated", {
                "targets": ((0, 1),), "experiment": "bell",
                "extrapolator": "linear"})),
        ]

    def check_pass(self, runs):
        by_kind = {run.kind: run.analysis for run in runs}
        raw = by_kind["bell"].fidelity
        mitigated = by_kind["mitigated_bell"].fidelity
        if raw is None or mitigated is None or not mitigated > raw:
            return [f"mitigated bell fidelity {mitigated} not above raw {raw}"]
        return []


class WarmFanoutFleet(Workload):
    name = "warm_fanout_fleet"
    why = ("Warm tiny RB jobs on 2 loopback repro worker daemons with "
           "streamed fits; moves framing, sharding, queue-wait, parent-side "
           "fitting; not simulator layers")
    backend = "fleet"
    # Lengths span two decay lengths, so the streamed fits converge in a
    # similar number of steps whatever the draw (with lengths to 100 the
    # fit cost varies about threefold between draws).
    lengths = (1, 10, 40, 100, 200, 400, 700)

    def __init__(self, seed):
        super().__init__(seed)
        self.daemons = []

    def warm_up(self):
        # Sharding is least-outstanding, so any job may land on either
        # daemon: warm each daemon through a service of its own first.
        # One draw's 42 plans fit a daemon's 64-entry replay cache (a
        # second draw per pass would not).
        def warm(address):
            with ExperimentService(backend="fleet",
                                   fleet_workers=[address]) as single:
                return run_pass(self, 0, single)

        with ThreadPoolExecutor(len(self.daemons)) as pool:
            passes = list(pool.map(warm, [a for _, a in self.daemons]))
        passes.append(run_pass(self, 0, self.service))
        return passes

    def open(self) -> None:
        try:
            with ThreadPoolExecutor(worker_count()) as pool:
                launches = [pool.submit(launch_worker)
                            for _ in range(worker_count())]
                for launch in launches:
                    # Keep every daemon that started, so close() stops it
                    # even when another one failed to come up.
                    if launch.exception() is None:
                        self.daemons.append(launch.result())
                for launch in launches:
                    launch.result()
            self.service = ExperimentService(
                backend="fleet",
                fleet_workers=[address for _, address in self.daemons])
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        try:
            super().close()
        finally:
            while self.daemons:
                stop_worker(self.daemons.pop()[0])

    def sweeps(self, index, service):
        session = Session(service=service, seed=self.config_seed)
        return [(session, SweepDef("rb", "rb", {
            "lengths": list(self.lengths), "sequences_per_length": 6,
            "n_rounds": 16, "seed": derive_seed(self.seed, self.name, "rb")},
            fit=True, check=_rb_check))]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FullsimRegister, WarmReplay1Q, SeedScanProcess,
                              WarmFanoutFleet)}


@dataclass
class PhaseResult:
    """What one set-up plus timed phase measured."""

    setup_s: list[float] = field(default_factory=list)
    passes: list[list[SweepRun]] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    warm_passes: list[list[SweepRun]] = field(default_factory=list)
    retries: int = 0

    @property
    def warm_jobs(self) -> list:
        return [job for runs in self.warm_passes for run in runs
                for job in run.jobs]

    @property
    def runs(self) -> list[SweepRun]:
        return [run for runs in self.passes for run in runs]
