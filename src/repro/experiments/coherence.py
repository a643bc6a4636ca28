"""Coherence experiments: T1, T2 Ramsey, T2 Echo (Section 8).

Each sweeps a free-evolution delay through the full QuMA stack and fits
the resulting decay.  With the Markovian decoherence model of the
substrate, the fitted Ramsey and echo times both recover the configured
T2 (the echo has no low-frequency noise to refocus) — recorded as an
explicit model note in EXPERIMENTS.md.

:class:`T1Experiment` / :class:`RamseyExperiment` / :class:`EchoExperiment`
are the declarative forms (``session.run("t1", ...)`` etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.compiler.codegen import CompilerOptions
from repro.compiler.program import QuantumProgram
from repro.core.config import MachineConfig
from repro.experiments.analysis import (
    DampedCosineFit,
    ExponentialFit,
    fit_damped_cosine,
    fit_exponential_decay,
)
from repro.experiments.base import Experiment, Target, register_experiment
from repro.experiments.runner import ExperimentRun
from repro.service import JobSpec
from repro.utils.units import CYCLE_NS


@dataclass
class CoherenceResult:
    """One coherence sweep: delays, populations, and the fitted decay."""

    kind: str
    delays_ns: np.ndarray
    population: np.ndarray  #: P(|1>) estimate per delay (rescaled signal)
    fit: ExponentialFit | DampedCosineFit
    run: ExperimentRun

    @property
    def fitted_tau_ns(self) -> float:
        return self.fit.tau


def _delay_kernels(program: QuantumProgram, qubit: int, delays_cycles: list[int],
                   kind: str) -> None:
    for i, delay in enumerate(delays_cycles):
        kernel = program.new_kernel(f"{kind}{i}")
        kernel.prepz(qubit)
        if kind == "t1":
            kernel.x(qubit)
            kernel.wait(delay, qubit)
        elif kind == "ramsey":
            kernel.x90(qubit)
            kernel.wait(delay, qubit)
            kernel.x90(qubit)
        elif kind == "echo":
            half = max(delay // 2, 1)
            kernel.x90(qubit)
            kernel.wait(half, qubit)
            kernel.x(qubit)
            kernel.wait(half, qubit)
            kernel.x90(qubit)
        else:
            raise ValueError(f"unknown coherence kind {kind!r}")
        kernel.measure(qubit)


def coherence_job(kind: str, delays_cycles: list[int], config: MachineConfig,
                  n_rounds: int, replay: bool = True,
                  qubit: int | None = None) -> JobSpec:
    """One coherence sweep (all delays as kernels) as a service job.

    Every delay is one K-point of a replay-eligible program, so the
    round-replay engine records two rounds of the whole sweep and
    vectorizes the remaining ``n_rounds - 2``.  ``qubit`` defaults to the
    config's first wired qubit.
    """
    qubit = qubit if qubit is not None else config.qubits[0]
    program = QuantumProgram(kind, qubits=(qubit,))
    _delay_kernels(program, qubit, delays_cycles, kind)
    return JobSpec(config=config, program=program,
                   compiler_options=CompilerOptions(n_rounds=n_rounds),
                   params={"kind": kind, "points": len(delays_cycles)},
                   label=f"{kind} x{len(delays_cycles)}", replay=replay,
                   cal_qubit=qubit)


class CoherenceExperiment(Experiment):
    """Shared delay-sweep shape of the T1 / Ramsey / Echo experiments.

    Subclasses set :attr:`name` (the coherence kind), default delays (via
    :meth:`default_delays`), and the decay model (:meth:`fit_decay`).
    One job per qubit carries the whole delay sweep as K-points.
    """

    target_arity = 1
    defaults = {"delays_cycles": None, "n_rounds": 64, "replay": True}

    def resolve(self) -> None:
        if self.params["delays_cycles"] is None:
            self.params["delays_cycles"] = self.default_delays()
        self.params["delays_cycles"] = [int(d)
                                        for d in self.params["delays_cycles"]]

    def default_delays(self) -> list[int]:
        raise NotImplementedError

    def fit_decay(self, delays_ns: np.ndarray, population: np.ndarray):
        raise NotImplementedError

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        (qubit,) = target
        return [coherence_job(self.name, self.params["delays_cycles"],
                              self.config, self.params["n_rounds"],
                              replay=self.params["replay"], qubit=qubit)]

    def analyze_target(self, jobs, target: Target) -> CoherenceResult:
        job = jobs[0]
        run = ExperimentRun(machine=None, result=job.run,
                            averages=job.averages,
                            s_ground=job.s_ground, s_excited=job.s_excited)
        pop = run.normalized
        delays_ns = np.asarray(self.params["delays_cycles"]) * CYCLE_NS
        fit = self.fit_decay(delays_ns, pop)
        return CoherenceResult(self.name, delays_ns, pop, fit, run)

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        _, job = indexed_jobs[0]
        delays_ns = np.asarray(self.params["delays_cycles"]) * CYCLE_NS
        fit = self.fit_decay(delays_ns, job.normalized)
        return {"tau_ns": fit.tau}

    def summarize_target(self, result: CoherenceResult,
                         target: Target) -> str:
        return f"fitted tau = {result.fitted_tau_ns:.0f} ns"


@register_experiment
class T1Experiment(CoherenceExperiment):
    """Excite, wait tau, measure; fit P1(tau) = A exp(-tau/T1) + B."""

    name = "t1"

    def default_delays(self) -> list[int]:
        t1_cycles = int(self.config.transmons[0].t1_ns / CYCLE_NS)
        return [max(1, int(f * t1_cycles)) for f in
                (0.02, 0.15, 0.3, 0.5, 0.75, 1.0, 1.5, 2.2)]

    def fit_decay(self, delays_ns, population):
        return fit_exponential_decay(delays_ns, population)


@register_experiment
class RamseyExperiment(CoherenceExperiment):
    """x90 - wait - x90 with an artificial detuning; fit damped cosine.

    The detuning is applied as a drive-frequency offset (the experimental
    technique); fringes appear at that frequency and the envelope decays
    with T2*.  Default delays sit on the 20 ns SSB grid — with stored
    modulated waveforms, off-grid delays rotate the second pulse's axis
    (Section 4.2.3), which is a *different* experiment.
    """

    name = "ramsey"
    defaults = {**CoherenceExperiment.defaults,
                "artificial_detuning_hz": 0.4e6}

    def resolve(self) -> None:
        # A private copy: detuning the drive must not leak into the
        # caller's config (which may seed other experiments' jobs and
        # pool keys).
        self.config = replace(
            self.config,
            drive_detuning_hz=self.params["artificial_detuning_hz"])
        super().resolve()

    def default_delays(self) -> list[int]:
        ssb_grid = 4  # cycles per SSB period (20 ns at -50 MHz)
        t2_cycles = int(self.config.transmons[0].t2_ns / CYCLE_NS)
        raw = np.linspace(0.02, 2.0, 24) * t2_cycles
        return sorted({max(ssb_grid, int(round(d / ssb_grid)) * ssb_grid)
                       for d in raw})

    def fit_decay(self, delays_ns, population):
        return fit_damped_cosine(
            delays_ns, population,
            freq_guess=abs(self.params["artificial_detuning_hz"]) * 1e-9)


@register_experiment
class EchoExperiment(CoherenceExperiment):
    """x90 - tau/2 - X180 - tau/2 - x90; fit exponential decay toward 0.5."""

    name = "echo"

    def default_delays(self) -> list[int]:
        # Sweep past T2 so the exponential curvature beats shot noise;
        # the late-time T1 pull toward |0> biases tau a little low (model
        # note in EXPERIMENTS.md).
        t2_cycles = int(self.config.transmons[0].t2_ns / CYCLE_NS)
        return [max(2, int(f * t2_cycles)) for f in
                (0.05, 0.15, 0.3, 0.5, 0.75, 1.0, 1.3, 1.7, 2.2)]

    def fit_decay(self, delays_ns, population):
        return fit_exponential_decay(delays_ns, population)

