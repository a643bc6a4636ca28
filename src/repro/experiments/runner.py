"""Common experiment runner: compiled program -> machine -> averages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.codegen import CompiledProgram
from repro.core.config import MachineConfig
from repro.core.quma import QuMA, RunResult, check_run_result
from repro.utils.errors import ReproError


@dataclass
class ExperimentRun:
    """Everything an experiment needs back from the machine.

    ``machine`` may be None when the run came through the orchestration
    service (pooled machines never leave the pool; a worker process's
    machines never leave the worker) — the calibration points needed for
    rescaling travel as the ``s_ground``/``s_excited`` scalars instead.
    """

    machine: QuMA | None
    result: RunResult
    averages: np.ndarray  #: data collection unit output, length K
    s_ground: float | None = None
    s_excited: float | None = None

    @property
    def normalized(self) -> np.ndarray:
        """Averages rescaled by the machine's readout calibration points."""
        s0, s1 = self.s_ground, self.s_excited
        if s0 is None or s1 is None:
            cal = self.machine.readout_calibration
            s0, s1 = cal.s_ground, cal.s_excited
        return (self.averages - s0) / (s1 - s0)


def run_compiled(compiled: CompiledProgram, config: MachineConfig,
                 machine: QuMA | None = None) -> ExperimentRun:
    """Run a compiled program and collect the averaged statistics.

    ``config.dcu_points`` is overridden with the program's K.  A
    pre-built ``machine`` can be supplied (e.g. with custom LUT content);
    it must have been constructed with matching ``dcu_points``.
    """
    if machine is None:
        config.dcu_points = compiled.k_points
        machine = QuMA(config)
    elif machine.config.dcu_points != compiled.k_points:
        raise ReproError(
            f"machine K={machine.config.dcu_points} but program K={compiled.k_points}")
    machine.load(compiled.asm)
    result = machine.run()
    check_run_result(result)
    return ExperimentRun(machine=machine, result=result, averages=result.averages)
