"""Experiment library: the paper's Section 8 validation suite.

AllXY (Figure 9), Rabi amplitude calibration, T1 / T2 Ramsey / T2 Echo
coherence measurements, and single-qubit randomized benchmarking — all
executed through the full QuMA stack, from OpenQL-like programs down to
simulated pulses — plus the entangling register family (CZ
conditional-oscillation calibration, Bell parity/correlation, GHZ
ladders) riding the flux/CZ path with correlated multiplexed readout.

Experiments are declarative: each is an
:class:`~repro.experiments.base.Experiment` subclass registered by name
in :data:`~repro.experiments.base.REGISTRY` and run through
:class:`repro.session.Session`.  Experiments address *target registers*
(tuples of qubits): ``session.run("rabi", qubits=(0, 1))`` fans out two
single-qubit targets, ``session.run("bell", targets=((0, 1),))`` runs
one two-qubit register.
"""

from repro.experiments.base import (
    REGISTRY,
    Estimate,
    Experiment,
    ExperimentRegistry,
    ExperimentState,
    register_experiment,
)
from repro.experiments.allxy import (
    ALLXY_PAIRS,
    AllXYExperiment,
    AllXYResult,
    allxy_ideal_staircase,
    allxy_job,
    allxy_labels,
    build_allxy_program,
)
from repro.experiments.runner import run_compiled, ExperimentRun
from repro.experiments.analysis import (
    fit_exponential_decay,
    fit_damped_cosine,
    fit_rb_decay,
)
from repro.experiments.coherence import (
    CoherenceResult,
    EchoExperiment,
    RamseyExperiment,
    T1Experiment,
    coherence_job,
)
from repro.experiments.rabi import RabiExperiment, rabi_job, RabiResult
from repro.experiments.cliffords import CliffordGroup
from repro.experiments.rb import RBExperiment, rb_sequence_job, RBResult
from repro.experiments.entangling import (
    BellExperiment,
    BellResult,
    CZCalibrationExperiment,
    CZCalibrationResult,
    GHZExperiment,
    GHZResult,
    ghz_width_config,
)
# Imported last: the mitigated wrapper composes over the registry the
# imports above populate.
from repro.mitigation.experiment import MitigatedExperiment

__all__ = [
    "ALLXY_PAIRS",
    "AllXYExperiment",
    "AllXYResult",
    "allxy_ideal_staircase",
    "allxy_job",
    "allxy_labels",
    "build_allxy_program",
    "run_compiled",
    "ExperimentRun",
    "Estimate",
    "Experiment",
    "ExperimentRegistry",
    "ExperimentState",
    "REGISTRY",
    "register_experiment",
    "fit_exponential_decay",
    "fit_damped_cosine",
    "fit_rb_decay",
    "CoherenceResult",
    "EchoExperiment",
    "RamseyExperiment",
    "T1Experiment",
    "coherence_job",
    "RabiExperiment",
    "rabi_job",
    "RabiResult",
    "CliffordGroup",
    "RBExperiment",
    "rb_sequence_job",
    "RBResult",
    "BellExperiment",
    "BellResult",
    "CZCalibrationExperiment",
    "CZCalibrationResult",
    "GHZExperiment",
    "GHZResult",
    "ghz_width_config",
    "MitigatedExperiment",
]
