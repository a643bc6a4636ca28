"""Baseline architecture models for the Section 6 comparison.

The Raytheon BBN APS2 system (references [58, 59]) is closed hardware; we
model the *architectural* properties the paper compares on: distributed
binaries, full-waveform memory, idle-waveform timing, and TDM-based
synchronization — against QuMA's single binary, codeword LUT, and
label-based timing.
"""

from repro.baseline.spec import ExperimentSpec, allxy_spec, synthetic_spec
from repro.baseline.aps2 import APS2Config, APS2System
from repro.baseline.tdm import TriggerDistributionModule
from repro.baseline.waveform_sequencer import WaveformSequencer, SequencerRunResult
from repro.baseline.comparison import (
    ArchitectureComparison,
    codeword_memory_bytes,
    compare_architectures,
    issue_rate_table,
    IssueRateRow,
    reconfiguration_cost,
    upload_seconds,
    waveform_memory_bytes,
)

__all__ = [
    "ExperimentSpec",
    "allxy_spec",
    "synthetic_spec",
    "APS2Config",
    "APS2System",
    "TriggerDistributionModule",
    "WaveformSequencer",
    "SequencerRunResult",
    "ArchitectureComparison",
    "codeword_memory_bytes",
    "compare_architectures",
    "issue_rate_table",
    "IssueRateRow",
    "reconfiguration_cost",
    "upload_seconds",
    "waveform_memory_bytes",
]
