"""Tests for the APS2 baseline and Section 5.1.1/6 comparison models."""

import pytest

from repro.baseline import (
    APS2Config,
    APS2System,
    TriggerDistributionModule,
    allxy_spec,
    codeword_memory_bytes,
    compare_architectures,
    issue_rate_table,
    reconfiguration_cost,
    synthetic_spec,
    upload_seconds,
    waveform_memory_bytes,
)
from repro.baseline.comparison import max_qubits_single_stream
from repro.utils.errors import ConfigurationError


def test_allxy_spec_shape():
    spec = allxy_spec()
    assert len(spec.sequences) == 21
    assert spec.total_operation_slots() == 42
    assert len(spec.unique_operations()) == 5  # I, X180, Y180, X90, Y90 in pairs


def test_paper_memory_numbers():
    """Section 5.1.1: 420 bytes (LUT) vs 2520 bytes (waveform method).

    The paper counts 7 stored pulses (the full Table 1 set, including
    mX90/mY90 that AllXY itself never plays); we reproduce both numbers.
    """
    spec = allxy_spec()
    assert waveform_memory_bytes(spec) == 2520.0
    # The AllXY pairs themselves only draw on 5 primitives.
    assert codeword_memory_bytes(spec) == 300.0
    # With the full Table 1 pulse set uploaded (7 pulses), 420 bytes.
    full_lut = synthetic_spec(n_combinations=1, ops_per_combination=7,
                              n_primitives=7)
    assert codeword_memory_bytes(full_lut) == 420.0


def test_codeword_memory_independent_of_combinations():
    small = synthetic_spec(n_combinations=10, ops_per_combination=2)
    large = synthetic_spec(n_combinations=1000, ops_per_combination=2)
    assert codeword_memory_bytes(small) == codeword_memory_bytes(large)
    assert waveform_memory_bytes(large) == 100 * waveform_memory_bytes(small)


def test_aps2_binaries_count():
    system = APS2System(APS2Config(n_modules=9))
    compiled = system.compile_experiment(allxy_spec())
    assert compiled.n_binaries == 2  # 1 module (1 qubit) + TDM


def test_aps2_multi_qubit_binaries():
    system = APS2System(APS2Config(n_modules=9))
    spec = synthetic_spec(5, 4, n_qubits=8)
    compiled = system.compile_experiment(spec)
    assert compiled.n_binaries == 9


def test_aps2_capacity_limit():
    system = APS2System(APS2Config(n_modules=9))
    spec = synthetic_spec(5, 4, n_qubits=10)
    with pytest.raises(ConfigurationError):
        system.compile_experiment(spec)


def test_aps2_waveform_memory_matches_method():
    system = APS2System()
    assert system.waveform_bytes(allxy_spec()) == 2520.0


def test_tdm_sync_stalls():
    tdm = TriggerDistributionModule(n_modules=4, sync_latency_ns=100)
    assert tdm.total_stall_ns(10) == 1000
    assert tdm.interconnect_links() == 4
    with pytest.raises(ConfigurationError):
        tdm.total_stall_ns(-1)


def test_sync_stalls_in_compiled_experiment():
    system = APS2System(APS2Config(sync_latency_ns=50))
    spec = synthetic_spec(10, 4, n_qubits=2, sync_points=3)
    compiled = system.compile_experiment(spec)
    assert compiled.sync_stall_ns == 10 * 3 * 50


def test_comparison_rows():
    cmp = compare_architectures(allxy_spec())
    assert cmp.quma_binaries == 1
    assert cmp.aps2_binaries == 2
    assert cmp.memory_ratio == pytest.approx(2520.0 / 300.0)
    assert cmp.quma_sync_stall_ns == 0
    assert cmp.quma_upload_s < cmp.aps2_upload_s
    slow = compare_architectures(allxy_spec(), bandwidth_bytes_per_s=1e6)
    fast = compare_architectures(allxy_spec(), bandwidth_bytes_per_s=4e6)
    assert slow.aps2_upload_s == pytest.approx(4 * fast.aps2_upload_s)


def test_reconfiguration_cost_asymmetry():
    """Recalibrating one pulse: QuMA re-uploads one LUT entry; APS2
    re-uploads every waveform containing the op."""
    spec = allxy_spec()
    cost = reconfiguration_cost(spec, "X180")
    assert cost["quma_bytes"] == 60.0  # one 20 ns pulse
    assert cost["aps2_bytes"] > 10 * cost["quma_bytes"]


def test_reconfiguration_unknown_op_is_free_for_quma():
    cost = reconfiguration_cost(allxy_spec(), "NOSUCH")
    assert cost["quma_bytes"] == 0.0
    assert cost["aps2_bytes"] == 0.0


def test_upload_seconds():
    assert upload_seconds(3e6, 3e6) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        upload_seconds(100, 0)


def test_issue_rate_table_saturation():
    rows = issue_rate_table([1, 10, 100, 1000], op_rate_per_qubit_hz=1e6,
                            instructions_per_op=2.0, core_clock_hz=200e6,
                            issue_widths=(1,))
    saturated = {r.n_qubits: r.saturated for r in rows}
    assert not saturated[1]
    assert not saturated[100]
    assert saturated[1000]


def test_vliw_relaxes_issue_rate():
    w1 = max_qubits_single_stream(issue_width=1)
    w4 = max_qubits_single_stream(issue_width=4)
    assert w1 == 100
    assert w4 == 400


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        synthetic_spec(0, 2)
    with pytest.raises(ConfigurationError):
        synthetic_spec(2, 2, n_primitives=0)
