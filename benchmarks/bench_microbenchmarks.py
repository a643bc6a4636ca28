"""Micro-benchmarks of the hot primitives.

Not a paper artifact — these track the simulator's own performance so the
full-size AllXY (N = 25600) stays tractable, and quantify the per-round
cost model documented in DESIGN.md.
"""

import numpy as np

from repro.core import MachineConfig, QuMA
from repro.isa import assemble
from repro.isa.encoding import encode_program
from repro.pulse import build_single_qubit_lut
from repro.qubit import (DensityMatrix, QuantumDevice, TransmonParams,
                         decoherence_kraus, integrate_envelope, rx)
from repro.readout import ReadoutParams, calibrate_readout
from repro.readout.resonator import transmitted_trace
from repro.readout.weights import integrate
from repro.utils.rng import derive_rng

LUT = build_single_qubit_lut()
X180 = LUT.lookup(1)


def test_perf_integrate_envelope(benchmark):
    """Before/after note: the per-sample Python loop over su2_rotation
    cost ~325 us for the 20-sample X180 envelope on the dev container;
    the vectorized build + log-depth pairwise matmul reduction costs
    ~100 us (the remaining floor is numpy call overhead on 2x2 stacks).
    Per-sample matrices are bit-identical to the loop version; only the
    product's reassociation differs (~1e-16)."""
    u = benchmark(integrate_envelope, X180.samples, 0.33)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)


def test_perf_single_qubit_kraus(benchmark):
    dm = DensityMatrix.ground(1)
    dm.apply_unitary(rx(1.0), (0,))
    ops = decoherence_kraus(200_000.0, 18_000.0, 12_000.0)
    benchmark(dm.apply_kraus, list(ops), 0)
    assert dm.is_physical()


def test_perf_four_qubit_idle(benchmark):
    """Before/after note: one 200 ns idle on a 4-qubit register (four
    apply_kraus calls) cost ~890 us with the per-op tensordot/moveaxis
    loop on a 2-core container; folding the Kraus ops into a 4x4
    superoperator applied with one matmul on the target axes costs
    ~57 us (~14 us per call, of which ~5 us is the einsum building the
    superoperator).  The fold reassociates the Kraus sum: entries differ
    from the loop by <= 6e-17 per idle."""
    device = QuantumDevice([TransmonParams() for _ in range(4)])
    dm = DensityMatrix.ground(4)
    for q in range(4):
        dm.apply_unitary(rx(0.4 + q), (q,))
    benchmark(device.apply_idle, dm, 200)
    assert dm.is_physical()


def test_perf_three_qubit_unitary(benchmark):
    dm = DensityMatrix.ground(3)
    u = rx(0.7)
    benchmark(dm.apply_unitary, u, (1,))
    assert abs(dm.trace() - 1.0) < 1e-9


def test_perf_readout_trace_and_integration(benchmark):
    params = ReadoutParams()
    cal = calibrate_readout(params, 1500, n_shots=10, seed=0)
    rng = derive_rng(0, "perf")

    def one_shot():
        trace = transmitted_trace(params, 1, 1500, 0, rng)
        return integrate(trace, cal.weights)

    s = benchmark(one_shot)
    assert s > cal.threshold


def test_perf_assemble_allxy_round(benchmark):
    source = "\n".join([
        "QNopReg r15",
        "Pulse {q2}, X180",
        "Wait 4",
        "Pulse {q2}, X180",
        "Wait 4",
        "MPG {q2}, 300",
        "MD {q2}",
    ] * 10 + ["halt"])
    program = benchmark(assemble, source)
    assert len(program) == 71


def test_perf_encode_program(benchmark):
    program = assemble("\n".join(["Wait 4", "Pulse {q2}, X90"] * 50 + ["halt"]))
    words = benchmark(encode_program, program)
    assert len(words) == 101


def test_perf_machine_round(benchmark):
    """One full AllXY-style round through the machine (the unit the
    experiment wall-clock scales with)."""
    source = """
        mov r15, 400
        QNopReg r15
        Pulse {q2}, X180
        Wait 4
        Pulse {q2}, X180
        Wait 4
        MPG {q2}, 300
        MD {q2}
        halt
    """

    def one_round():
        machine = QuMA(MachineConfig(qubits=(2,), trace_enabled=False))
        machine.load(source)
        return machine.run()

    result = benchmark.pedantic(one_round, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert result.completed
