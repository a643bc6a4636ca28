"""Tests for the n-qubit density matrix."""

import numpy as np
import pytest

from repro.qubit import CNOT, CZ, DensityMatrix, HADAMARD, PAULI_X, rx, ry


def test_ground_state():
    dm = DensityMatrix.ground(2)
    assert dm.trace() == pytest.approx(1.0)
    assert dm.prob_one(0) == pytest.approx(0.0)
    assert dm.prob_one(1) == pytest.approx(0.0)
    assert dm.purity() == pytest.approx(1.0)


def test_x_on_qubit0_of_two():
    dm = DensityMatrix.ground(2)
    dm.apply_unitary(PAULI_X, (0,))
    assert dm.prob_one(0) == pytest.approx(1.0)
    assert dm.prob_one(1) == pytest.approx(0.0)


def test_x_on_qubit1_of_two():
    dm = DensityMatrix.ground(2)
    dm.apply_unitary(PAULI_X, (1,))
    assert dm.prob_one(0) == pytest.approx(0.0)
    assert dm.prob_one(1) == pytest.approx(1.0)


def test_qubit0_is_least_significant():
    dm = DensityMatrix.ground(2)
    dm.apply_unitary(PAULI_X, (0,))
    # |01> in |q1 q0> order = basis index 1.
    assert dm.data[1, 1] == pytest.approx(1.0)


def test_unitary_embedding_matches_kron():
    rng = np.random.default_rng(2)
    dm = DensityMatrix.ground(3)
    # Random product state first.
    for q in range(3):
        dm.apply_unitary(rx(rng.uniform(0, np.pi)), (q,))
    u = ry(0.7)
    ref = dm.copy()
    dm.apply_unitary(u, (1,))
    # Reference: kron embedding (qubit order q2 q1 q0 in index).
    full = np.kron(np.kron(np.eye(2), u), np.eye(2))
    expected = full @ ref.data @ full.conj().T
    assert np.allclose(dm.data, expected)


def test_two_qubit_unitary_embedding_matches_kron():
    rng = np.random.default_rng(3)
    dm = DensityMatrix.ground(3)
    for q in range(3):
        dm.apply_unitary(rx(rng.uniform(0, np.pi)), (q,))
    ref = dm.copy()
    # CZ on (q2, q0): first listed qubit is MSB of the 4x4 operator.
    dm.apply_unitary(CZ, (2, 0))
    # Build reference with explicit basis mapping.
    full = np.zeros((8, 8), dtype=complex)
    for idx in range(8):
        q2, q0 = (idx >> 2) & 1, idx & 1
        sub = (q2 << 1) | q0
        for jdx in range(8):
            p2, p0 = (jdx >> 2) & 1, jdx & 1
            if (jdx & 0b010) != (idx & 0b010):
                continue
            full[idx, jdx] = CZ[sub, (p2 << 1) | p0]
    expected = full @ ref.data @ full.conj().T
    assert np.allclose(dm.data, expected)


def test_bell_state_via_h_cnot():
    dm = DensityMatrix.ground(2)
    dm.apply_unitary(HADAMARD, (1,))
    dm.apply_unitary(CNOT, (1, 0))  # control q1, target q0
    assert dm.prob_one(0) == pytest.approx(0.5)
    assert dm.prob_one(1) == pytest.approx(0.5)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert dm.fidelity_pure(bell) == pytest.approx(1.0)


def test_projection_collapses_entanglement():
    dm = DensityMatrix.ground(2)
    dm.apply_unitary(HADAMARD, (1,))
    dm.apply_unitary(CNOT, (1, 0))
    p = dm.project(0, 1)
    assert p == pytest.approx(0.5)
    assert dm.prob_one(1) == pytest.approx(1.0)
    assert dm.trace() == pytest.approx(1.0)


def test_project_zero_probability_raises():
    dm = DensityMatrix.ground(1)
    with pytest.raises(ValueError):
        dm.project(0, 1)


def test_sample_measure_statistics():
    rng = np.random.default_rng(7)
    ones = 0
    for _ in range(400):
        dm = DensityMatrix.ground(1)
        dm.apply_unitary(rx(np.pi / 2), (0,))
        ones += dm.sample_measure(0, rng)
    assert 140 < ones < 260  # ~200 expected


def test_sample_measure_collapses():
    rng = np.random.default_rng(8)
    dm = DensityMatrix.ground(1)
    dm.apply_unitary(rx(np.pi / 2), (0,))
    out = dm.sample_measure(0, rng)
    assert dm.prob_one(0) == pytest.approx(float(out))


def test_bloch_vector():
    dm = DensityMatrix.ground(1)
    assert dm.bloch(0) == pytest.approx((0.0, 0.0, 1.0))
    dm.apply_unitary(rx(np.pi / 2), (0,))
    x, y, z = dm.bloch(0)
    assert z == pytest.approx(0.0, abs=1e-12)
    assert abs(y) == pytest.approx(1.0, abs=1e-12)


def test_reduced_of_product_state():
    dm = DensityMatrix.ground(2)
    dm.apply_unitary(PAULI_X, (1,))
    r0 = dm.reduced(0)
    r1 = dm.reduced(1)
    assert np.allclose(r0, [[1, 0], [0, 0]])
    assert np.allclose(r1, [[0, 0], [0, 1]])


def test_from_statevector():
    psi = np.array([1, 1], dtype=complex)
    dm = DensityMatrix.from_statevector(psi)
    assert dm.prob_one(0) == pytest.approx(0.5)
    assert dm.is_physical()


def test_is_physical_flags_bad_trace():
    dm = DensityMatrix.ground(1)
    dm.data = dm.data * 2.0
    assert not dm.is_physical()


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(3))
    dm = DensityMatrix.ground(2)
    with pytest.raises(ValueError):
        dm.apply_unitary(np.eye(2), (0, 1))
    with pytest.raises(ValueError):
        dm.apply_unitary(np.eye(4), (0, 0))
    with pytest.raises(ValueError):
        dm.apply_unitary(np.eye(2), (5,))


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("ops, shape_text", [
    ([], "[]"),
    ([np.eye(4)], "(4, 4)"),
    ([np.eye(2), np.eye(4)], "(2, 2), (4, 4)"),
])
def test_malformed_kraus_ops_rejected(width, ops, shape_text):
    dm = DensityMatrix.ground(width)
    before = dm.data.copy()
    with pytest.raises(ValueError, match=r"\(m, 2, 2\)") as info:
        dm.apply_kraus(ops, 0)
    assert shape_text in str(info.value)
    # The state is left untouched rather than zeroed.
    assert np.array_equal(dm.data, before)
