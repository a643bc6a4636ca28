"""Property-based tests for the quantum-state substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.qubit import DensityMatrix, decoherence_kraus, su2_rotation
from repro.qubit.noise import (amplitude_damping_kraus, decoherence_superop,
                               phase_damping_kraus)

angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                   allow_nan=False, allow_infinity=False)
axes = st.tuples(
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
).filter(lambda n: n[0] ** 2 + n[1] ** 2 + n[2] ** 2 > 1e-6)


@settings(max_examples=60, deadline=None)
@given(axis=axes, theta=angles)
def test_su2_rotation_is_unitary(axis, theta):
    u = su2_rotation(*axis, theta)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)
    assert abs(np.linalg.det(u)) - 1 < 1e-10


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(axes, angles), min_size=1, max_size=10))
def test_unitary_sequences_preserve_physicality(ops):
    dm = DensityMatrix.ground(1)
    for axis, theta in ops:
        dm.apply_unitary(su2_rotation(*axis, theta), (0,))
    assert dm.is_physical()
    assert 0.0 <= dm.prob_one(0) <= 1.0
    assert abs(dm.purity() - 1.0) < 1e-8  # unitaries keep the state pure


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
            axes,
            angles,
        ),
        min_size=1, max_size=8),
    t1=st.floats(min_value=1000.0, max_value=50000.0, allow_nan=False),
)
def test_noisy_evolution_stays_physical(steps, t1):
    t2 = 1.2 * t1  # valid: T2 <= 2*T1
    dm = DensityMatrix.ground(1)
    for dt, axis, theta in steps:
        dm.apply_unitary(su2_rotation(*axis, theta), (0,))
        dm.apply_kraus(decoherence_kraus(dt, t1, t2), 0)
    assert dm.is_physical()
    assert dm.purity() <= 1.0 + 1e-9
    assert abs(dm.trace() - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(min_value=0, max_value=1, allow_nan=False),
       lam=st.floats(min_value=0, max_value=1, allow_nan=False))
def test_channel_completeness_property(gamma, lam):
    for ops in (amplitude_damping_kraus(gamma), phase_damping_kraus(lam)):
        total = sum(k.conj().T @ k for k in ops)
        assert np.allclose(total, np.eye(2), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(dt=st.floats(min_value=0, max_value=100000, allow_nan=False),
       t1=st.floats(min_value=100, max_value=100000, allow_nan=False),
       ratio=st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
def test_decoherence_kraus_complete_for_valid_params(dt, t1, ratio):
    t2 = ratio * t1
    ops = decoherence_kraus(dt, t1, t2)
    total = sum(k.conj().T @ k for k in ops)
    assert np.allclose(total, np.eye(2), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(theta=angles, dt=st.floats(min_value=0, max_value=20000,
                                  allow_nan=False))
def test_population_decays_toward_ground(theta, dt):
    """After any preparation, T1 decay never increases P(|1>)."""
    dm = DensityMatrix.ground(1)
    dm.apply_unitary(su2_rotation(1, 0, 0, theta), (0,))
    before = dm.prob_one(0)
    dm.apply_kraus(decoherence_kraus(dt, 10000.0, 10000.0), 0)
    assert dm.prob_one(0) <= before + 1e-12


@settings(max_examples=30, deadline=None)
@given(theta=angles)
def test_projection_probabilities_consistent(theta):
    dm = DensityMatrix.ground(1)
    dm.apply_unitary(su2_rotation(0, 1, 0, theta), (0,))
    p1 = dm.prob_one(0)
    if p1 > 1e-9:
        clone = dm.copy()
        p = clone.project(0, 1)
        assert abs(p - p1) < 1e-9
        assert clone.prob_one(0) > 1.0 - 1e-9
    if 1.0 - p1 > 1e-9:
        clone = dm.copy()
        p = clone.project(0, 0)
        assert abs(p - (1.0 - p1)) < 1e-9
        assert clone.prob_one(0) < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    moves=st.data(),
)
def test_multiqubit_operations_preserve_trace(n, moves):
    dm = DensityMatrix.ground(n)
    for _ in range(4):
        q = moves.draw(st.integers(min_value=0, max_value=n - 1))
        theta = moves.draw(angles)
        dm.apply_unitary(su2_rotation(0, 1, 0, theta), (q,))
        dt = moves.draw(st.floats(min_value=0, max_value=1000,
                                  allow_nan=False))
        dm.apply_kraus(decoherence_kraus(dt, 5000.0, 5000.0), q)
    assert abs(dm.trace() - 1.0) < 1e-9
    assert dm.is_physical()


# -- apply_kraus against the per-op tensordot reference ---------------------

def reference_kraus(data, n, kraus_ops, qubit):
    """rho <- sum_k K rho K+ as one tensordot/moveaxis pass per Kraus op."""
    ket = n - 1 - qubit
    bra = n + ket
    tensor = data.reshape((2,) * (2 * n))
    total = np.zeros_like(tensor)
    for kop in kraus_ops:
        term = np.tensordot(kop, tensor, axes=([1], [ket]))
        term = np.moveaxis(term, 0, ket)
        term = np.tensordot(kop.conj(), term, axes=([1], [bra]))
        total += np.moveaxis(term, 0, bra)
    return total.reshape(data.shape)


def random_density(n, rng):
    """Random Hermitian PSD unit-trace 2^n x 2^n matrix."""
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def isometry_kraus(m, rng):
    """m Kraus ops cut from a random (2m x 2) isometry: sum_k K+K = I."""
    z = rng.normal(size=(2 * m, 2)) + 1j * rng.normal(size=(2 * m, 2))
    v, _ = np.linalg.qr(z)
    return [v[2 * k:2 * k + 2] for k in range(m)]


idle_params = st.tuples(
    st.floats(min_value=0, max_value=50000, allow_nan=False),
    st.floats(min_value=100, max_value=100000, allow_nan=False),
    st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), data=st.data(),
       seed=st.integers(min_value=0, max_value=2**32 - 1), idle=idle_params,
       generic=st.booleans())
def test_apply_kraus_matches_tensordot_reference(n, data, seed, idle, generic):
    rng = np.random.default_rng(seed)
    qubit = data.draw(st.integers(min_value=0, max_value=n - 1))
    if generic:
        ops = isometry_kraus(data.draw(st.integers(1, 4)), rng)
    else:
        dt, t1, ratio = idle
        ops = decoherence_kraus(dt, t1, ratio * t1)
    rho = random_density(n, rng)
    dm = DensityMatrix(n, rho.copy())
    dm.apply_kraus(ops, qubit)
    assert np.abs(dm.data - reference_kraus(rho, n, ops, qubit)).max() <= 1e-14


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), idle=idle_params)
def test_idle_channel_keeps_basis_states_diagonal(n, idle):
    """Replay's basis-state collapse check needs exact zero coherences."""
    dt, t1, ratio = idle
    ops = decoherence_kraus(dt, t1, ratio * t1)
    dim = 1 << n
    off_diagonal = ~np.eye(dim, dtype=bool)
    for i in range(dim):
        for qubit in range(n):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[i, i] = 1.0
            dm = DensityMatrix(n, basis)
            dm.apply_kraus(ops, qubit)
            assert np.count_nonzero(dm.data[off_diagonal]) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), idle=idle_params)
def test_one_qubit_kraus_matches_superop(seed, idle):
    dt, t1, ratio = idle
    rho = random_density(1, np.random.default_rng(seed))
    via_kraus = DensityMatrix(1, rho.copy())
    via_kraus.apply_kraus(decoherence_kraus(dt, t1, ratio * t1), 0)
    via_superop = DensityMatrix(1, rho.copy())
    via_superop.apply_superop(decoherence_superop(dt, t1, ratio * t1))
    assert np.abs(via_kraus.data - via_superop.data).max() <= 1e-15
