"""State-vector engine: rotations of the Trotter kernel and the contact
kernel reset_to (measurement, collapse and fermionic flip)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openchain.model import (
    ChainSpec,
    PauliHamiltonian,
    PauliTerm,
    build_chain_hamiltonian,
    fermion_lowering,
)
from openchain.state import RngStream, StateVector, all_densities, init_basis_state, reset_to
from openchain.trotter import apply_step, build_step


def random_state(L, seed):
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << L) + 1j * gen.normal(size=1 << L)
    amps /= np.linalg.norm(amps)
    return init_basis_state(L, ()), amps


def test_init_vacuum():
    s = init_basis_state(2, ())
    assert np.array_equal(s.amps, [1, 0, 0, 0])


def test_init_single_occupation():
    s = init_basis_state(2, (0,))
    assert s.amps[1] == 1.0 and np.sum(np.abs(s.amps)) == 1.0


def test_init_bit_arithmetic():
    s = init_basis_state(3, (0, 2))
    assert s.amps[5] == 1.0


def test_init_rejects_out_of_range():
    with pytest.raises(ValueError):
        init_basis_state(2, (2,))
    with pytest.raises(ValueError):
        init_basis_state(0, ())


def test_rotation_zero_angle_is_identity():
    h = PauliHamiltonian(2, (PauliTerm(0.0, "XX"), PauliTerm(0.0, "YY")))
    s, amps = random_state(2, 3)
    s.amps[:] = amps
    apply_step(s, build_step(h, 1.0))
    assert np.array_equal(s.amps, amps)


def test_x_rotation_half_pi():
    # hop angle pi/2 on the |01>,|10> pair: exp(-i (pi/2) X)|01> = -i|10>
    h = PauliHamiltonian(2, (PauliTerm(0.5, "XX"), PauliTerm(0.5, "YY")))
    s = init_basis_state(2, (0,))
    apply_step(s, build_step(h, np.pi / 2))
    assert np.max(np.abs(s.amps - [0, 0, -1j, 0])) <= 1e-15


def test_z_rotation_preserves_probabilities():
    s = init_basis_state(1, ())
    s.amps[:] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    apply_step(s, build_step(PauliHamiltonian(1, (PauliTerm(1.0, "Z"),)), np.pi / 4))
    assert np.abs(s.amps[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert np.abs(s.amps[1]) ** 2 == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=4),
    gamma=st.floats(min_value=-5, max_value=5),
    v=st.floats(min_value=-10, max_value=10),
    dt=st.floats(min_value=1e-3, max_value=2),
    seed=st.integers(min_value=0, max_value=999),
)
def test_rotation_reversible_and_norm_preserving(L, gamma, v, dt, seed):
    # the inverse of a product formula is the reversed product of the
    # negated rotations
    h = build_chain_hamiltonian(ChainSpec(L=L, gamma=gamma, v=v))
    back = PauliHamiltonian(L, tuple(PauliTerm(-t.coeff, t.letters) for t in reversed(h.terms)))
    s, amps = random_state(L, seed)
    s.amps[:] = amps
    apply_step(s, build_step(h, dt))
    assert s.norm() == pytest.approx(1.0, abs=1e-12)
    apply_step(s, build_step(back, dt))
    assert np.max(np.abs(s.amps - amps)) <= 1e-12


def test_flip_is_involution():
    # after a reset to t, resets to 1 - t and back to t are forced
    # outcomes, i.e. two pure flips, and restore the amplitudes
    s, amps = random_state(3, 7)
    s.amps[:] = amps
    rng = RngStream(0)
    reset_to(s, 1, 0, rng)
    after = s.amps.copy()
    assert reset_to(s, 1, 1, rng).changed and reset_to(s, 1, 0, rng).changed
    assert np.max(np.abs(s.amps - after)) <= 1e-15


def test_flip_swaps_amplitudes():
    s = init_basis_state(1, ())
    assert reset_to(s, 0, 1, RngStream(0)).changed
    assert np.array_equal(s.amps, [0, 1])
    # qubit 0 occupied: the flip of qubit 1 carries the sign -1
    s = init_basis_state(2, (0,))
    reset_to(s, 1, 1, RngStream(0))
    assert np.array_equal(s.amps, [0, 0, 0, -1])


@settings(max_examples=40, deadline=None)
@given(L=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=999))
def test_flip_is_fermionic_c_plus_c_dag(L, seed):
    # reset_to(q, t) with outcome m is (c_q + c_q^dag)^[m != t] P_m psi / |P_m psi|,
    # the flip carrying the Jordan-Wigner string of the qubits below q
    _, amps = random_state(L, seed)
    bits = np.arange(1 << L)
    for q in range(L):
        c = fermion_lowering(q, L)
        for target in (0, 1):
            s = init_basis_state(L, ())
            s.amps[:] = amps
            ev = reset_to(s, q, target, RngStream(seed, q))
            projected = np.where((bits >> q) & 1 == ev.measured, amps, 0.0)
            expected = projected / np.linalg.norm(projected)
            if ev.measured != target:
                expected = (c + c.conj().T) @ expected
            assert ev.changed == (ev.measured != target)
            assert np.max(np.abs(s.amps - expected)) <= 1e-14


def test_measure_deterministic_skips_draw():
    # |00>: measuring q=1 is forced, so the stream must not advance
    s = init_basis_state(2, ())
    rng = RngStream(5)
    assert reset_to(s, 1, 0, rng).measured == 0
    assert np.array_equal(s.amps, init_basis_state(2, ()).amps)
    assert rng.uniform() == RngStream(5).uniform()


def test_measure_born_statistics():
    ones = 0
    n = 10_000
    rng = RngStream(11)
    for _ in range(n):
        s = init_basis_state(1, ())
        s.amps[:] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
        ones += reset_to(s, 0, 0, rng).measured
    assert ones / n == pytest.approx(0.5, abs=0.02)


def test_measure_after_small_x_rotation():
    # exp(-i 0.3 X)|0> has P(1) = sin^2(0.3)
    p_expected = np.sin(0.3) ** 2
    ones = 0
    n = 10_000
    rng = RngStream(13)
    for _ in range(n):
        s = init_basis_state(1, ())
        s.amps[:] = [np.cos(0.3), -1j * np.sin(0.3)]
        ones += reset_to(s, 0, 0, rng).measured
    sigma = np.sqrt(p_expected * (1 - p_expected) / n)
    assert abs(ones / n - p_expected) <= 4 * sigma


def test_measure_collapses_and_renormalizes():
    # a reset to the measured outcome is the bare collapse
    s, amps = random_state(3, 3)
    s.amps[:] = amps
    measured = reset_to(StateVector(3, amps.copy()), 1, 0, RngStream(0)).measured
    ev = reset_to(s, 1, measured, RngStream(0))
    assert (ev.measured, ev.changed) == (measured, False)
    assert s.norm() == pytest.approx(1.0, abs=1e-12)
    assert all_densities(s)[1] == pytest.approx(float(measured), abs=1e-12)


def test_reset_examples():
    rng = RngStream(1)
    s = init_basis_state(1, (0,))
    ev = reset_to(s, 0, 1, rng)
    assert (ev.measured, ev.changed) == (1, False)
    assert s.amps[1] == 1.0

    s = init_basis_state(1, ())
    ev = reset_to(s, 0, 1, rng)
    assert (ev.measured, ev.changed) == (0, True)
    assert s.amps[1] == 1.0

    s = init_basis_state(1, ())
    s.amps[:] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    ev = reset_to(s, 0, 0, rng)
    assert abs(s.amps[0]) == pytest.approx(1.0, abs=1e-12)
    assert ev.changed == (ev.measured == 1)


def test_reset_rejects_bad_target():
    with pytest.raises(ValueError):
        reset_to(init_basis_state(1, ()), 0, 2, RngStream(0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=999),
    q=st.integers(min_value=0, max_value=2),
    target=st.integers(min_value=0, max_value=1),
)
def test_reset_pins_expectation_exactly(seed, q, target):
    s, amps = random_state(3, seed)
    s.amps[:] = amps
    reset_to(s, q, target, RngStream(seed))
    assert all_densities(s)[q] == pytest.approx(float(target), abs=1e-12)
    assert s.norm() == pytest.approx(1.0, abs=1e-10)


def test_expectation_examples():
    assert np.array_equal(all_densities(init_basis_state(2, ())), [0.0, 0.0])
    assert np.array_equal(all_densities(init_basis_state(2, (1,))), [0.0, 1.0])
    s = init_basis_state(1, ())
    s.amps[:] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    assert all_densities(s)[0] == pytest.approx(0.5, abs=1e-15)


def test_all_densities_matches_per_qubit():
    s, amps = random_state(4, 21)
    s.amps[:] = amps
    dens = all_densities(s)
    probs = np.abs(amps) ** 2
    for q in range(4):
        occupied = (np.arange(16) >> q) & 1 == 1
        assert dens[q] == pytest.approx(probs[occupied].sum(), abs=1e-14)


def test_rng_stream_reproducible_and_distinct():
    a_stream = RngStream(42, 3)
    b_stream = RngStream(42, 3)
    a = [a_stream.uniform() for _ in range(5)]
    assert a == [b_stream.uniform() for _ in range(5)]
    assert len(set(a)) == 5
    assert RngStream(42, 0).uniform() != RngStream(42, 1).uniform()
