"""Trotter step construction and application, against the chain's Pauli
strings and their dense propagator.  `apply_step` runs in a diagonal
gauge frame (`pauli.gauge`), so amplitudes are compared in it."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openchain import trotter
from openchain.model import ChainSpec, build_chain_hamiltonian, fock_matrix_oracle
from openchain.state import init_basis_state
from openchain.trotter import WINDOW, Block, _phase_vector, apply_step, build_step
from pauli import chain_matrix, chain_terms, gauge, phase_vector, propagator, rotations


def evolve(state, plan, n):
    for _ in range(n):
        apply_step(state, plan)
    return state


def reference_apply_step(amps, spec, dt, symmetric=False):
    """The unfused sweep: exp(-i theta P) for every Pauli term of the
    chain in term order, theta = coeff * dt; for a symmetric step the
    terms at dt/4 and then the reversed terms at dt/4.  P|k> = i^nY
    (-1)^popcount(k & zy) |k ^ flip>, with flip the X/Y bits and zy the
    Z/Y bits."""
    k = np.arange(amps.shape[-1])
    terms = chain_terms(spec)
    terms, tau = (terms + terms[::-1], dt / 4) if symmetric else (terms, dt)
    for coeff, letters in terms:
        flip = sum(1 << q for q, c in enumerate(letters) if c in "XY")
        zy = sum(1 << q for q, c in enumerate(letters) if c in "ZY")
        phase = 1j ** letters.count("Y") * np.where(np.bitwise_count(k & zy) & 1, -1, 1)
        src = k ^ flip
        theta = coeff * tau
        amps[...] = math.cos(theta) * amps - 1j * math.sin(theta) * (phase[src] * amps[..., src])


def chain_blocks(L, symmetric=False):
    plan = build_step(build_chain_hamiltonian(ChainSpec(L=L, gamma=1.0, v=2.0)), 0.1, symmetric)
    return [(g.lo, len(g.m)) if isinstance(g, Block) else g.shape for g in plan.gates]


def test_build_step_two_site_chain():
    # XX and YY on one bond fuse into one gate; equal angles cancel on |00>,|11>
    h = build_chain_hamiltonian(ChainSpec(L=2, gamma=1.0, v=0.0))
    (block,) = build_step(h, 0.5).gates
    c, s = math.cos(0.5), -1j * math.sin(0.5)
    assert block.lo == 0
    assert np.array_equal(block.m, [[1, 0, 0, 0], [0, c, s, 0], [0, s, c, 0], [0, 0, 0, 1]])


def test_build_step_fuses_chain_into_windows_then_one_phase_vector():
    # bond q joins the block of slot q // (WINDOW - 1); up to WINDOW qubits
    # the whole step, phase vector and both sweeps included, is one block
    assert WINDOW == 5
    assert chain_blocks(10) == [(0, 32), (4, 32), (8, 4), (1024,)]
    assert chain_blocks(10, symmetric=True) == [
        (0, 32), (4, 32), (8, 4), (1024,), (8, 4), (4, 32), (0, 32)]
    assert chain_blocks(8) == [(0, 32), (4, 16), (256,)]
    for L in (2, 5):
        assert chain_blocks(L) == chain_blocks(L, symmetric=True) == [(0, 1 << L)]


@pytest.mark.parametrize("symmetric", [False, True], ids=["first-order", "symmetric"])
@pytest.mark.parametrize("L", [2, 3, 5, 6, 8, 13])
def test_blocks_are_unitary_and_conserve_particle_number(L, symmetric):
    plan = build_step(build_chain_hamiltonian(ChainSpec(L=L, gamma=3.0, v=10.0)), 0.37, symmetric)
    blocks = [g for g in plan.gates if isinstance(g, Block)]
    assert blocks
    for b in blocks:
        n = len(b.m)
        assert b.m.shape == (n, n) and n <= 1 << WINDOW and b.lo + n.bit_length() - 1 <= L
        assert np.max(np.abs(b.m @ b.m.conj().T - np.eye(n))) <= 1e-14
        N = np.bitwise_count(np.arange(n))
        assert np.all(b.m[N[:, None] != N] == 0)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("symmetric", [False, True], ids=["first-order", "symmetric"])
@pytest.mark.parametrize("L", [2, 3, 5, 6, 8, 13])
def test_apply_step_maps_the_gauged_state_to_the_gauged_step(L, symmetric, rows):
    # apply_step(conj(D) a) = conj(D) U a, with U the physical step
    spec = ChainSpec(L=L, gamma=3.0, v=10.0)
    plan = build_step(build_chain_hamiltonian(spec), 0.37, symmetric)
    gen = np.random.default_rng(L)
    shape = (1 << L,) if rows == 1 else (rows, 1 << L)
    amps = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    expected = amps.copy()
    reference_apply_step(expected, spec, 0.37, symmetric)
    expected *= gauge(L).conj()
    amps *= gauge(L).conj()
    apply_step(amps, plan)
    assert np.max(np.abs(amps - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("symmetric", [False, True], ids=["first-order", "symmetric"])
def test_blocks_above_qubit_zero_are_real(symmetric):
    # the frame is the identity up to WINDOW qubits, where the step is one
    # complex block; above that every block at lo > 0 is float64
    for L in range(2, 17):
        plan = build_step(build_chain_hamiltonian(ChainSpec(L=L, gamma=3.0, v=10.0)), 0.37, symmetric)
        blocks = [g for g in plan.gates if isinstance(g, Block)]
        assert blocks
        for b in blocks:
            assert b.m.dtype == (np.float64 if b.lo > 0 else np.complex128)
        assert any(b.lo > 0 for b in blocks) == (L > WINDOW)
        if L <= WINDOW:
            assert np.all(gauge(L) == 1)


@pytest.mark.parametrize("dtype", [np.float64, np.complex64])
def test_apply_step_rejects_other_dtypes(dtype):
    # a float64 view of other bytes would be silently wrong
    plan = build_step(build_chain_hamiltonian(ChainSpec(L=6, gamma=1.0, v=1.0)), 0.1)
    for shape in ((64,), (2, 64)):
        with pytest.raises(ValueError, match="complex128"):
            apply_step(np.zeros(shape, dtype=dtype), plan)


def test_phase_vector_matches_complex_exponential():
    # the interaction's diagonal at v = 1 counts the adjacent occupied
    # pairs of each basis state, so phi is the same product on both sides
    # and only cos / -sin against exp(-i phi) is compared
    for L in range(1, 10):
        pairs = np.diag(fock_matrix_oracle(ChainSpec(L, 0.0, 1.0))).real
        for theta in (1.25, -0.37, 2.9e3):
            phases = _phase_vector(theta, L)
            assert phases.dtype == np.complex128
            assert np.max(np.abs(phases - np.exp(-1j * theta * pairs))) <= 4e-16


@pytest.mark.parametrize("theta", [0.0, 1e-3, -0.37, 1.25, 5.0, 2.9e3])
def test_phase_vector_is_the_per_amplitude_reference_bit_for_bit(theta):
    # cos and -sin at the L products theta * n, gathered by pair count,
    # are the same float64 values as at every amplitude
    for L in [*range(1, 17), 20]:
        phases = _phase_vector(theta, L)
        assert phases.dtype == np.complex128
        assert np.array_equal(phases.view(np.uint64), phase_vector(theta, L).view(np.uint64))


@pytest.mark.parametrize("symmetric", [False, True], ids=["first-order", "symmetric"])
def test_plans_are_unchanged_with_the_per_amplitude_phase_vector(symmetric, monkeypatch):
    # every gate, the small-window blocks whose diagonal goes through
    # _phase_vector included, equal to the plan built from the reference
    cases = [(L, gamma, v, dt) for L in range(1, 17) for gamma in (0.0, 3.0)
             for v in (0.0, 10.0, -7.5) for dt in (0.05, 0.5)]
    plans = [build_step(build_chain_hamiltonian(ChainSpec(*case[:3])), case[3], symmetric)
             for case in cases]
    monkeypatch.setattr(trotter, "_phase_vector", phase_vector)
    for case, plan in zip(cases, plans):
        ref = build_step(build_chain_hamiltonian(ChainSpec(*case[:3])), case[3], symmetric)
        assert len(plan.gates) == len(ref.gates), case
        for g, r in zip(plan.gates, ref.gates):
            assert type(g) is type(r), case
            if isinstance(g, Block):
                assert g.lo == r.lo and g.m.dtype == r.m.dtype, case
                g, r = g.m, r.m
            assert np.array_equal(g, r), case


@pytest.mark.parametrize("symmetric", [False, True], ids=["first-order", "symmetric"])
def test_negated_interaction_is_the_conjugate_step_in_a_staggered_gauge(symmetric):
    # U = prod of Z on the odd qubits negates every hopping term and keeps
    # the diagonal, so the step at -v is U conj(step at v) U.  Densities
    # read |a|^2 and the contacts are real and commute with U up to a
    # sign, so from a basis state a flipped sign of v cannot show in any
    # density, at any L
    L = 8
    k = np.arange(1 << L)
    u = np.where(np.bitwise_count(k & 0b10101010) & 1, -1.0, 1.0)

    def step(v):
        m = np.eye(1 << L, dtype=complex)
        apply_step(m, build_step(build_chain_hamiltonian(ChainSpec(L, 3.0, v)), 0.37, symmetric))
        return gauge(L)[:, None] * m.T * gauge(L).conj()

    assert np.max(np.abs(step(-10.0) - u[:, None] * step(10.0).conj() * u)) <= 1e-12


def test_build_step_rejects_bad_dt():
    h = build_chain_hamiltonian(ChainSpec(L=2, gamma=1.0))
    for dt in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            build_step(h, dt)


def test_empty_plan_is_identity():
    # no couplings, or no bond to carry them
    for spec in (ChainSpec(L=2, gamma=0.0), ChainSpec(L=1, gamma=5.0, v=7.0)):
        for symmetric in (False, True):
            plan = build_step(build_chain_hamiltonian(spec), 0.3, symmetric)
            assert plan.gates == ()
            s = init_basis_state(spec.L, (0,))
            before = s.copy()
            apply_step(s, plan)
            assert np.array_equal(s, before)


def test_apply_step_rejects_size_mismatch():
    plan = build_step(build_chain_hamiltonian(ChainSpec(L=3, gamma=1.0)), 0.1)
    with pytest.raises(ValueError):
        apply_step(init_basis_state(2, ()), plan)


def test_apply_step_rejects_non_contiguous_input():
    # a reshape would copy such an array, and the update would be lost
    plan = build_step(build_chain_hamiltonian(ChainSpec(L=3, gamma=1.0)), 0.1)
    big = np.tile(init_basis_state(3, (0,)), (4, 1))
    for amps in (big[::2], np.asfortranarray(big)):
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_step(amps, plan)


@settings(max_examples=80, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=12),
    rows=st.sampled_from([1, 3]),
    symmetric=st.booleans(),
    gamma=st.floats(min_value=-5, max_value=5),
    v=st.floats(min_value=-10, max_value=10),
    seed=st.integers(min_value=0, max_value=999),
)
@example(L=16, rows=1, symmetric=True, gamma=3.0, v=10.0, seed=0)
@example(L=16, rows=1, symmetric=False, gamma=5.0, v=10.0, seed=1)
@example(L=7, rows=3, symmetric=True, gamma=0.0, v=-4.0, seed=2)
@example(L=9, rows=3, symmetric=False, gamma=2.0, v=0.0, seed=3)
@example(L=1, rows=3, symmetric=True, gamma=2.0, v=6.0, seed=4)
def test_apply_step_agrees_with_the_term_by_term_sweep(L, rows, symmetric, gamma, v, seed):
    # the examples include phases only (gamma = 0), bond blocks only
    # (v = 0) and an empty plan (L = 1)
    spec = ChainSpec(L=L, gamma=gamma, v=v)
    plan = build_step(build_chain_hamiltonian(spec), 0.37, symmetric=symmetric)
    gen = np.random.default_rng(seed)
    shape = (1 << L,) if rows == 1 else (rows, 1 << L)
    amps = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    expected = amps.copy()
    reference_apply_step(expected, spec, 0.37, symmetric)
    # into the gauge frame and back; multiplying by powers of i is exact
    d = gauge(L)
    amps *= d.conj()
    apply_step(amps, plan)
    amps *= d
    assert np.max(np.abs(amps - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_single_term_plan_is_exact():
    # one bond: its XX and YY terms commute, so the plan is exact
    spec = ChainSpec(L=2, gamma=1.6)
    plan = build_step(build_chain_hamiltonian(spec), 0.1)
    s = init_basis_state(2, (0,))
    evolve(s, plan, 7)
    exact = propagator(chain_matrix(spec), 0.7) @ init_basis_state(2, (0,))
    assert np.max(np.abs(s - exact)) <= 1e-10


def test_commuting_terms_are_exact_including_phase():
    # all-Z interaction strings commute, so (delta U)^N is exact
    spec = ChainSpec(L=3, gamma=0.0, v=7.0)
    plan = build_step(build_chain_hamiltonian(spec), 0.25)
    gen = np.random.default_rng(4)
    amps = gen.normal(size=8) + 1j * gen.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = init_basis_state(3, ())
    s[:] = amps
    evolve(s, plan, 8)
    exact = propagator(chain_matrix(spec), 2.0) @ amps
    assert np.max(np.abs(s - exact)) <= 1e-10


def test_two_site_rabi_full_transfer():
    # hopping terms on one bond commute, so the transfer at t=pi/2 is exact
    h = build_chain_hamiltonian(ChainSpec(L=2, gamma=1.0, v=0.0))
    plan = build_step(h, np.pi / 8)
    s = init_basis_state(2, (0,))
    evolve(s, plan, 4)
    assert np.abs(s[2]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_oracle_at_zero_time_is_identity():
    H = chain_matrix(ChainSpec(L=2, gamma=3.0, v=10.0))
    assert np.max(np.abs(propagator(H, 0.0) - np.eye(4))) <= 1e-12


def test_oracle_unitarity():
    H = chain_matrix(ChainSpec(L=3, gamma=3.0, v=10.0))
    U = propagator(H, 1.7)
    assert np.max(np.abs(U @ propagator(H, -1.7) - np.eye(8))) <= 1e-10


def test_oracle_conserves_energy():
    H = chain_matrix(ChainSpec(L=3, gamma=3.0, v=10.0))
    U = propagator(H, 2.3)
    assert np.max(np.abs(U.conj().T @ H @ U - H)) <= 1e-9


def test_first_order_convergence():
    spec = ChainSpec(L=4, gamma=3.0, v=10.0)
    h = build_chain_hamiltonian(spec)
    psi0 = init_basis_state(4, (0, 1, 2))
    exact = propagator(chain_matrix(spec), 2.0) @ psi0
    errors = []
    for n in (8, 16, 32, 64):
        s = init_basis_state(4, (0, 1, 2))
        evolve(s, build_step(h, 2.0 / n), n)
        errors.append(np.linalg.norm(s - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.7 <= coarse / fine <= 2.3


def test_symmetric_step_is_second_order():
    # two symmetric half steps per step of length 2/n
    spec = ChainSpec(L=4, gamma=3.0, v=10.0)
    h = build_chain_hamiltonian(spec)
    psi0 = init_basis_state(4, (0, 1, 2))
    exact = propagator(chain_matrix(spec), 2.0) @ psi0
    errors = []
    for n in (8, 16, 32, 64):
        s = init_basis_state(4, (0, 1, 2))
        evolve(s, build_step(h, 2.0 / n, symmetric=True), 2 * n)
        errors.append(np.linalg.norm(s - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.6 <= coarse / fine <= 4.4


@pytest.mark.parametrize("L", [1, 2, 4])
def test_symmetric_half_step_is_sweep_then_reversed_sweep(L):
    # S(dt/2): the term-order rotations at dt/4, then the reversed ones
    spec = ChainSpec(L=L, gamma=3.0, v=10.0)
    h = build_chain_hamiltonian(spec)
    dt = 0.3
    gen = np.random.default_rng(L)
    amps = gen.normal(size=1 << L) + 1j * gen.normal(size=1 << L)
    amps /= np.linalg.norm(amps)
    terms = chain_terms(spec)
    expected = rotations(amps, dt / 4, terms + terms[::-1])
    s = init_basis_state(L, ())
    s[:] = amps
    plan = build_step(h, dt, symmetric=True)
    assert plan.symmetric and not build_step(h, dt).symmetric
    apply_step(s, plan)
    assert np.max(np.abs(s - expected)) <= 1e-12


def test_step_acts_on_every_row_of_a_batch():
    # the rows of a batch go through one matrix product, a lone row through
    # a product of one row, which may round differently in the last bit
    h = build_chain_hamiltonian(ChainSpec(L=3, gamma=3.0, v=10.0))
    plan = build_step(h, 0.4)
    gen = np.random.default_rng(9)
    rows = gen.normal(size=(5, 8)) + 1j * gen.normal(size=(5, 8))
    batch = rows.copy()
    apply_step(batch, plan)
    for row, amps in zip(batch, rows):
        s = init_basis_state(3, ())
        s[:] = amps
        apply_step(s, plan)
        assert np.max(np.abs(row - s)) <= 1e-14


def test_plan_conserves_particle_number():
    from openchain.state import all_densities

    h = build_chain_hamiltonian(ChainSpec(L=4, gamma=3.0, v=10.0))
    plan = build_step(h, 0.1)
    s = init_basis_state(4, (0, 2))
    for _ in range(50):
        apply_step(s, plan)
        assert np.sum(all_densities(s)) == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=6),
    gamma=st.floats(min_value=-5, max_value=5),
    v=st.floats(min_value=-10, max_value=10),
    dt=st.floats(min_value=1e-3, max_value=1),
    seed=st.integers(min_value=0, max_value=999),
)
def test_step_equals_dense_product_of_rotations(L, gamma, v, dt, seed):
    # oracle: prod_s (cos theta_s I - i sin theta_s P_s) in term order,
    # from the dense Pauli matrices
    spec = ChainSpec(L=L, gamma=gamma, v=v)
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << L) + 1j * gen.normal(size=1 << L)
    amps /= np.linalg.norm(amps)
    expected = rotations(amps, dt, chain_terms(spec))
    s = init_basis_state(L, ())
    s[:] = gauge(L).conj() * amps
    apply_step(s, build_step(build_chain_hamiltonian(spec), dt))
    assert np.max(np.abs(gauge(L) * s - expected)) <= 1e-12


def test_plan_size_is_one_state_vector():
    # guards against per-term 2^L tables: at L = 16 those were 76 MiB
    plan = build_step(build_chain_hamiltonian(ChainSpec(L=16, gamma=5.0, v=10.0)), 0.5)
    assert len(pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)) < 2 * 2**20
