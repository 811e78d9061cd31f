"""Lindblad oracle: jump operators, generator, and the record-step
integration against a substep-by-substep RK4 reference."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openchain import lindblad, state
from openchain.config import PRESETS, _source_drain, parse_config
from openchain.lindblad import (
    RK4_STEP,
    LindbladResult,
    build_generator,
    build_jump_operators,
    integrate,
    lindblad_rhs,
    oracle_bytes,
    stability_bound,
)
from openchain.model import ChainSpec, build_chain_hamiltonian, fermion_lowering, fock_matrix_oracle
from openchain.state import init_basis_state
from openchain.trajectory import ContactSpec
from pauli import chain_matrix, propagator


def no_jumps(L):
    return build_jump_operators([], L)


def pure_dm(state):
    return np.outer(state, state.conj())


def rhs(rho, H, J):
    return lindblad_rhs(rho, *build_generator(H, J))


def test_zero_gamma_gives_zero_operators():
    jumps = build_jump_operators([ContactSpec(0, 0.0, 1.0)], 1)
    assert jumps.shape == (4, 2, 2) and np.all(jumps == 0)


def test_full_source_has_no_removal_channels():
    L0, L1, L2, L3 = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 2)
    assert np.all(L1 == 0) and np.all(L3 == 0)
    assert np.any(L0 != 0) and np.any(L2 != 0)


def test_single_site_creation_operator():
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    expected = math.sqrt(0.5) * np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.max(np.abs(jumps[0] - expected)) <= 1e-15


def test_depolarizing_flag_off():
    contacts = [ContactSpec(0, 0.5, 0.5), ContactSpec(1, 0.3, 0.2)]
    without = build_jump_operators(contacts, 2, include_depolarizing=False)
    with_dep = build_jump_operators(contacts, 2)
    assert without.shape == (4, 4, 4) and with_dep.shape == (8, 4, 4)
    # the same L0, L1 per contact, without that contact's L2, L3
    assert np.array_equal(without, with_dep[[0, 1, 4, 5]])


def textbook_rhs(rho, H, contacts, L, include_depolarizing):
    """-i[H, rho] + sum_a (L_a rho L_a^dag - 1/2 {L_a^dag L_a, rho}), with
    the jump operators built here from the fermionic matrices."""
    out = -1j * (H @ rho - rho @ H)
    for c in contacts:
        low = fermion_lowering(c.q, L)
        high = low.conj().T
        ops = [math.sqrt(c.Gamma * c.f) * high, math.sqrt(c.Gamma * (1 - c.f)) * low]
        if include_depolarizing:
            ops += [math.sqrt(c.Gamma * c.f) * high @ low,
                    math.sqrt(c.Gamma * (1 - c.f)) * low @ high]
        for op in ops:
            op_dag = op.conj().T
            out += op @ rho @ op_dag - 0.5 * (op_dag @ op @ rho + rho @ op_dag @ op)
    return out


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), depolarizing=st.booleans())
def test_rhs_equals_textbook_generator(L, seed, depolarizing):
    gen = np.random.default_rng(seed)
    dim = 1 << L

    def hermitian():
        M = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        return M + M.conj().T

    rho, H = hermitian(), hermitian()
    sites = gen.choice(L, size=gen.integers(0, L + 1), replace=False)
    contacts = [ContactSpec(int(q), float(gen.uniform(0, 2)), float(gen.uniform(0, 1)))
                for q in sites]
    J = build_jump_operators(contacts, L, include_depolarizing=depolarizing)
    expected = textbook_rhs(rho, H, contacts, L, depolarizing)
    assert np.max(np.abs(rhs(rho, H, J) - expected)) <= 1e-12


def test_rejects_large_register():
    with pytest.raises(ValueError):
        build_jump_operators([ContactSpec(0, 0.5, 1.0)], 9)


def test_rhs_vanishes_for_identity_state():
    rho = np.eye(4) / 4.0
    H = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    out = rhs(rho, H, no_jumps(2))
    assert np.max(np.abs(out)) <= 1e-14


def test_rhs_is_traceless():
    gen = np.random.default_rng(0)
    M = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    rho = M + M.conj().T
    H = chain_matrix(ChainSpec(L=2, gamma=3.0, v=10.0))
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.0)], 2)
    assert abs(np.trace(rhs(rho, H, jumps))) <= 1e-12


def test_rhs_source_filling_rate():
    # L=1, H=0, rho=|0><0|: d<n>/dt = r_in
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = rhs(rho, np.zeros((2, 2)), jumps)
    assert out[1, 1].real == pytest.approx(0.5, abs=1e-14)


def rk4_reference(rho0, H, J, t_final, N_t, record_every=1):
    """`integrate` as an explicit loop: the same grid and substeps, one RK4
    update of the dense rho per substep, symmetrized after each."""
    substeps = max(1, math.ceil(stability_bound(H, J) * (t_final / N_t) / RK4_STEP))
    steps = N_t * substeps
    every = substeps * record_every
    dt = t_final / steps
    gen = build_generator(H, J)

    rho = np.array(rho0, dtype=complex)
    times = dt * np.arange(0, steps + 1, every)
    diags = np.empty((times.size, rho.shape[0]))
    diags[0] = rho.diagonal().real
    max_drift = abs(np.trace(rho).real - 1.0)
    max_herm = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])

    for step in range(1, steps + 1):
        k1 = lindblad_rhs(rho, *gen)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, *gen)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, *gen)
        k4 = lindblad_rhs(rho + dt * k3, *gen)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record = step % every == 0
        if record:
            max_herm = max(max_herm, float(np.max(np.abs(rho - rho.conj().T))))
        rho = (rho + rho.conj().T) / 2.0
        if record:
            diags[step // every] = rho.diagonal().real
            max_drift = max(max_drift, abs(np.trace(rho).real - 1.0))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(rho)[0]))

    L = rho.shape[0].bit_length() - 1
    bits = (np.arange(1 << L)[:, None] >> np.arange(L)) & 1
    return LindbladResult(times, rho, diags @ bits, max_drift, max_herm, min_eig)


def random_block_state(gen, L):
    """A random full-rank density matrix on the particle-number blocks."""
    dim = 1 << L
    M = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    N = np.array([bin(i).count("1") for i in range(dim)])
    rho = np.where(N[:, None] == N, M @ M.conj().T, 0.0)
    return rho / np.trace(rho).real


@settings(max_examples=30, deadline=None)
@given(L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), depolarizing=st.booleans(),
       record_every=st.sampled_from([1, 4]))
def test_integrate_matches_rk4_reference(L, seed, depolarizing, record_every):
    gen = np.random.default_rng(seed)
    H = chain_matrix(ChainSpec(L=L, gamma=float(gen.uniform(1, 5)), v=float(gen.uniform(0, 10))))
    sites = gen.choice(L, size=gen.integers(1, L + 1), replace=False)
    contacts = [ContactSpec(int(q), float(gen.uniform(0, 2)), float(gen.uniform(0, 1)))
                for q in sites]
    J = build_jump_operators(contacts, L, include_depolarizing=depolarizing)
    rho0 = random_block_state(gen, L)
    got = integrate(rho0, H, J, t_final=2.0, N_t=8, record_every=record_every)
    ref = rk4_reference(rho0, H, J, t_final=2.0, N_t=8, record_every=record_every)
    assert np.array_equal(got.times, ref.times)
    assert np.max(np.abs(got.densities - ref.densities)) <= 1e-12
    assert np.max(np.abs(got.rho - ref.rho)) <= 1e-12
    for field in ("max_trace_drift", "max_hermiticity_defect"):
        assert getattr(got, field) <= 1e-10
    assert abs(got.min_eigenvalue - ref.min_eigenvalue) <= 1e-10


@pytest.mark.parametrize("L", [1, 2])
def test_integrate_rejects_weight_off_the_blocks(L):
    # (|0> + |1>) / sqrt(2): a coherence between N = 0 and N = 1
    psi = (init_basis_state(L, ()) + init_basis_state(L, (0,))) / math.sqrt(2.0)
    dim = 1 << L
    with pytest.raises(ValueError, match="particle-number"):
        integrate(pure_dm(psi), np.zeros((dim, dim)), no_jumps(L), t_final=1.0, N_t=1)


def test_integrate_commuting_stationary_state():
    H = np.diag([0.0, 2.0]).astype(complex)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    res = integrate(rho0, H, no_jumps(1), t_final=1.0, N_t=100)
    assert np.max(np.abs(res.rho - rho0)) <= 1e-12


def test_integrate_analytic_relaxation():
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    res = integrate(rho0, np.zeros((2, 2)), jumps, t_final=10.0, N_t=10_000,
                    record_every=1000)
    for t, dens in zip(res.times, res.densities):
        assert abs(dens[0] - (1.0 - math.exp(-0.5 * t))) <= 1e-6


def test_integrate_preserves_purity_without_jumps():
    H = chain_matrix(ChainSpec(L=2, gamma=3.0, v=10.0))
    rho0 = pure_dm(init_basis_state(2, (0,)))
    for t_final in (0.5, 1.0, 2.0):
        res = integrate(rho0, H, no_jumps(2), t_final=t_final, N_t=round(1000 * t_final))
        assert np.trace(res.rho @ res.rho).real == pytest.approx(1.0, abs=1e-8)


def test_integrate_coarse_grid_picks_its_own_substeps():
    # one record every 5 time units, bound * dt = 2 * 5 = 10: integrate
    # splits each grid step into RK4 substeps on its own
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    assert stability_bound(np.zeros((2, 2)), jumps) * 5.0 == pytest.approx(10.0)
    res = integrate(rho0, np.zeros((2, 2)), jumps, t_final=10.0, N_t=2)
    assert res.times == pytest.approx([0.0, 5.0, 10.0], abs=1e-12)
    for t, dens in zip(res.times, res.densities):
        assert abs(dens[0] - (1.0 - math.exp(-0.5 * t))) <= 1e-6


def test_integrate_grid_alignment_guard():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        integrate(rho0, np.zeros((2, 2)), no_jumps(1), t_final=1.0, N_t=10, record_every=3)


def test_site_density_examples():
    for rho0, expected in [
        (np.diag([0.0, 1.0]), [1.0]),
        (np.eye(2) / 2.0, [0.5]),
        (np.diag([0.0, 1.0, 0.0, 0.0]), [1.0, 0.0]),  # index 1: qubit 0 occupied
        (np.diag([0.0, 0.0, 0.25, 0.75]), [0.75, 1.0]),
    ]:
        dim = rho0.shape[0]
        res = integrate(rho0.astype(complex), np.zeros((dim, dim)),
                        no_jumps(dim.bit_length() - 1), t_final=1.0, N_t=1)
        assert np.array_equal(res.densities, [expected, expected])


def test_site_density_relaxation_value():
    # at t = 2/Gamma the analytic occupation is 1 - e^-2
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    res = integrate(rho0, np.zeros((2, 2)), jumps, t_final=4.0, N_t=4000)
    assert res.densities[-1, 0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-6)


def test_oracle_health_monitoring():
    H = chain_matrix(ChainSpec(L=2, gamma=3.0, v=10.0))
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.0)], 2)
    rho0 = pure_dm(init_basis_state(2, (0,)))
    res = integrate(rho0, H, jumps, t_final=5.0, N_t=2000)
    assert res.max_trace_drift <= 1e-8
    assert res.max_hermiticity_defect <= 1e-10
    assert res.min_eigenvalue >= -1e-7


def test_oracle_reports_a_non_hermitian_generator(monkeypatch):
    # i*1e-3*I is anti-Hermitian: each RK4 update gains 2e-3*dt*i on the
    # diagonal of rho - rho^dag, which the symmetrization then removes
    real_rhs = lindblad.lindblad_rhs
    monkeypatch.setattr(lindblad, "lindblad_rhs",
                        lambda rho, *gen: real_rhs(rho, *gen) + 1e-3j * np.eye(rho.shape[0]))
    H = chain_matrix(ChainSpec(L=2, gamma=3.0, v=10.0))
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.0)], 2)
    res = integrate(pure_dm(init_basis_state(2, (0,))), H, jumps, t_final=1.0, N_t=10)
    assert res.max_hermiticity_defect > 1e-6


def test_depolarizing_channels_leave_diagonal_densities_unchanged():
    gen = np.random.default_rng(1)
    p = gen.random(4)
    rho = np.diag(p / p.sum()).astype(complex)
    contacts = [ContactSpec(0, 0.5, 0.7), ContactSpec(1, 0.3, 0.2)]
    with_dep = build_jump_operators(contacts, 2, include_depolarizing=True)
    without = build_jump_operators(contacts, 2, include_depolarizing=False)
    H = np.zeros((4, 4), dtype=complex)
    d_with = np.diag(rhs(rho, H, with_dep)).real
    d_without = np.diag(rhs(rho, H, without)).real
    assert np.max(np.abs(d_with - d_without)) <= 1e-12


def test_jw_strings_do_not_affect_site_densities():
    # bare sigma+/- jump operators (no sign string) give the same density
    # dynamics for number-sector states, supporting the stringed convention
    L = 3
    spec = ContactSpec(2, 0.5, 0.0)
    stringed = build_jump_operators([spec], L)

    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    bare_low = np.kron(lower, np.kron(eye, eye))  # qubit 2 is the top factor
    bare_raise = bare_low.conj().T
    bare = stringed.copy()  # L2, L3 carry no string
    bare[0] = math.sqrt(spec.Gamma * spec.f) * bare_raise
    bare[1] = math.sqrt(spec.Gamma * (1 - spec.f)) * bare_low

    H = chain_matrix(ChainSpec(L=L, gamma=3.0, v=10.0))
    psi = propagator(H, 0.7) @ init_basis_state(L, (0,))
    rho0 = np.outer(psi, psi.conj())
    a = integrate(rho0, H, stringed, t_final=1.0, N_t=500)
    b = integrate(rho0, H, bare, t_final=1.0, N_t=500)
    assert np.max(np.abs(a.densities - b.densities)) <= 1e-12


def test_trajectory_average_discrete_relaxation():
    # trajectory mean after k steps of the eta-injection process
    from openchain.trajectory import RunConfig, run_trajectory
    from openchain.trotter import build_step

    plan = build_step(build_chain_hamiltonian(ChainSpec(L=1, gamma=0.0)), 0.5)
    cfg = RunConfig(t_final=2.0, N_t=4, seed=0)
    k, eta = 4, 0.25
    rec = run_trajectory(plan, (ContactSpec(0, 0.5, 1.0),), cfg, (), traj_id=0, count=2000)
    mean = np.mean(rec.density[:, k, 0])
    assert mean == pytest.approx(1.0 - (1.0 - eta) ** k, abs=0.04)


def test_stability_bound_positive():
    H = chain_matrix(ChainSpec(L=2, gamma=3.0, v=10.0))
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 2)
    assert stability_bound(H, jumps) > 2.0 * np.linalg.norm(H, 2)


@pytest.mark.parametrize("depolarizing", [True, False])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_oracle_bytes_cover_the_measured_peak_of_the_oracle(L, depolarizing):
    # the compare-l3 preset at L sites, from a fresh process's caches
    cfg = parse_config(json.dumps(dict(PRESETS["compare-l3"], L=L, contacts=_source_drain(L),
                                       include_depolarizing=depolarizing)))
    for cached in (state._bits, state._outcomes, state._jw_signs):
        cached.cache_clear()
    H = fock_matrix_oracle(cfg.chain)
    rho0 = pure_dm(init_basis_state(L, cfg.init_occupations))
    tracemalloc.start()
    try:
        J = build_jump_operators(cfg.contacts, L, cfg.include_depolarizing)
        integrate(rho0, H, J, cfg.run.t_final, cfg.run.N_t, cfg.run.record_every)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = oracle_bytes(cfg.contacts, L, cfg.include_depolarizing)
    assert estimate / 2 < peak <= estimate


@pytest.mark.parametrize("L", range(1, 7))
def test_oracle_bytes_size_the_sector_and_the_stack_the_oracle_builds(L, monkeypatch):
    sizes = []

    def record_step_map(H, J, sector, h, power):
        sizes.append(sector.size)
        return np.eye(sector.size, dtype=complex)

    monkeypatch.setattr(lindblad, "_record_step_map", record_step_map)
    integrate(pure_dm(init_basis_state(L, [0])), np.zeros((1 << L, 1 << L)), no_jumps(L), 1.0, 1)
    D, = sizes
    # four D-square complex matrices and the fixed part, and no stack
    # without contacts
    assert oracle_bytes([], L, True) == 4 * 16 * D * D + lindblad.ORACLE_FIXED_BYTES
    # the stack, its adjoint and two temporaries of its size
    contacts = [ContactSpec(0, 0.5, 1.0), ContactSpec(L - 1, 0.5, 0.0)]
    for depolarizing in (True, False):
        J = build_jump_operators(contacts, L, depolarizing)
        assert oracle_bytes(contacts, L, depolarizing) - oracle_bytes([], L, True) == 4 * J.nbytes
