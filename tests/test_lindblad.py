"""Dense Lindblad oracle: jump operators, generator, RK4 integration."""

import math

import numpy as np
import pytest

from openchain.lindblad import (
    ContactJumps,
    DensityMatrix,
    JumpOperatorSet,
    build_jump_operators,
    integrate,
    lindblad_rhs,
    site_density,
    stability_bound,
)
from openchain.model import ChainSpec, build_chain_hamiltonian
from openchain.state import init_basis_state
from openchain.trajectory import ContactSpec
from openchain.trotter import exact_propagator_oracle

NO_JUMPS = JumpOperatorSet(1, (), True)


def pure_dm(state):
    return DensityMatrix(state.L, np.outer(state.amps, state.amps.conj()))


def test_zero_gamma_gives_zero_operators():
    jumps = build_jump_operators([ContactSpec(0, 0.0, 1.0)], 1)
    assert all(np.all(op == 0) for op in jumps.all_ops())


def test_full_source_has_no_removal_channels():
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 2)
    c = jumps.contacts[0]
    assert np.all(c.L1 == 0) and np.all(c.L3 == 0)
    assert np.any(c.L0 != 0) and np.any(c.L2 != 0)


def test_single_site_creation_operator():
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    expected = math.sqrt(0.5) * np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.max(np.abs(jumps.contacts[0].L0 - expected)) <= 1e-15


def test_depolarizing_flag_off():
    jumps = build_jump_operators([ContactSpec(0, 0.5, 0.5)], 2, include_depolarizing=False)
    c = jumps.contacts[0]
    assert c.L2 is None and c.L3 is None
    assert len(jumps.all_ops()) == 2


def test_rejects_large_register():
    with pytest.raises(ValueError):
        build_jump_operators([ContactSpec(0, 0.5, 1.0)], 9)


def test_rhs_vanishes_for_identity_state():
    rho = np.eye(4) / 4.0
    H = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    out = lindblad_rhs(rho, H, JumpOperatorSet(2, (), True))
    assert np.max(np.abs(out)) <= 1e-14


def test_rhs_is_traceless():
    gen = np.random.default_rng(0)
    M = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    rho = M + M.conj().T
    H = build_chain_hamiltonian(ChainSpec(L=2, gamma=3.0, v=10.0)).to_matrix()
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.0)], 2)
    assert abs(np.trace(lindblad_rhs(rho, H, jumps))) <= 1e-12


def test_rhs_source_filling_rate():
    # L=1, H=0, rho=|0><0|: d<n>/dt = r_in
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = lindblad_rhs(rho, np.zeros((2, 2)), jumps)
    assert out[1, 1].real == pytest.approx(0.5, abs=1e-14)


def test_integrate_commuting_stationary_state():
    H = np.diag([0.0, 2.0]).astype(complex)
    rho0 = DensityMatrix(1, np.diag([0.3, 0.7]).astype(complex))
    res = integrate(rho0, H, NO_JUMPS, t_final=1.0, steps=100)
    assert np.max(np.abs(res.rhos[-1].rho - rho0.rho)) <= 1e-12


def test_integrate_analytic_relaxation():
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho0 = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
    res = integrate(rho0, np.zeros((2, 2)), jumps, t_final=10.0, steps=10_000,
                    record_every=1000)
    for t, dens in zip(res.times, res.densities):
        assert abs(dens[0] - (1.0 - math.exp(-0.5 * t))) <= 1e-6


def test_integrate_preserves_purity_without_jumps():
    H = build_chain_hamiltonian(ChainSpec(L=2, gamma=3.0, v=10.0)).to_matrix()
    rho0 = pure_dm(init_basis_state(2, (0,)))
    res = integrate(rho0, H, JumpOperatorSet(2, (), True), t_final=2.0, steps=2000)
    for dm in res.rhos:
        assert dm.purity() == pytest.approx(1.0, abs=1e-8)


def test_integrate_rejects_unstable_step():
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho0 = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        integrate(rho0, 50.0 * np.eye(2), jumps, t_final=10.0, steps=10)


def test_integrate_grid_alignment_guard():
    rho0 = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        integrate(rho0, np.zeros((2, 2)), NO_JUMPS, t_final=1.0, steps=10, record_every=3)


def test_site_density_examples():
    assert site_density(DensityMatrix(1, np.diag([0.0, 1.0]).astype(complex)), 0) == 1.0
    assert site_density(DensityMatrix(1, np.eye(2, dtype=complex) / 2.0), 0) == 0.5


def test_site_density_relaxation_value():
    # at t = 2/Gamma the analytic occupation is 1 - e^-2
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 1)
    rho0 = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
    res = integrate(rho0, np.zeros((2, 2)), jumps, t_final=4.0, steps=4000)
    assert site_density(res.rhos[-1], 0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-6)


def test_oracle_health_monitoring():
    H = build_chain_hamiltonian(ChainSpec(L=2, gamma=3.0, v=10.0)).to_matrix()
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.0)], 2)
    rho0 = pure_dm(init_basis_state(2, (0,)))
    res = integrate(rho0, H, jumps, t_final=5.0, steps=2000)
    assert res.max_trace_drift <= 1e-8
    assert res.max_hermiticity_defect <= 1e-10
    assert res.min_eigenvalue >= -1e-7


def test_depolarizing_channels_leave_diagonal_densities_unchanged():
    gen = np.random.default_rng(1)
    p = gen.random(4)
    rho = np.diag(p / p.sum()).astype(complex)
    contacts = [ContactSpec(0, 0.5, 0.7), ContactSpec(1, 0.3, 0.2)]
    with_dep = build_jump_operators(contacts, 2, include_depolarizing=True)
    without = build_jump_operators(contacts, 2, include_depolarizing=False)
    H = np.zeros((4, 4), dtype=complex)
    d_with = np.diag(lindblad_rhs(rho, H, with_dep)).real
    d_without = np.diag(lindblad_rhs(rho, H, without)).real
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
    bare = JumpOperatorSet(L, (ContactJumps(
        q=2,
        L0=math.sqrt(spec.Gamma * spec.f) * bare_raise,
        L1=math.sqrt(spec.Gamma * (1 - spec.f)) * bare_low,
        L2=stringed.contacts[0].L2,
        L3=stringed.contacts[0].L3,
    ),), True)

    h = build_chain_hamiltonian(ChainSpec(L=L, gamma=3.0, v=10.0))
    psi = exact_propagator_oracle(h, 0.7) @ init_basis_state(L, (0,)).amps
    rho0 = DensityMatrix(L, np.outer(psi, psi.conj()))
    H = h.to_matrix()
    a = integrate(rho0, H, stringed, t_final=1.0, steps=500)
    b = integrate(rho0, H, bare, t_final=1.0, steps=500)
    assert np.max(np.abs(a.densities - b.densities)) <= 1e-12


def test_trajectory_average_discrete_relaxation():
    # trajectory mean after k steps of the eta-injection process
    from openchain.trajectory import RunConfig, run_trajectory
    from openchain.model import PauliHamiltonian
    from openchain.trotter import build_step

    plan = build_step(PauliHamiltonian(1, ()), 0.5)
    cfg = RunConfig(t_final=2.0, N_t=4, seed=0)
    k, eta = 4, 0.25
    mean = np.mean([
        run_trajectory(plan, (ContactSpec(0, 0.5, 1.0),), cfg, (), traj).density[k, 0]
        for traj in range(2000)
    ])
    assert mean == pytest.approx(1.0 - (1.0 - eta) ** k, abs=0.04)


def test_stability_bound_positive():
    H = build_chain_hamiltonian(ChainSpec(L=2, gamma=3.0, v=10.0)).to_matrix()
    jumps = build_jump_operators([ContactSpec(0, 0.5, 1.0)], 2)
    assert stability_bound(H, jumps) > 2.0 * np.linalg.norm(H, 2)
