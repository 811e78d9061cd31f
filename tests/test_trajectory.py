"""Open-system trajectory loop and ensemble aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openchain import trajectory
from openchain.model import ChainSpec, PauliHamiltonian, build_chain_hamiltonian
from openchain.trajectory import (
    ContactSpec,
    RunConfig,
    fermi_dirac,
    run_ensemble,
    run_trajectory,
    step_probabilities,
    validate_contacts,
)
from openchain.trotter import build_step

EMPTY_L1 = build_step(PauliHamiltonian(1, ()), 0.5)


def chain_plan(L, gamma, v, dt):
    return build_step(build_chain_hamiltonian(ChainSpec(L=L, gamma=gamma, v=v)), dt)


def test_fermi_dirac_symmetry_point():
    assert fermi_dirac(2.0, 2.0, 0.7) == 0.5


def test_fermi_dirac_zero_temperature_step():
    assert fermi_dirac(-1.0, 0.0, 0.0) == 1.0
    assert fermi_dirac(1.0, 0.0, 0.0) == 0.0
    assert fermi_dirac(0.0, 0.0, 0.0) == 0.5


def test_fermi_dirac_one_kt_above():
    assert fermi_dirac(1.0, 0.0, 1.0) == pytest.approx(1.0 / (math.e + 1.0), abs=1e-12)


def test_fermi_dirac_saturates_without_overflow():
    assert 0.0 <= fermi_dirac(1e9, 0.0, 1.0) <= 1e-300
    assert fermi_dirac(-1e9, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        fermi_dirac(0.0, 0.0, -1.0)


def test_step_probabilities_source():
    assert step_probabilities(ContactSpec(0, 0.5, 1.0), 0.5) == (0.25, 0.0, 0.75)


def test_step_probabilities_decoupled():
    assert step_probabilities(ContactSpec(0, 0.0, 1.0), 0.5) == (0.0, 0.0, 1.0)


def test_step_probabilities_symmetric():
    p_in, p_out, p_none = step_probabilities(ContactSpec(0, 0.4, 0.5), 0.5)
    assert (p_in, p_out, p_none) == (pytest.approx(0.1), pytest.approx(0.1), pytest.approx(0.8))


def test_step_probabilities_rejects_eta_above_one():
    with pytest.raises(ValueError):
        step_probabilities(ContactSpec(0, 3.0, 1.0), 0.5)


@settings(max_examples=100, deadline=None)
@given(
    Gamma=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    f=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    dt=st.floats(min_value=1e-3, max_value=0.5, allow_nan=False),
)
def test_probability_partition_is_exact(Gamma, f, dt):
    p_in, p_out, p_none = step_probabilities(ContactSpec(0, Gamma, f), dt)
    assert p_in + p_out + p_none == 1.0


def test_contact_spec_validation():
    with pytest.raises(ValueError):
        ContactSpec(0, -0.1, 1.0)
    with pytest.raises(ValueError):
        ContactSpec(0, 0.5, 1.5)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(t_final=0.0, N_t=10)
    with pytest.raises(ValueError):
        RunConfig(t_final=1.0, N_t=0)
    with pytest.raises(ValueError):
        RunConfig(t_final=1.0, N_t=10, N_traj=0)
    assert RunConfig(t_final=10.0, N_t=20).dt == 0.5


def test_validate_contacts_reports_all_problems():
    contacts = [ContactSpec(5, 0.5, 1.0), ContactSpec(0, 9.0, 0.0),
                ContactSpec(1, 1.5, 1.0), ContactSpec(1, 1.5, 0.0)]
    errors = validate_contacts(contacts, 2, 0.5)
    # bad index, single-contact eta > 1, and per-qubit sums on 0 and 1
    assert len(errors) == 4


def test_zero_gamma_contact_matches_closed_run():
    plan = chain_plan(3, 2.0, 5.0, 0.25)
    cfg = RunConfig(t_final=2.0, N_t=8, seed=9)
    closed = run_trajectory(plan, (), cfg, (0,))
    gated = run_trajectory(plan, (ContactSpec(2, 0.0, 1.0),), cfg, (0,))
    assert np.array_equal(closed.density, gated.density)
    assert gated.events.shape == (0, 5)


def test_same_seed_reproduces_record():
    plan = chain_plan(3, 3.0, 10.0, 0.5)
    contacts = (ContactSpec(0, 0.5, 1.0), ContactSpec(2, 0.5, 0.0))
    cfg = RunConfig(t_final=5.0, N_t=10, seed=17)
    a = run_trajectory(plan, contacts, cfg, (0,), traj_id=4)
    b = run_trajectory(plan, contacts, cfg, (0,), traj_id=4)
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.events, b.events)


def test_absorbing_injection_with_frozen_hamiltonian():
    # H=0 and f=1: after the first successful injection n stays at 1
    cfg = RunConfig(t_final=10.0, N_t=20, seed=3)
    rec = run_trajectory(EMPTY_L1, (ContactSpec(0, 0.5, 1.0),), cfg, ())
    n = rec.density[:, 0]
    assert np.all((np.abs(n) <= 1e-12) | (np.abs(n - 1.0) <= 1e-12))
    first_one = int(np.argmax(n > 0.5))
    assert n[first_one:].min() >= 1.0 - 1e-12


def test_events_pin_density_to_target():
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=10.0, N_t=20, seed=5)
    rec = run_trajectory(plan, (ContactSpec(0, 1.0, 1.0),), cfg, (1,))
    assert len(rec.events), "expected at least one contact event"
    for _, step, q, target, _ in rec.events:
        # recording happens after contact actions, so the recorded density
        # at the event step equals the reset target
        assert rec.density[step, q] == pytest.approx(float(target), abs=1e-12)


def test_discrete_step_relaxation_law():
    eta = 0.25
    cfg = RunConfig(t_final=10.0, N_t=20, N_traj=1000, seed=8)
    ens = run_ensemble(EMPTY_L1, (ContactSpec(0, 0.5, 1.0),), cfg, (), workers=1)
    for k in range(cfg.N_t + 1):
        theory = 1.0 - (1.0 - eta) ** k
        assert abs(ens.mean_density[k, 0] - theory) <= 4.0 * ens.stderr[k, 0] + 1e-12


def test_ensemble_single_trajectory():
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=1, seed=2)
    contacts = (ContactSpec(1, 0.5, 0.0),)
    ens = run_ensemble(plan, contacts, cfg, (0,), workers=1)
    rec = run_trajectory(plan, contacts, cfg, (0,), traj_id=0)
    assert np.array_equal(ens.mean_density, rec.density)
    assert np.all(ens.stderr == 0.0)


def test_closed_ensemble_has_zero_stderr():
    plan = chain_plan(3, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=8, seed=2)
    ens = run_ensemble(plan, (), cfg, (0,), workers=1)
    assert np.all(ens.stderr == 0.0)


def test_worker_count_does_not_change_results():
    plan = chain_plan(3, 3.0, 10.0, 0.5)
    contacts = (ContactSpec(0, 0.5, 1.0), ContactSpec(2, 0.5, 0.0))
    cfg = RunConfig(t_final=5.0, N_t=10, N_traj=12, seed=6)
    serial = run_ensemble(plan, contacts, cfg, (0,), workers=1)
    parallel = run_ensemble(plan, contacts, cfg, (0,), workers=3)
    assert np.array_equal(serial.mean_density, parallel.mean_density)
    assert np.array_equal(serial.stderr, parallel.stderr)
    assert np.array_equal(serial.events, parallel.events)


def test_no_more_workers_than_trajectories(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, ids, chunksize):
            return map(fn, ids)

    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", SerialPool)
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=3, seed=2)
    pooled = run_ensemble(plan, (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=64)
    assert started == [3]
    serial = run_ensemble(plan, (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=1)
    assert np.array_equal(pooled.mean_density, serial.mean_density)


def test_ensemble_rejects_worker_count_below_one():
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=3)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_ensemble(chain_plan(2, 1.0, 0.0, 0.5), (), cfg, (0,), workers=0)


def test_record_every_grid():
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=5.0, N_t=10, seed=0, record_every=2)
    rec = run_trajectory(plan, (), cfg, (0,))
    assert rec.times.shape == (6,)
    assert np.array_equal(rec.times, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])


def test_run_rejects_invalid_contacts():
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=10.0, N_t=10)
    with pytest.raises(ValueError):
        run_trajectory(plan, (ContactSpec(0, 9.0, 1.0),), cfg, ())
