"""Open-system trajectory loop and ensemble aggregation."""

import math
import os
import pickle
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openchain import trajectory
from openchain.model import ChainSpec, build_chain_hamiltonian, fermion_lowering
from openchain.state import RngStream
from openchain.trajectory import (
    BATCH_AMPS,
    ContactSpec,
    RunConfig,
    batches,
    event_rows,
    fermi_dirac,
    run_ensemble,
    run_trajectory,
    step_probabilities,
    validate_contacts,
)
from openchain.trotter import apply_step, build_step
from pauli import step_matrix

def chain_plan(L, gamma, v, dt):
    return build_step(build_chain_hamiltonian(ChainSpec(L=L, gamma=gamma, v=v)), dt)


EMPTY_L1 = chain_plan(1, 0.0, 0.0, 0.5)


def rows_of(rec, contacts, traj_id=0):
    """A batch record's event rows, expanded from its codes."""
    return np.concatenate(list(event_rows(rec.events, traj_id, [c.q for c in contacts])))


def ensemble_and_events(*args, **kwargs):
    """run_ensemble's result and the event rows it handed out, joined."""
    blocks = []
    ens = run_ensemble(*args, events=blocks.append, **kwargs)
    return ens, np.concatenate(blocks)


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
    assert rows_of(gated, (ContactSpec(2, 0.0, 1.0),)).shape == (0, 5)


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
    n = rec.density[0, :, 0]
    assert np.all((np.abs(n) <= 1e-12) | (np.abs(n - 1.0) <= 1e-12))
    first_one = int(np.argmax(n > 0.5))
    assert n[first_one:].min() >= 1.0 - 1e-12


def test_events_pin_density_to_target():
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=10.0, N_t=20, seed=5)
    contacts = (ContactSpec(0, 1.0, 1.0),)
    rec = run_trajectory(plan, contacts, cfg, (1,))
    events = rows_of(rec, contacts)
    assert len(events), "expected at least one contact event"
    for _, step, q, target, _ in events:
        # recording happens after contact actions, so the recorded density
        # at the event step equals the reset target
        assert rec.density[0, step, q] == pytest.approx(float(target), abs=1e-12)


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
    assert np.array_equal(ens.mean_density, rec.density[0])
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
    serial, serial_events = ensemble_and_events(plan, contacts, cfg, (0,), workers=1)
    parallel, parallel_events = ensemble_and_events(plan, contacts, cfg, (0,), workers=3)
    assert np.array_equal(serial.mean_density, parallel.mean_density)
    assert np.array_equal(serial.stderr, parallel.stderr)
    assert np.array_equal(serial_events, parallel_events)


@pytest.mark.parametrize("workers", [1, 2])
def test_fold_matches_the_stacked_records(workers):
    # 300 trajectories of L = 8 are three batches of 100, folded one at a
    # time; the stack of all of them is what the fold must reproduce
    plan = chain_plan(8, 3.0, 10.0, 0.5)
    contacts = (ContactSpec(0, 0.9, 1.0), ContactSpec(3, 0.9, 0.0), ContactSpec(7, 0.9, 0.0))
    cfg = RunConfig(t_final=4.0, N_t=8, N_traj=300, seed=5)
    records = [run_trajectory(plan, contacts, cfg, (0, 2), *b) for b in batches(8, cfg.N_traj)]
    assert [len(r.density) for r in records] == [100, 100, 100]
    stack = np.concatenate([r.density for r in records])
    ens, events = ensemble_and_events(plan, contacts, cfg, (0, 2), workers=workers)
    assert np.array_equal(ens.times, records[0].times)
    assert np.array_equal(ens.mean_density, stack.mean(axis=0))
    agree = stack.max(axis=0) == stack.min(axis=0)
    assert agree[0].all() and not agree.all()
    assert np.all(ens.stderr[agree] == 0.0)
    want = stack.std(axis=0, ddof=1) / math.sqrt(cfg.N_traj)
    np.testing.assert_allclose(ens.stderr[~agree], want[~agree], rtol=1e-14, atol=0)
    assert np.array_equal(events, np.concatenate([rows_of(r, contacts, first)
                                                  for r, (first, _) in zip(records, batches(8, cfg.N_traj))]))


def test_no_more_workers_than_batches(monkeypatch):
    started, handed = [], []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, batch):
            handed.append(batch)
            done = Future()
            done.set_result(fn(batch))
            return done

    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", SerialPool)
    # at most two trajectories of L = 2 per batch: 5 trajectories are 3 batches
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 8)
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=5, seed=2)
    pooled, pooled_events = ensemble_and_events(plan, (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=64)
    assert started == [3]
    assert handed == [(0, 2), (2, 2), (4, 1)]
    serial, serial_events = ensemble_and_events(plan, (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=1)
    assert np.array_equal(pooled.mean_density, serial.mean_density)
    assert np.array_equal(pooled_events, serial_events)
    # one batch of two trajectories, one trajectory or --workers 1: no
    # pool, and the one batch gives the serial result bit for bit
    started.clear()
    one = replace(cfg, N_traj=2)
    lone, lone_events = ensemble_and_events(plan, (ContactSpec(1, 0.5, 0.0),), one, (0,), workers=64)
    run_ensemble(plan, (ContactSpec(1, 0.5, 0.0),), replace(cfg, N_traj=1), (0,), workers=64)
    run_ensemble(plan, (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=1)
    assert started == []
    serial, serial_events = ensemble_and_events(plan, (ContactSpec(1, 0.5, 0.0),), one, (0,), workers=1)
    for name in ("times", "mean_density", "stderr"):
        assert getattr(lone, name).tobytes() == getattr(serial, name).tobytes(), name
    assert lone_events.tobytes() == serial_events.tobytes()


def test_the_pool_runs_at_most_a_window_ahead_of_the_fold(monkeypatch):
    # at most procs + 1 batches are submitted beyond the one being folded,
    # so the calling process holds a window of results, never all of them
    log = []

    class LoggingPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, batch):
            log.append("submit")
            done = Future()
            done.set_result(fn(batch))
            return done

    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", LoggingPool)
    # two trajectories of L = 2 per batch: 20 are 10 batches
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 8)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=20, seed=2)
    procs = 2
    run_ensemble(chain_plan(2, 1.0, 0.0, 0.5), (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=procs,
                 events=lambda rows: log.append("fold"))
    # batch k is folded once it and the procs + 1 after it are submitted
    submitted = [log[:i].count("submit") for i, entry in enumerate(log) if entry == "fold"]
    assert submitted == [min(10, k + 1 + procs + 1) for k in range(10)]


@pytest.mark.parametrize("L, n_traj", [(8, 150), (8, 64), (3, 400), (2, 8000), (7, 2000),
                                       (14, 3), (20, 1)])
def test_batches_partition_the_trajectories(L, n_traj):
    parts = list(batches(L, n_traj))
    counts = [c for _, c in parts]
    assert [f for f, _ in parts] == np.cumsum([0] + counts[:-1]).tolist()
    assert sum(counts) == n_traj
    limit = max(1, BATCH_AMPS >> L)
    assert len(parts) == -(-n_traj // limit)
    assert max(counts) <= limit and max(counts) - min(counts) <= 1


def test_batch_sizes_follow_the_byte_budget():
    assert list(batches(8, 128)) == [(0, 128)]
    assert list(batches(3, 400)) == [(0, 400)]
    assert list(batches(14, 3)) == [(0, 2), (2, 1)]
    assert list(batches(15, 3)) == [(0, 1), (1, 1), (2, 1)]
    # one batch at a time: the partition of every id there is takes no memory
    assert next(batches(20, 1 << 32)) == (0, 1)


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert trajectory.default_workers() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert trajectory.default_workers() == 8


def test_draw_layout_two_uniforms_per_contact_step(monkeypatch):
    # trajectory k's uniforms are its (seed, k) stream in (step, contact,
    # {action, measurement}) order, forced outcomes included, however
    # many steps are drawn at a time: here 2 steps per chunk.  reset_to
    # runs once per step in which any contact acts, on all its contacts
    monkeypatch.setattr(trajectory, "DRAW_CHUNK", 24)
    steps, calls = [0], []
    real_step, real_reset = trajectory.apply_step, trajectory.reset_to

    def counting_step(state, plan):
        steps[0] += 1
        return real_step(state, plan)

    def recording_reset(state, qs, target, u):
        calls.append((steps[0], list(qs), target.tolist(), u.tolist()))
        return real_reset(state, qs, target, u)

    monkeypatch.setattr(trajectory, "apply_step", counting_step)
    monkeypatch.setattr(trajectory, "reset_to", recording_reset)
    # H = 0: once a qubit is set its measurement is forced
    plan = chain_plan(2, 0.0, 0.0, 0.5)
    contacts = (ContactSpec(0, 1.0, 1.0), ContactSpec(1, 0.6, 0.3))
    cfg = RunConfig(t_final=5.0, N_t=10, seed=21)
    rec = run_trajectory(plan, contacts, cfg, (0,), traj_id=5, count=3)

    draws = np.concatenate([RngStream(21, k).uniform((10, 2, 2)) for k in (5, 6, 7)])
    want = np.empty((3, 10, 2), dtype=int)
    for i, c in enumerate(contacts):
        p_in, p_out, _ = step_probabilities(c, cfg.dt)
        a = draws[:, :, i, 0]
        want[:, :, i] = np.where(a < p_in, 1, np.where(a < p_in + p_out, 0, -1))
    called = set()
    for step, qs, target, u in calls:
        assert qs == [c.q for c in contacts]
        assert target == want[:, step - 1].tolist()
        assert u == draws[:, step - 1, :, 1].tolist()
        called.add(step)
    for step in range(1, 11):
        if step not in called:
            assert (want[:, step - 1] == -1).all()
    acting = [[5 + b, s + 1, i, want[b, s, i]]
              for b in range(3) for s in range(10) for i in range(2) if want[b, s, i] >= 0]
    assert rows_of(rec, contacts, 5)[:, :4].tolist() == acting


def test_batch_rows_match_lone_trajectories():
    plan = chain_plan(3, 3.0, 10.0, 0.5)
    contacts = (ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.5), ContactSpec(2, 0.5, 0.0))
    cfg = RunConfig(t_final=5.0, N_t=10, seed=4)
    batch = run_trajectory(plan, contacts, cfg, (0,), traj_id=2, count=4)
    events = rows_of(batch, contacts, 2)
    for b in range(4):
        lone = run_trajectory(plan, contacts, cfg, (0,), traj_id=2 + b)
        assert np.max(np.abs(batch.density[b] - lone.density[0])) <= 1e-14
        assert np.array_equal(events[events[:, 0] == 2 + b], rows_of(lone, contacts, 2 + b))


def test_the_batch_record_stays_compact():
    # a batch shaped like the contacts-l8 benchmark's: 100 rows of L = 8
    # with a contact on every site; its events take one byte per (row,
    # step, contact) whatever the rates, so the record is its densities
    plan = chain_plan(8, 3.0, 10.0, 0.5)
    contacts = tuple(ContactSpec(q, 0.9, float((q + 1) % 2)) for q in range(8))
    cfg = RunConfig(t_final=20.0, N_t=40, seed=2)
    rec = run_trajectory(plan, contacts, cfg, (0, 2, 4, 6), 0, 100)
    assert len(rows_of(rec, contacts)) > 100 * 40 * 8 / 4
    assert len(pickle.dumps(rec)) <= rec.density.nbytes + 100 * 40 * 8 + 4096


def test_event_rows_come_in_blocks_in_trajectory_step_and_contact_order(monkeypatch):
    # contact i acts at every step of row b with b + i odd: rows 0 and 2
    # have events only from contact 1, rows 1 and 3 only from contact 0
    codes = np.full((4, 50, 2), -1, dtype=np.int8)
    codes[1::2, :, 0] = 3
    codes[0::2, :, 1] = 0
    want = [(7 + b, s + 1, (5, 2)[(b + 1) % 2], (1, 0)[(b + 1) % 2], (1, 0)[(b + 1) % 2])
            for b in range(4) for s in range(50)]
    assert [len(rows) for rows in event_rows(codes, 7, [5, 2])] == [200]
    monkeypatch.setattr(trajectory, "EVENTS_BLOCK", 30)
    blocks = list(event_rows(codes, 7, [5, 2]))
    assert all(rows.dtype == np.int64 and len(rows) <= 30 for rows in blocks)
    assert list(map(tuple, np.concatenate(blocks).tolist())) == want
    # no contact acted: one empty block
    assert [rows.shape for rows in event_rows(np.full((2, 3, 1), -1, dtype=np.int8), 0, [0])] == [(0, 5)]


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


def exact_channel_densities(plan, contacts, cfg, init, U=None):
    """Site densities of the process the trajectories sample, propagated
    exactly as a density matrix: the unitary of the plan (or U, when
    given), then for each contact rho -> p_none rho + p_in R_1(rho) +
    p_out R_0(rho), where R_t sums (c + c^dag)^[m != t] P_m rho P_m (c +
    c^dag)^[m != t] over the outcomes m."""
    L = plan.L
    if U is None:
        U = np.eye(1 << L, dtype=complex)
        apply_step(U, plan)  # row k becomes U applied to basis state k
        U = U.T
    bits = np.arange(1 << L)
    occupation = (bits[:, None] >> np.arange(L)) & 1
    psi = np.zeros(1 << L)
    psi[sum(1 << q for q in init)] = 1.0
    rho = np.outer(psi, psi).astype(complex)

    def reset(rho, q, t):
        flip = fermion_lowering(q, L) + fermion_lowering(q, L).conj().T
        out = np.zeros_like(rho)
        for m in (0, 1):
            K = np.diag(((bits >> q) & 1 == m).astype(float))
            if m != t:
                K = flip @ K
            out += K @ rho @ K.conj().T
        return out

    densities = [np.real(np.diag(rho)) @ occupation]
    for step in range(1, cfg.N_t + 1):
        rho = U @ rho @ U.conj().T
        for c in contacts:
            p_in, p_out, p_none = step_probabilities(c, cfg.dt)
            rho = p_none * rho + p_in * reset(rho, c.q, 1) + p_out * reset(rho, c.q, 0)
        if plan.symmetric:
            rho = U @ rho @ U.conj().T
        if step % cfg.record_every == 0:
            densities.append(np.real(np.diag(rho)) @ occupation)
    return np.array(densities)


@pytest.mark.parametrize(
    "L, symmetric",
    [(3, False), (3, True), (7, False), (7, True)],
    ids=["first-order", "symmetric", "L7-first-order", "L7-symmetric"],
)
def test_ensemble_realises_the_exact_discrete_channel(L, symmetric):
    # contacts at both ends and an interior one; only Monte-Carlo noise
    # separates the ensemble from the exact propagation of its process.
    # At L = 7 the contacts at qubits 5 and 6 act on sites of the step's
    # gauge frame, and the exact channel's U is the physical one.  The
    # densities cannot see a hopping sign on any bond of an open chain
    # (that is a gauge too); test_trotter.py pins the frame's amplitudes.
    spec = ChainSpec(L=L, gamma=3.0, v=10.0)
    plan = build_step(build_chain_hamiltonian(spec), 0.5, symmetric=symmetric)
    contacts = (ContactSpec(0, 0.5, 1.0), ContactSpec(L - 2, 0.4, 0.5), ContactSpec(L - 1, 0.5, 0.0))
    cfg = RunConfig(t_final=6.0, N_t=12, N_traj=4000, seed=3)
    ens = run_ensemble(plan, contacts, cfg, (0,), workers=1)
    if L == 3:
        exact = exact_channel_densities(plan, contacts, cfg, (0,))
        sigma = ens.stderr
    else:
        U = step_matrix(spec, 0.5, symmetric)
        exact = exact_channel_densities(plan, contacts, cfg, (0,), U=U)
        # each density lies in [0, 1], so sqrt(m (1 - m) / N) bounds the
        # true standard error where the sample one collapses near 0 and 1
        m = np.clip(exact, 0.0, 1.0)
        sigma = np.maximum(ens.stderr, np.sqrt(m * (1 - m) / cfg.N_traj))
    assert np.all(np.abs(ens.mean_density - exact) <= 4.5 * sigma + 1e-12)
