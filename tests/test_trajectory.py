"""Open-system trajectory loop and ensemble aggregation."""

import math
import os
import pickle
import signal
import time
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


def rows_of(codes, contacts, traj_id=0):
    """A batch's (count, N_t, contacts) event codes decoded as (traj,
    step, q, target, changed) int64 rows, in trajectory, step and
    contact-list order; a code is 2 * target + changed, -1 for none."""
    traj, step, i = np.nonzero(codes >= 0)
    code = codes[traj, step, i].astype(np.int64)
    qs = np.array([c.q for c in contacts], dtype=np.int64)
    return np.column_stack((traj + traj_id, step + 1, qs[i], code // 2, code % 2))


def ensemble_and_events(plan, contacts, *args, **kwargs):
    """run_ensemble's result and the events it handed out, decoded and
    joined in the order of the calls."""
    blocks = []
    ens = run_ensemble(plan, contacts, *args, **kwargs,
                       events=lambda traj_id, codes: blocks.append(rows_of(codes, contacts, traj_id)))
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
    # a bad index, then one error per site whose eta sum exceeds 1, under
    # the contact that takes it past 1: the lone eta = 4.5 on site 1, and
    # 0.75 + 0.75 on site 2
    assert len(errors) == 3
    assert errors[0].startswith("contacts[0]: qubit 5")
    assert errors[1].startswith("contacts[1]: total eta = Gamma*dt on site 1 reaches 4.5")
    assert errors[2].startswith("contacts[3]: total eta = Gamma*dt on site 2 reaches 1.5")


def test_zero_gamma_contact_matches_closed_run():
    plan = chain_plan(3, 2.0, 5.0, 0.25)
    cfg = RunConfig(t_final=2.0, N_t=8, seed=9)
    closed = run_trajectory(plan, (), cfg, (0,))
    gated = run_trajectory(plan, (ContactSpec(2, 0.0, 1.0),), cfg, (0,))
    assert np.array_equal(closed.density, gated.density)
    assert rows_of(gated.events, (ContactSpec(2, 0.0, 1.0),)).shape == (0, 5)


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
    events = rows_of(rec.events, contacts)
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
    calls = []
    ens = run_ensemble(plan, contacts, cfg, (0, 2), workers=workers,
                       events=lambda traj_id, codes: calls.append((traj_id, codes.copy())))
    assert np.array_equal(ens.times, records[0].times)
    assert np.array_equal(ens.mean_density, stack.mean(axis=0))
    agree = stack.max(axis=0) == stack.min(axis=0)
    assert agree[0].all() and not agree.all()
    assert np.all(ens.stderr[agree] == 0.0)
    want = stack.std(axis=0, ddof=1) / math.sqrt(cfg.N_traj)
    np.testing.assert_allclose(ens.stderr[~agree], want[~agree], rtol=1e-14, atol=0)
    # the event codes come once per batch, in trajectory order, with the
    # batch's first trajectory id
    assert [traj_id for traj_id, _ in calls] == [0, 100, 200]
    for (_, codes), r in zip(calls, records):
        assert codes.dtype == np.int8 and np.array_equal(codes, r.events)


def forked(monkeypatch) -> list:
    """The pids of the workers that run_ensemble forks, in order."""
    pids, fork = [], os.fork

    def logging_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(trajectory.os, "fork", logging_fork)
    return pids


def log_batches(monkeypatch, log):
    """Append `pid start first` to the file `log` as each batch starts,
    from whichever process runs it."""
    real = trajectory.run_trajectory

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} start {args[-2]}\n")
        return real(*args)

    monkeypatch.setattr(trajectory, "run_trajectory", logged)


def test_no_more_workers_than_batches(tmp_path, monkeypatch):
    pids = forked(monkeypatch)
    log = tmp_path / "log"
    log_batches(monkeypatch, log)
    # at most two trajectories of L = 2 per batch: 5 trajectories are 3 batches
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 8)
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    contacts = (ContactSpec(1, 0.5, 0.0),)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=5, seed=2)
    pooled, pooled_events = ensemble_and_events(plan, contacts, cfg, (0,), workers=64)
    assert len(pids) == 3
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted((int(first), pids.index(int(pid))) for pid, _, first in ran) == [(0, 0), (2, 1), (4, 2)]
    serial, serial_events = ensemble_and_events(plan, contacts, cfg, (0,), workers=1)
    assert np.array_equal(pooled.mean_density, serial.mean_density)
    assert np.array_equal(pooled_events, serial_events)
    # 9 trajectories are 5 batches: on two workers batch k runs on worker
    # k % 2, and the result is the serial one bit for bit
    pids.clear()
    log.unlink()
    nine = replace(cfg, N_traj=9)
    pooled, pooled_events = ensemble_and_events(plan, contacts, nine, (0,), workers=2)
    assert len(pids) == 2
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted((int(first) // 2, pids.index(int(pid))) for pid, _, first in ran) == [
        (k, k % 2) for k in range(5)]
    serial, serial_events = ensemble_and_events(plan, contacts, nine, (0,), workers=1)
    for name in ("times", "mean_density", "stderr"):
        assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes(), name
    assert pooled_events.tobytes() == serial_events.tobytes()
    # one batch of two trajectories, one trajectory or --workers 1: no
    # worker, and the one batch gives the serial result bit for bit
    pids.clear()
    one = replace(cfg, N_traj=2)
    lone, lone_events = ensemble_and_events(plan, contacts, one, (0,), workers=64)
    run_ensemble(plan, contacts, replace(cfg, N_traj=1), (0,), workers=64)
    run_ensemble(plan, contacts, cfg, (0,), workers=1)
    assert pids == []
    serial, serial_events = ensemble_and_events(plan, contacts, one, (0,), workers=1)
    for name in ("times", "mean_density", "stderr"):
        assert getattr(lone, name).tobytes() == getattr(serial, name).tobytes(), name
    assert lone_events.tobytes() == serial_events.tobytes()


def test_the_pool_runs_at_most_a_window_ahead_of_the_fold(tmp_path, monkeypatch):
    # a worker waits on its pipe until the calling process reads its
    # record, so it starts batch j only once batch j - procs is being
    # read, after the fold of batch j - procs - 1: the calling process
    # holds one record at a time, never all of them
    log = tmp_path / "log"
    log_batches(monkeypatch, log)
    # eight trajectories of L = 2 per batch: 80 are 10 batches, and each
    # record, 8 * 2049 * 2 float64 densities, is four times the 64 KiB
    # that a pipe buffers
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 32)
    cfg = RunConfig(t_final=2048.0, N_t=2048, N_traj=80, seed=2)
    procs = 2

    def fold(traj_id, codes):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} fold {traj_id}\n")

    run_ensemble(chain_plan(2, 1.0, 0.0, 0.5), (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=procs,
                 events=fold)
    entries = [tuple(line.split()[1:]) for line in log.read_text().splitlines()]
    assert sorted(entries) == sorted((what, str(8 * k)) for k in range(10) for what in ("fold", "start"))
    assert [int(k) // 8 for what, k in entries if what == "fold"] == list(range(10))
    at = {entry: i for i, entry in enumerate(entries)}
    for j in range(procs + 1, 10):
        assert at["fold", str(8 * (j - procs - 1))] < at["start", str(8 * j)], j


def test_workers_with_large_records_run_side_by_side(tmp_path, monkeypatch):
    # 64 trajectories of L = 2 per batch: 384 are 6 batches, three rounds
    # on two workers, and each record's 64 * 512 * 2 event codes alone
    # fill the 64 KiB that a pipe buffers.  A record's last frame must
    # reach the calling process when it is written, not when its worker
    # has run its next batch: else the fold waits on one worker while the
    # other waits on its pipe, and the workers take turns
    pids = forked(monkeypatch)
    log = tmp_path / "log"
    real = trajectory.run_trajectory

    def timed(*args):
        start = time.monotonic()
        rec = real(*args)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[-2]} {start} {time.monotonic()}\n")
        return rec

    def fold(traj_id, codes):
        with open(log, "a") as fh:
            fh.write(f"fold {traj_id} {time.monotonic()}\n")

    monkeypatch.setattr(trajectory, "run_trajectory", timed)
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 256)
    contacts = (ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.0))
    cfg = RunConfig(t_final=512.0, N_t=512, N_traj=384, seed=2)
    run_ensemble(chain_plan(2, 1.0, 0.0, 0.5), contacts, cfg, (0,), workers=2, events=fold)
    ran, folded = {}, {}
    for line in log.read_text().splitlines():
        who, first, *at = line.split()
        if who == "fold":
            folded[int(first) // 64] = float(at[0])
        else:
            ran[int(first) // 64] = (pids.index(int(who)), float(at[0]), float(at[1]))
    assert sorted(ran) == sorted(folded) == list(range(6))
    assert [w for w, _, _ in map(ran.get, range(6))] == [0, 1] * 3
    for k in range(4):
        # batch k is folded while its worker runs batch k + 2 ...
        assert folded[k] < ran[k + 2][2], k
    for k in range(0, 6, 2):
        # ... so in every round the two workers' batches overlap
        (_, start0, end0), (_, start1, end1) = ran[k], ran[k + 1]
        assert max(start0, start1) < min(end0, end1), k // 2


def test_a_platform_without_fork_runs_every_batch_here(monkeypatch):
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 8)
    plan = chain_plan(2, 1.0, 0.0, 0.5)
    contacts = (ContactSpec(1, 0.5, 0.0),)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=9, seed=2)
    pooled = run_ensemble(plan, contacts, cfg, (0,), workers=2)
    monkeypatch.delattr(os, "fork")
    here = run_ensemble(plan, contacts, cfg, (0,), workers=2)
    assert here.mean_density.tobytes() == pooled.mean_density.tobytes()
    assert trajectory.ensemble_bytes(2, 1, cfg, 2) == trajectory.ensemble_bytes(2, 1, cfg, 1)


def test_a_killed_worker_fails_the_ensemble(monkeypatch):
    real = trajectory.run_trajectory

    def killed_on_the_second_batch(*args):
        if args[-2] == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(trajectory, "run_trajectory", killed_on_the_second_batch)
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 8)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=9, seed=2)
    with pytest.raises(ChildProcessError, match=f"worker 1 ended before sending batch 1 .*signal {signal.SIGKILL}"):
        run_ensemble(chain_plan(2, 1.0, 0.0, 0.5), (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class NeedsTwoArguments(Exception):
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_a_batch_error_that_cannot_be_pickled_keeps_its_message(monkeypatch):
    class Local(Exception):
        pass

    real = trajectory.run_trajectory
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 8)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=9, seed=2)
    # a local class cannot be pickled; NeedsTwoArguments pickles, but
    # cannot be rebuilt from its one message
    for exc, want in ((Local("no pickle"), "Local: no pickle"),
                      (NeedsTwoArguments("batch", "no rebuild"), "NeedsTwoArguments: batch: no rebuild")):

        def fail_on_the_second_batch(*args, exc=exc):
            if args[-2] == 2:
                raise exc
            return real(*args)

        monkeypatch.setattr(trajectory, "run_trajectory", fail_on_the_second_batch)
        with pytest.raises(RuntimeError, match=f"^{want}$"):
            run_ensemble(chain_plan(2, 1.0, 0.0, 0.5), (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_a_caller_that_stops_the_ensemble_reaps_every_worker(monkeypatch):
    pids = forked(monkeypatch)
    monkeypatch.setattr(trajectory, "BATCH_AMPS", 8)
    cfg = RunConfig(t_final=2.0, N_t=4, N_traj=20, seed=2)

    def stop(traj_id, codes):
        raise KeyError("the caller stopped")

    with pytest.raises(KeyError, match="the caller stopped"):
        run_ensemble(chain_plan(2, 1.0, 0.0, 0.5), (ContactSpec(1, 0.5, 0.0),), cfg, (0,), workers=2,
                     events=stop)
    assert len(pids) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert rows_of(rec.events, contacts, 5)[:, :4].tolist() == acting


def test_batch_rows_match_lone_trajectories():
    plan = chain_plan(3, 3.0, 10.0, 0.5)
    contacts = (ContactSpec(0, 0.5, 1.0), ContactSpec(1, 0.5, 0.5), ContactSpec(2, 0.5, 0.0))
    cfg = RunConfig(t_final=5.0, N_t=10, seed=4)
    batch = run_trajectory(plan, contacts, cfg, (0,), traj_id=2, count=4)
    events = rows_of(batch.events, contacts, 2)
    for b in range(4):
        lone = run_trajectory(plan, contacts, cfg, (0,), traj_id=2 + b)
        assert np.max(np.abs(batch.density[b] - lone.density[0])) <= 1e-14
        assert np.array_equal(events[events[:, 0] == 2 + b], rows_of(lone.events, contacts, 2 + b))


def test_the_batch_record_stays_compact():
    # a batch shaped like the contacts-l8 benchmark's: 100 rows of L = 8
    # with a contact on every site; its events take one byte per (row,
    # step, contact) whatever the rates, so the record is its densities
    plan = chain_plan(8, 3.0, 10.0, 0.5)
    contacts = tuple(ContactSpec(q, 0.9, float((q + 1) % 2)) for q in range(8))
    cfg = RunConfig(t_final=20.0, N_t=40, seed=2)
    rec = run_trajectory(plan, contacts, cfg, (0, 2, 4, 6), 0, 100)
    assert len(rows_of(rec.events, contacts)) > 100 * 40 * 8 / 4
    assert len(pickle.dumps(rec)) <= rec.density.nbytes + 100 * 40 * 8 + 4096


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
