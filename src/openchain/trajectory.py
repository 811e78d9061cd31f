"""Open-system trajectory engine: per step the Trotter step (for a
symmetric plan, its two halves around the contacts), per-contact random
injection/removal via measure-and-reset, and the ensemble average.

Batches.  Trajectories run in batches, each the rows of one (B, 2^L)
state with B * 2^L about BATCH_AMPS amplitudes; `batches(L, N_traj)`
cuts 0 .. N_traj - 1 into the fewest such batches, their sizes as equal
as possible.  The partition depends only on L and N_traj, the pool hands
out whole batches, and the ensemble folds them in trajectory order, so
the result is byte-identical for any worker count.

Fold.  The ensemble takes each batch as it arrives, in trajectory order,
folds it into running statistics and drops it; at most procs + 1
batches are submitted ahead of the one being folded, so the calling
process holds a window of batches, never N_traj trajectories.  The
records are summed row after row in trajectory order, which is
`stack.mean(axis=0)` of all N_traj rows bit for bit.  The spread is a
two-pass M2 per batch about the first batch's mean, combined in batch
order by Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983); the batches
are fixed by L and N_traj, so it too is the same for any worker count.
For one batch it is `stack.std(ddof=1)` bit for bit; over several it
differs from that in the last digits, and a long-double two-pass
reference put it closer (largest relative errors 2.7e-14 against
5.5e-14 on the compare-l3 preset's 8000 trajectories).

BATCH_AMPS = 2^15 comes from the cost per row of one first-order step
(apply_step, one reset_to call, all_densities) against the batch size,
with contacts (Gamma dt = 0.45) at the two ends / on every site, in us;
2-core Intel Xeon host, one BLAS thread, the three sizes interleaved,
median of 15 rounds of 10 steps:

| L | 2^14 amplitudes | 2^15 | 2^16 |
|---|---|---|---|
| 3 | 0.4 / 0.6 | 0.4 / 0.5 | 0.4 / 0.6 |
| 6 | 2.6 / 3.8 | 2.2 / 3.2 | 2.1 / 3.1 |
| 8 | 6.5 / 15.5 | 5.6 / 12.7 | 5.3 / 11.5 |
| 10 | 31.2 / 69.5 | 25.1 / 56.7 | 31.5 / 56.6 |
| 12 | 105 / 279 | 90 / 236 | 94 / 218 |
| 14 | 392 / 928 | 365 / 877 | 391 / 927 |

2^15 is 10-20% cheaper than 2^14 from L = 6 to 12; a repeat run
agreed to about 15%, except L = 10 on every site (108 / 83 / 82).
2^16 gains little more and halves the batches a pool can spread over
its workers: 200 trajectories of L = 8 would be a single batch.

Draw discipline.  Trajectory k draws from its own stream (seed, k).
Every (step, contact) takes exactly two uniforms from it, the action
first and then the measurement, whether the contact acts, does nothing
or meets a forced outcome.  A batch holds one RngStream for all its
rows and draws up to DRAW_CHUNK uniforms at a time, one
(rows, steps, contacts, 2) block per call, row b from stream
traj_id + b; consecutive blocks are the numbers one long draw would
give, so the chunk size changes nothing.

Contact events are one (count, N_t, contacts) int8 array per batch,
one code per (trajectory, step, contact): 2 * target + changed where
the contact acted and -1 where it did not, N_t * contacts bytes per
trajectory whatever the rates.  `event_rows` is the only reader of
that layout: the ensemble expands each batch's codes into (traj, step,
q, target, changed) rows about EVENTS_BLOCK at a time, hands them to
its caller and keeps none.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .state import RngStream, all_densities, init_basis_state, reset_to
from .trotter import TrotterPlan, apply_step

# amplitudes per batch, B * 2^L: 512 KiB of state, so B = 128 at L = 8
# and B = 1 from L = 15 up (see the table in the module docstring)
BATCH_AMPS = 1 << 15
# uniforms a batch draws at a time (128 KiB as float64, 0.75 MiB at the
# peak of RngStream.uniform), so the draws take bounded memory for any N_t
DRAW_CHUNK = 1 << 14
# event rows expanded from a batch's codes at a time, and formatted at a
# time by output.emit_events_csv: tracemalloc measured the writer's peak
# at 0.32 MiB for ids of up to 5 digits and 0.40 MiB for 19-digit ones
# (0.53 / 0.75 MiB at 4096 rows, where the calling process of the
# contacts-l8 benchmark peaked 0.4 MiB higher)
EVENTS_BLOCK = 2048
# (target, changed) of the event codes 0 .. 3, indexed by the code.  A
# table and np.unravel_index rather than shifts, masks and divmod, whose
# first use pages in more of numpy's loops: the calling process of the
# contacts-l8 and wide-l16 benchmark workloads peaked 0.2-0.3 MiB higher
# with them (2-core host, five runs each)
_DECODE = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)


@dataclass(frozen=True)
class ContactSpec:
    """One conductor attached to qubit q with coupling rate Gamma (meV)
    and occupation f in [0, 1] (f=1 pure source, f=0 pure drain)."""

    q: int
    Gamma: float
    f: float

    def __post_init__(self) -> None:
        if not (self.Gamma >= 0.0 and math.isfinite(self.Gamma)):
            raise ValueError(f"Gamma must be finite and >= 0, got {self.Gamma!r}")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"occupation f must be in [0, 1], got {self.f!r}")


@dataclass(frozen=True)
class RunConfig:
    t_final: float
    N_t: int
    N_traj: int = 1
    seed: int = 0
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (self.t_final > 0.0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be positive, got {self.t_final!r}")
        if self.N_t < 1:
            raise ValueError(f"N_t must be >= 1, got {self.N_t}")
        if self.N_traj < 1:
            raise ValueError(f"N_traj must be >= 1, got {self.N_traj}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    @property
    def dt(self) -> float:
        return self.t_final / self.N_t


@dataclass
class DensityRecord:
    """Site densities and contact events of one batch of trajectories."""

    times: np.ndarray  # (T,)
    density: np.ndarray  # (B, T, L)
    events: np.ndarray  # (B, N_t, contacts) int8 codes, read by event_rows


@dataclass
class EnsembleResult:
    times: np.ndarray  # (T,)
    mean_density: np.ndarray  # (T, L)
    stderr: np.ndarray  # (T, L)


def fermi_dirac(eps: float, mu: float, kT: float) -> float:
    """Occupation 1/(exp((eps-mu)/kT)+1); sharp step at kT=0 with value
    1/2 exactly at eps=mu."""
    if kT < 0.0:
        raise ValueError("kT must be >= 0")
    if kT == 0.0:
        if eps < mu:
            return 1.0
        if eps > mu:
            return 0.0
        return 0.5
    x = (eps - mu) / kT
    if x > 0.0:
        e = math.exp(-min(x, 745.0))
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def step_probabilities(c: ContactSpec, dt: float) -> tuple[float, float, float]:
    """(P_in, P_out, P_none) for one step of length dt.

    eta = Gamma*dt must not exceed 1.  The three values partition unity
    exactly: P_out is the remainder eta - P_in, and P_none the remainder
    1 - (P_in + P_out), so the floating-point sum is 1.0 bit for bit.
    """
    eta = c.Gamma * dt
    if eta > 1.0:
        raise ValueError(
            f"eta = Gamma*dt = {eta:.6g} exceeds 1 for contact on qubit {c.q}; "
            "increase N_t"
        )
    p_in = eta * c.f
    p_out = eta - p_in
    p_none = 1.0 - (p_in + p_out)
    return p_in, p_out, p_none


def validate_contacts(contacts, L: int, dt: float) -> list[str]:
    """All contact-level constraint violations, as readable strings."""
    errors = []
    eta_per_qubit: dict[int, float] = {}
    for i, c in enumerate(contacts):
        if not 0 <= c.q < L:
            errors.append(f"contacts[{i}]: qubit {c.q} out of range for L={L}")
            continue
        eta = c.Gamma * dt
        if eta > 1.0:
            errors.append(
                f"contacts[{i}]: eta = Gamma*dt = {eta:.6g} exceeds 1"
            )
        eta_per_qubit[c.q] = eta_per_qubit.get(c.q, 0.0) + eta
    for q, eta in eta_per_qubit.items():
        if eta > 1.0:
            errors.append(f"total eta on qubit {q} is {eta:.6g} > 1")
    return errors


def batch_count(L: int, n_traj: int) -> int:
    """The fewest batches of at most BATCH_AMPS >> L trajectories."""
    return -(-n_traj // max(1, BATCH_AMPS >> L))


def batches(L: int, n_traj: int):
    """(first id, count) of every batch in order, their sizes as equal
    as possible, one at a time, so the partition takes no memory for
    any n_traj.  Depends on nothing but L and n_traj."""
    n = batch_count(L, n_traj)
    size, extra = divmod(n_traj, n)
    for i in range(n):
        yield i * size + min(i, extra), size + (i < extra)


def chunk_steps(count: int, n_contacts: int) -> int:
    """Steps whose uniforms a batch of `count` draws at a time."""
    return max(1, DRAW_CHUNK // (2 * count * max(1, n_contacts)))


def run_trajectory(
    plan: TrotterPlan,
    contacts,
    cfg: RunConfig,
    init,
    traj_id: int = 0,
    count: int = 1,
) -> DensityRecord:
    """Trajectories traj_id .. traj_id + count - 1, evolved together as
    the rows of one (count, 2^L) state.

    Per step: apply the Trotter step, then for each contact in list
    order inject (reset to |1>), remove (reset to |0>) or do nothing per
    the step probabilities, every row by its own draws, all in one
    reset_to call (none when no contact acts on any row); a symmetric
    plan applies its half step once more after the contacts.  Densities
    are the exact state-vector expectations, recorded at the end of the
    step.  The events are one int8 code per (row, step, contact), 2 *
    target + changed where the contact acted and -1 where it did not;
    event_rows expands them.  The contacts are validated by
    run_ensemble; here eta > 1 is caught by step_probabilities and a
    bad qubit by reset_to.
    """
    rng = RngStream(cfg.seed, traj_id, count)
    state = np.tile(init_basis_state(plan.L, init), (count, 1))
    n_c = len(contacts)
    probs = np.array([step_probabilities(c, cfg.dt) for c in contacts]).reshape(n_c, 3)
    p_in, p_act = probs[:, 0], probs[:, 0] + probs[:, 1]
    qs = np.array([c.q for c in contacts], dtype=np.int64)

    n_records = cfg.N_t // cfg.record_every + 1
    times = np.arange(n_records) * cfg.record_every * cfg.dt
    density = np.empty((count, n_records, plan.L))
    density[:, 0] = all_densities(state)
    events = np.empty((count, cfg.N_t, n_c), dtype=np.int8)

    row = 1
    chunk = chunk_steps(count, n_c)
    for start in range(0, cfg.N_t, chunk):
        n = min(chunk, cfg.N_t - start)
        # (count, n, contacts, {action, measurement}), from each row's stream
        u = rng.uniform((n, n_c, 2))
        target = np.where(u[..., 0] < p_in, 1, np.where(u[..., 0] < p_act, 0, -1)).astype(np.int8)
        measured = np.full_like(target, -1)
        acts = (target >= 0).any(axis=(0, 2)).tolist()
        for j in range(n):
            step = start + j + 1
            apply_step(state, plan)
            if acts[j]:
                measured[:, j] = reset_to(state, qs, target[:, j], u[:, j, :, 1]).measured
            if plan.symmetric:
                apply_step(state, plan)
            if step % cfg.record_every == 0:
                density[:, row] = all_densities(state)
                row += 1
        events[:, start:start + n] = np.where(target >= 0, 2 * target + (measured != target), -1)
    return DensityRecord(times, density, events)


def event_rows(codes: np.ndarray, traj_id: int, qs):
    """The events of a batch's (count, N_t, contacts) codes as (E, 5)
    int64 rows (traj, step, q, target, changed), in trajectory, step and
    contact-list order; the batch's rows are trajectories traj_id ..
    traj_id + count - 1 and contact i acts on qubit qs[i].  The rows
    come in the fewest blocks of about EVENTS_BLOCK rows: the codes are
    cut into that many equal slices, so a block holds its share of the
    events at the batch's mean rate.  A batch with any contact yields
    at least one block."""
    qs = np.asarray(qs, dtype=np.int64)
    flat = codes.reshape(-1)
    n_blocks = max(1, -(-np.count_nonzero(flat >= 0) // EVENTS_BLOCK))
    span = max(1, -(-flat.size // n_blocks))
    for start in range(0, flat.size, span):
        piece = flat[start:start + span]
        at = np.flatnonzero(piece >= 0)
        traj, step, contact = np.unravel_index(at + start, codes.shape)
        yield np.column_stack((traj + traj_id, step + 1, qs[contact], _DECODE[piece[at]]))


# -- parallel ensemble -------------------------------------------------

_WORKER: dict = {}


def _init_worker(plan, contacts, cfg, init):
    _WORKER["args"] = (plan, contacts, cfg, init)


def _run_batch(batch: tuple[int, int]) -> DensityRecord:
    return run_trajectory(*_WORKER["args"], *batch)


def _records(plan, contacts, cfg, init, todo, procs: int):
    """The records of the batches `todo`, in order.  With procs = 1 they
    run in this process; otherwise a pool of `procs` processes runs them,
    with at most procs + 1 batches submitted beyond the one handed out."""
    if procs == 1:
        # nothing to spread: a pool would only add its start-up and
        # shutdown while this process waits for its one worker
        for batch in todo:
            yield run_trajectory(plan, contacts, cfg, init, *batch)
        return
    with ProcessPoolExecutor(
        max_workers=procs,
        initializer=_init_worker,
        initargs=(plan, contacts, cfg, init),
    ) as pool:
        window = deque()
        for batch in todo:
            window.append(pool.submit(_run_batch, batch))
            if len(window) > procs + 1:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def default_workers() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one), capped at 8."""
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    return min(n, 8)


class _Fold:
    """The running statistics of an ensemble's records, folded one batch
    at a time in trajectory order."""

    def __init__(self) -> None:
        self.n = 0

    def add(self, density: np.ndarray) -> None:
        """Fold a batch's (B, T, L) records in; they are overwritten."""
        count = len(density)
        lo, hi = density.min(axis=0), density.max(axis=0)
        # the running sum, then the batch's rows one after another (a
        # reduction over the outer axis adds row by row); the first row is
        # put back for the spread
        first = density[0].copy()
        if self.n:
            density[0] += self.total
        self.total = np.add.reduce(density, axis=0)
        density[0] = first
        if not self.n:
            # the spread is taken about the first batch's mean: near it the
            # differences are exact, so a cell whose trajectories barely
            # differ keeps its digits through the combination below
            self.shift = self.total / count
        density -= self.shift
        mean = np.add.reduce(density, axis=0) / count
        if self.n:
            density -= mean
        # else the first batch's M2 is about its mean as np.std takes it, so
        # one batch gives np.std's spread bit for bit
        density *= density
        m2 = np.add.reduce(density, axis=0)
        if self.n:
            n = self.n + count
            delta = mean - self.mean
            self.mean += delta * (count / n)
            self.m2 += m2 + delta * delta * (self.n * count / n)
            np.minimum(self.lo, lo, out=self.lo)
            np.maximum(self.hi, hi, out=self.hi)
        else:
            self.mean, self.m2, self.lo, self.hi = mean, m2, lo, hi
        self.n += count

    def stderr(self) -> np.ndarray:
        if self.n == 1:
            return np.zeros_like(self.total)
        stderr = np.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n)
        # where every trajectory agrees bit for bit the spread is zero by
        # definition; mask out round-off residue from M2
        stderr[self.hi == self.lo] = 0.0
        return stderr


def run_ensemble(
    plan: TrotterPlan,
    contacts,
    cfg: RunConfig,
    init,
    workers: int | None = None,
    events=None,
) -> EnsembleResult:
    """Average cfg.N_traj independent trajectories.

    The trajectories run in the batches of `batches(L, N_traj)`, which
    no worker count changes, and each batch is folded in trajectory
    order as it arrives, so the result is bit-identical for any worker
    count.  With one worker or one batch the batches run in this
    process; otherwise a pool of min(workers, batches) processes runs
    them, at most one per batch, with at most one batch more than it
    has processes submitted ahead of the one being folded.  `workers`
    defaults to default_workers().  `events`, if given, is called with
    the event rows of `event_rows`, each batch's in its blocks, in
    trajectory order; nothing keeps them after the call.
    """
    errors = validate_contacts(contacts, plan.L, cfg.dt)
    if errors:
        raise ValueError("; ".join(errors))
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    todo = batches(plan.L, cfg.N_traj)
    procs = min(workers, batch_count(plan.L, cfg.N_traj))
    qs = [c.q for c in contacts]
    fold = _Fold()
    with contextlib.closing(_records(plan, contacts, cfg, init, todo, procs)) as records:
        for (traj_id, _), rec in zip(batches(plan.L, cfg.N_traj), records):
            times = rec.times
            fold.add(rec.density)
            codes = rec.events
            # free the spent records before the caller formats the rows, and
            # the codes before the next batch runs here
            del rec
            if events is not None:
                for rows in event_rows(codes, traj_id, qs):
                    events(rows)
            del codes
    return EnsembleResult(times=times, mean_density=fold.total / cfg.N_traj, stderr=fold.stderr())
