"""Open-system trajectory loop: Trotter step, then per-contact random
injection/removal via measure-and-reset, and ensemble aggregation.

Contact events are one (E, 5) int64 array per trajectory, one row
(traj, step, q, target, changed) per reset; the ensemble concatenates
them in trajectory order.

Draw discipline: each (contact, step) consumes exactly one uniform for
the action choice, taken before any branch, and the measurement inside a
reset consumes a further draw from the same per-trajectory stream unless
the outcome is forced.  Trajectory k uses the stream (seed, k), so
results are independent of how trajectories are scheduled onto workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .state import RngStream, init_basis_state, all_densities, reset_to
from .trotter import TrotterPlan, apply_step


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
    """Site densities and contact events of one trajectory."""

    times: np.ndarray  # (T,)
    density: np.ndarray  # (T, L)
    events: np.ndarray  # (E, 5) int64 rows (traj, step, q, target, changed)


@dataclass
class EnsembleResult:
    times: np.ndarray  # (T,)
    mean_density: np.ndarray  # (T, L)
    stderr: np.ndarray  # (T, L)
    events: np.ndarray  # (E, 5) int64 rows (traj, step, q, target, changed)
    n_traj: int


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


def run_trajectory(
    plan: TrotterPlan,
    contacts,
    cfg: RunConfig,
    init,
    traj_id: int = 0,
) -> DensityRecord:
    """One stochastic trajectory.

    Per step: apply the Trotter step, then for each contact in list
    order draw one uniform and inject (reset to |1>), remove (reset to
    |0>) or do nothing per the step probabilities.  Densities are the
    exact state-vector expectations, recorded after the contact actions.
    The contacts are validated by run_ensemble; here eta > 1 is caught
    by step_probabilities and a bad qubit by reset_to.
    """
    rng = RngStream(cfg.seed, traj_id)
    state = init_basis_state(plan.L, init)
    probs = [step_probabilities(c, cfg.dt) for c in contacts]

    n_records = cfg.N_t // cfg.record_every + 1
    times = np.empty(n_records)
    density = np.empty((n_records, plan.L))
    times[0] = 0.0
    density[0] = all_densities(state)
    events = []

    row = 1
    for step in range(1, cfg.N_t + 1):
        apply_step(state, plan)
        for c, (p_in, p_out, _) in zip(contacts, probs):
            u = rng.uniform()
            if u < p_in:
                target = 1
            elif u < p_in + p_out:
                target = 0
            else:
                continue
            ev = reset_to(state, c.q, target, rng)
            events.append((traj_id, step, c.q, target, ev.changed))
        if step % cfg.record_every == 0:
            times[row] = step * cfg.dt
            density[row] = all_densities(state)
            row += 1
    return DensityRecord(times, density, np.array(events, dtype=np.int64).reshape(-1, 5))


# -- parallel ensemble -------------------------------------------------

_WORKER: dict = {}


def _init_worker(plan, contacts, cfg, init):
    _WORKER["args"] = (plan, contacts, cfg, init)


def _run_one(traj_id: int) -> DensityRecord:
    plan, contacts, cfg, init = _WORKER["args"]
    return run_trajectory(plan, contacts, cfg, init, traj_id)


def run_ensemble(
    plan: TrotterPlan,
    contacts,
    cfg: RunConfig,
    init,
    workers: int | None = None,
) -> EnsembleResult:
    """Average cfg.N_traj independent trajectories.

    The reduction is ordered by trajectory id, so the result is
    bit-identical for any worker count.  `workers` defaults to the cpu
    count capped at 8, and no more processes than trajectories start.
    """
    errors = validate_contacts(contacts, plan.L, cfg.dt)
    if errors:
        raise ValueError("; ".join(errors))
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, cfg.N_traj)
    ids = range(cfg.N_traj)
    if workers == 1:
        records = [run_trajectory(plan, contacts, cfg, init, k) for k in ids]
    else:
        chunk = max(1, cfg.N_traj // (workers * 8))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(plan, contacts, cfg, init),
        ) as pool:
            records = list(pool.map(_run_one, ids, chunksize=chunk))

    stack = np.stack([r.density for r in records])  # (N, T, L)
    mean = stack.mean(axis=0)
    if cfg.N_traj > 1:
        stderr = stack.std(axis=0, ddof=1) / math.sqrt(cfg.N_traj)
        # where every trajectory agrees bit for bit the spread is zero by
        # definition; mask out summation-order residue from np.std
        stderr[stack.max(axis=0) == stack.min(axis=0)] = 0.0
    else:
        stderr = np.zeros_like(mean)
    return EnsembleResult(
        times=records[0].times,
        mean_density=mean,
        stderr=stderr,
        events=np.concatenate([r.events for r in records]),
        n_traj=cfg.N_traj,
    )
