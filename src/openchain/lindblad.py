"""Dense Lindblad master-equation oracle.

The trajectory method (unitary step + random measure-and-reset at the
contacts) realizes, in the continuum limit, a Lindblad equation whose
jump operators per contact are

    L0 = sqrt(r_in)  c_dag     L1 = sqrt(r_out) c
    L2 = sqrt(r_in)  n         L3 = sqrt(r_out) n_bar

with r_in = Gamma*f, r_out = Gamma*(1-f), n = c_dag c, n_bar = c c_dag.
L2/L3 are the depolarizing channels produced by the measurement itself;
they are on by default so the oracle matches what the trajectories
actually sample.  Integration is fixed-step RK4 on the dense density
matrix, with Hermiticity restored by symmetrization each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import fermion_lowering

MAX_LINDBLAD_QUBITS = 8
STABILITY_LIMIT = 0.1


@dataclass
class DensityMatrix:
    L: int
    rho: np.ndarray

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2.0)[0])

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)


@dataclass(frozen=True)
class ContactJumps:
    """Jump operators of one contact, already scaled by sqrt(rate)."""

    q: int
    L0: np.ndarray  # sqrt(r_in)  c_dag
    L1: np.ndarray  # sqrt(r_out) c
    L2: np.ndarray | None  # sqrt(r_in)  n
    L3: np.ndarray | None  # sqrt(r_out) n_bar


@dataclass(frozen=True)
class JumpOperatorSet:
    L: int
    contacts: tuple[ContactJumps, ...]
    include_depolarizing: bool

    def all_ops(self) -> list[np.ndarray]:
        ops = []
        for c in self.contacts:
            ops.append(c.L0)
            ops.append(c.L1)
            if c.L2 is not None:
                ops.append(c.L2)
            if c.L3 is not None:
                ops.append(c.L3)
        return ops


def build_jump_operators(contacts, L: int, include_depolarizing: bool = True) -> JumpOperatorSet:
    """Dense jump operators for each contact, in the same Jordan-Wigner
    basis as the state engine (sign strings included)."""
    if L > MAX_LINDBLAD_QUBITS:
        raise ValueError(f"dense Lindblad oracle limited to L <= {MAX_LINDBLAD_QUBITS}")
    built = []
    for c in contacts:
        r_in = c.Gamma * c.f
        r_out = c.Gamma * (1.0 - c.f)
        low = fermion_lowering(c.q, L)
        raise_ = low.conj().T
        n = raise_ @ low
        n_bar = low @ raise_
        built.append(
            ContactJumps(
                q=c.q,
                L0=math.sqrt(r_in) * raise_,
                L1=math.sqrt(r_out) * low,
                L2=math.sqrt(r_in) * n if include_depolarizing else None,
                L3=math.sqrt(r_out) * n_bar if include_depolarizing else None,
            )
        )
    return JumpOperatorSet(L, tuple(built), include_depolarizing)


def lindblad_rhs(rho: np.ndarray, H: np.ndarray, jumps: JumpOperatorSet) -> np.ndarray:
    """-i[H, rho] + sum_a (L_a rho L_a^dag - 1/2 {L_a^dag L_a, rho})."""
    out = -1j * (H @ rho - rho @ H)
    for Lop in jumps.all_ops():
        Ld = Lop.conj().T
        LdL = Ld @ Lop
        out += Lop @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


@dataclass
class LindbladResult:
    times: np.ndarray  # (T,)
    rhos: list[DensityMatrix]
    densities: np.ndarray  # (T, L)
    max_trace_drift: float
    max_hermiticity_defect: float
    min_eigenvalue: float


def site_density(rho: DensityMatrix, q: int) -> float:
    """tr(rho n_q): sum of diagonal entries with bit q set."""
    if not 0 <= q < rho.L:
        raise ValueError(f"qubit index {q} out of range")
    diag = np.diag(rho.rho)
    mask = (np.arange(diag.size) >> q) & 1
    val = complex(np.sum(diag[mask == 1]))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"density has imaginary part {val.imag:.3e}")
    return float(np.clip(val.real, -1e-9, 1.0 + 1e-9))


def _all_site_densities(rho: DensityMatrix) -> np.ndarray:
    return np.array([site_density(rho, q) for q in range(rho.L)])


def stability_bound(H: np.ndarray, jumps: JumpOperatorSet) -> float:
    """Crude Lipschitz bound on the generator, for step-size validation."""
    bound = 2.0 * np.linalg.norm(H, 2)
    for Lop in jumps.all_ops():
        bound += 2.0 * np.linalg.norm(Lop, 2) ** 2
    return float(bound)


def integrate(
    rho0: DensityMatrix,
    H: np.ndarray,
    jumps: JumpOperatorSet,
    t_final: float,
    steps: int,
    record_every: int = 1,
) -> LindbladResult:
    """Fixed-step RK4 integration of the master equation.

    Records rho at step multiples of `record_every` (plus t=0), so with
    steps = N_t * s and record_every = s * k the grid matches a
    trajectory run with N_t steps recorded every k.
    """
    if steps < 1 or steps % record_every != 0:
        raise ValueError("steps must be a positive multiple of record_every")
    dt = t_final / steps
    if stability_bound(H, jumps) * dt >= STABILITY_LIMIT:
        raise ValueError(
            f"RK4 step too large: bound*dt = {stability_bound(H, jumps) * dt:.3g} "
            f">= {STABILITY_LIMIT}; increase steps"
        )

    rho = rho0.rho.astype(complex).copy()
    L = rho0.L
    n_rec = steps // record_every + 1
    times = np.empty(n_rec)
    rhos = [DensityMatrix(L, rho.copy())]
    times[0] = 0.0

    max_drift = abs(np.trace(rho).real - 1.0)
    max_herm = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = DensityMatrix(L, rho).min_eigenvalue()

    row = 1
    for step in range(1, steps + 1):
        k1 = lindblad_rhs(rho, H, jumps)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, H, jumps)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, H, jumps)
        k4 = lindblad_rhs(rho + dt * k3, H, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = (rho + rho.conj().T) / 2.0
        if step % record_every == 0:
            dm = DensityMatrix(L, rho.copy())
            times[row] = step * dt
            rhos.append(dm)
            row += 1
            max_drift = max(max_drift, abs(dm.trace() - 1.0))
            max_herm = max(max_herm, dm.hermiticity_defect())
            min_eig = min(min_eig, dm.min_eigenvalue())

    densities = np.stack([_all_site_densities(dm) for dm in rhos])
    return LindbladResult(
        times=times,
        rhos=rhos,
        densities=densities,
        max_trace_drift=max_drift,
        max_hermiticity_defect=max_herm,
        min_eigenvalue=min_eig,
    )

