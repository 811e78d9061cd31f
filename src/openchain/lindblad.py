"""Lindblad master-equation oracle on the particle-number blocks.

The trajectory method (unitary step + random measure-and-reset at the
contacts) realizes, in the continuum limit, a Lindblad equation whose
jump operators per contact are

    L0 = sqrt(r_in)  c_dag     L1 = sqrt(r_out) c
    L2 = sqrt(r_in)  n         L3 = sqrt(r_out) n_bar

with r_in = Gamma*f, r_out = Gamma*(1-f), n = c_dag c, n_bar = c c_dag.
L2/L3 are the depolarizing channels produced by the measurement itself;
they are on by default so the oracle matches what the trajectories
actually sample.

The operators are stacked into one (n_ops, 2^L, 2^L) array J, and the
generator is built once per integration in the standard form

    d rho/dt = -i (H_eff rho - rho H_eff^dag) + sum_a J_a rho J_a^dag,
    H_eff = H - (i/2) sum_a J_a^dag J_a.

The chain Hamiltonian conserves the particle number N and each jump
operator changes it by at most one on both sides of rho, so the
generator maps the sector of entries rho_ij with N(i) == N(j), the
particle-number-diagonal blocks, into itself (Buca & Prosen, New J.
Phys. 14, 073007, 2012).  The sector has C(2L, L) entries against 4^L.
`integrate` requires rho0 to lie in it and works there alone: it builds
the generator as a C(2L, L) square matrix G, one `lindblad_rhs` column
per sector entry, and the fixed-step RK4 substep as the polynomial
P = I + A + A^2/2 + A^3/6 + A^4/24 of A = h G.  One grid step between
records is then the single map M = P^(substeps * record_every), and
each record costs one matrix-vector product.  The reported Hermiticity
defect is that of M's output, before symmetrization restores
Hermiticity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import fermion_lowering

MAX_LINDBLAD_QUBITS = 8
# RK4 substeps h are chosen so that stability_bound * h <= RK4_STEP
RK4_STEP = 0.09
# integrate rejects rho0 with a larger entry off the particle-number blocks
OFF_BLOCK_TOL = 1e-14
# the oracle's part that does not scale with its matrices: the sector's
# index arrays, the records and small arrays; tracemalloc measured 5 to
# 10 KiB of peak beyond the matrices at L = 1 and 2
ORACLE_FIXED_BYTES = 12 << 10


def build_jump_operators(contacts, L: int, include_depolarizing: bool = True) -> np.ndarray:
    """Dense jump operators stacked as (n_ops, 2^L, 2^L): L0, L1 (and L2,
    L3 with the depolarizing channels) of each contact in turn, in the
    same Jordan-Wigner basis as the state engine (sign strings included)."""
    if L > MAX_LINDBLAD_QUBITS:
        raise ValueError(f"dense Lindblad oracle limited to L <= {MAX_LINDBLAD_QUBITS}")
    ops = []
    for c in contacts:
        r_in = c.Gamma * c.f
        r_out = c.Gamma * (1.0 - c.f)
        low = fermion_lowering(c.q, L)
        raise_ = low.conj().T
        ops += [math.sqrt(r_in) * raise_, math.sqrt(r_out) * low]
        if include_depolarizing:
            ops += [math.sqrt(r_in) * (raise_ @ low), math.sqrt(r_out) * (low @ raise_)]
    return np.array(ops, dtype=complex).reshape(len(ops), 1 << L, 1 << L)


def build_generator(H: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_eff, J, J^dag): the arguments of `lindblad_rhs` after rho."""
    J_dag = J.conj().transpose(0, 2, 1)
    return H - 0.5j * np.sum(J_dag @ J, axis=0), J, J_dag


def lindblad_rhs(rho: np.ndarray, H_eff: np.ndarray, J: np.ndarray, J_dag: np.ndarray) -> np.ndarray:
    """-i (H_eff rho - rho H_eff^dag) + sum_a J_a rho J_a^dag."""
    return -1j * (H_eff @ rho - rho @ H_eff.conj().T) + np.sum(J @ rho @ J_dag, axis=0)


def stability_bound(H: np.ndarray, J: np.ndarray) -> float:
    """Crude Lipschitz bound on the generator, for the RK4 step size."""
    bound = 2.0 * np.linalg.norm(H, 2)
    for op in J:
        bound += 2.0 * np.linalg.norm(op, 2) ** 2
    return float(bound)


@dataclass
class LindbladResult:
    times: np.ndarray  # (T,)
    rho: np.ndarray  # final density matrix
    densities: np.ndarray  # (T, L)
    max_trace_drift: float
    max_hermiticity_defect: float
    min_eigenvalue: float


def _record_step_map(H: np.ndarray, J: np.ndarray, sector: np.ndarray, h: float,
                     power: int) -> np.ndarray:
    """P^power on the sector's flat indices, P the RK4 substep of size h."""
    d, D = H.shape[0], sector.size
    gen = build_generator(H, J)
    A = np.empty((D, D), dtype=complex)
    basis = np.zeros(d * d, dtype=complex)
    for c, k in enumerate(sector):  # column c: the generator on basis matrix c
        basis[k] = 1.0
        A[:, c] = lindblad_rhs(basis.reshape(d, d), *gen).ravel()[sector]
        basis[k] = 0.0
    A *= h
    # Horner: I + A (I + A/2 (I + A/3 (I + A/4)))
    P = A / 4.0
    P.flat[:: D + 1] += 1.0
    for k in (3.0, 2.0, 1.0):
        P = A @ P
        P /= k
        P.flat[:: D + 1] += 1.0
    del A
    return np.linalg.matrix_power(P, power)


def oracle_bytes(contacts, L: int, include_depolarizing: bool) -> int:
    """The peak bytes of build_jump_operators and integrate: the
    record-step propagator on the C(2L, L) entries of the particle-number
    blocks, four such square matrices at the peak of its powering
    (0.70 GiB at L = 7, 9.9 GiB at L = 8), plus the jump stack, its
    adjoint and the two J rho J^dag temporaries, plus ORACLE_FIXED_BYTES.
    With two contacts, tracemalloc measured 0.96 and 0.99 of it at L = 5
    and 6, and 0.58 to 0.84 at L = 1 and 2."""
    n_ops = len(contacts) * (4 if include_depolarizing else 2)
    D = math.comb(2 * L, L)
    return 16 * (4 * D * D + (4 * n_ops << 2 * L)) + ORACLE_FIXED_BYTES


def integrate(
    rho0: np.ndarray,
    H: np.ndarray,
    J: np.ndarray,
    t_final: float,
    N_t: int,
    record_every: int = 1,
) -> LindbladResult:
    """RK4 integration of the master equation on a trajectory run's grid.

    The grid has N_t steps of t_final / N_t and a record at every
    `record_every`-th step plus t = 0, as a trajectory run with the same
    values.  Each grid step is split into the fewest equal RK4 substeps
    h with stability_bound * h <= RK4_STEP.  rho0 must lie on the
    particle-number-diagonal blocks; the returned rho is zero off them.
    """
    if N_t < 1 or N_t % record_every != 0:
        raise ValueError("N_t must be a positive multiple of record_every")
    rho = np.array(rho0, dtype=complex)
    L = rho.shape[0].bit_length() - 1
    bits = (np.arange(1 << L)[:, None] >> np.arange(L)) & 1
    N = bits.sum(axis=1)
    on_blocks = N[:, None] == N
    if np.max(np.abs(rho[~on_blocks]), initial=0.0) > OFF_BLOCK_TOL:
        raise ValueError("rho0 has weight off the particle-number-diagonal blocks")
    sector = np.flatnonzero(on_blocks)
    substeps = max(1, math.ceil(stability_bound(H, J) * (t_final / N_t) / RK4_STEP))
    steps = N_t * substeps
    every = substeps * record_every
    dt = t_final / steps
    M = _record_step_map(H, J, sector, dt, every)

    times = dt * np.arange(0, steps + 1, every)
    diags = np.empty((times.size, rho.shape[0]))
    diags[0] = rho.diagonal().real
    max_drift = abs(np.trace(rho).real - 1.0)
    max_herm = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])

    v = rho.ravel()[sector]
    for r in range(1, times.size):
        rho = np.zeros_like(rho)
        rho.ravel()[sector] = M @ v
        # the map's own defect, before symmetrization removes it
        max_herm = max(max_herm, float(np.max(np.abs(rho - rho.conj().T))))
        rho = (rho + rho.conj().T) / 2.0  # exactly Hermitian, so its diagonal is real
        v = rho.ravel()[sector]
        diags[r] = rho.diagonal().real
        max_drift = max(max_drift, abs(np.trace(rho).real - 1.0))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(rho)[0]))

    return LindbladResult(
        times=times,
        rho=rho,
        densities=diags @ bits,
        max_trace_drift=max_drift,
        max_hermiticity_defect=max_herm,
        min_eigenvalue=min_eig,
    )
