"""Trotter step of the chain Hamiltonian as bond-local gates, plus an
exact dense propagator used as an independent oracle.

The first-order step is prod_s exp(-i theta_s P_s), theta_s = coeff_s *
dt, in term order.  Consecutive XX and YY terms on one bond commute and
fuse into one bond gate; each run of consecutive I/Z strings commutes and
fuses into one diagonal phase vector, identity strings included, so
(step)^N matches exp(-i H t) with its global phase.  Any other string is
rejected: Pauli strings are the verification format
(`PauliTerm.to_matrix`) only.

The symmetric step splits dt into two halves S(dt/2) around the contact
actions, with S(tau) the term-order sweep at tau/2 followed by the
reversed sweep at tau/2, the two middle gates merged: second order in
dt, for the unitary and for its splitting from the contacts.

The kernel acts in place on C-contiguous amplitudes of shape (2^L,) or
(B, 2^L) alike: bond q reshapes them to (-1, 4, 2^q), which runs over
the rows of a batch, so its inner loops are 2^q amplitudes long.  With
K = L // 2, the bonds with q + 1 < K would run on short loops, so each
run of consecutive such bonds works on a transposed copy: the
amplitudes viewed as (B, 2^(L-K), 2^K) and transposed to
(B, 2^K, 2^(L-K)).  There qubit q < K is bit q + L - K, and bond q
mixes runs of 2^(q+L-K) amplitudes.  The copy is written back at the
end of the run.  Each amplitude meets the same operations in the same
order, so the result is bit-identical to the in-place sweep.

The copy is used when K >= 3 (L >= 6) and the array holds at least
TRANSPOSE_MIN_AMPS amplitudes, which depends on nothing but L and the
array's shape.  Below that, `apply_step` timings at L = 3..20 showed
the two extra passes cost as much as the longer loops save or more:
one state at L = 6, 7 and batches at L = 4, 5 ran 2-10% slower with
the copy, while batches from L = 6 and one state from L = 10 ran
10-35% faster.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import MAX_DENSE_QUBITS, PauliHamiltonian

# the smallest array, B * 2^L amplitudes, whose low bonds run transposed
TRANSPOSE_MIN_AMPS = 1 << 10


class BondGate(NamedTuple):
    """exp(-i a XX) exp(-i b YY) on qubits (q, q+1): a rotation by
    hop = a+b on the |01>,|10> pair and by pair = a-b on |00>,|11>."""

    q: int
    hop: float
    pair: float


@dataclass(frozen=True)
class TrotterPlan:
    """The step as bond gates and phase vectors, applied in order.  A
    symmetric plan holds the half step S(dt/2), applied once before and
    once after the contact actions."""

    L: int
    dt: float
    gates: tuple[BondGate | np.ndarray, ...]
    symmetric: bool = False


def build_step(h: PauliHamiltonian, dt: float, symmetric: bool = False) -> TrotterPlan:
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    # [q, a, b] for a bond, {Z mask: angle} for a run of I/Z strings
    ops: list = []
    tau = dt / 4 if symmetric else dt
    for term in h.terms:
        letters, theta = term.letters, term.coeff * tau
        support = [q for q, c in enumerate(letters) if c != "I"]
        if all(letters[q] == "Z" for q in support):
            if not (ops and isinstance(ops[-1], dict)):
                ops.append({})
            ops[-1][sum(1 << q for q in support)] = theta
        elif len(support) == 2 and letters[support[0]:support[1] + 1] in ("XX", "YY"):
            q = support[0]
            if not (ops and isinstance(ops[-1], list) and ops[-1][0] == q):
                ops.append([q, 0.0, 0.0])
            ops[-1][1 if letters[q] == "X" else 2] += theta
        else:
            raise ValueError(f"Pauli string {letters!r} is neither XX/YY on a bond nor I/Z only")
    if symmetric and ops:
        # the sweep, its middle op at twice the angle, then the sweep reversed
        mid = ops[-1]
        mid = [mid[0], 2 * mid[1], 2 * mid[2]] if isinstance(mid, list) else {
            k: 2 * v for k, v in mid.items()}
        ops = ops[:-1] + [mid] + ops[-2::-1]
    gates = tuple(
        BondGate(op[0], op[1] + op[2], op[1] - op[2]) if isinstance(op, list)
        else _phase_vector(op, h.L) for op in ops
    )
    return TrotterPlan(L=h.L, dt=dt, gates=gates, symmetric=symmetric)


def _phase_vector(angles: dict[int, float], L: int) -> np.ndarray:
    # a Z string has eigenvalue (-1)^popcount(k & mask) on basis state k
    k = np.arange(1 << L, dtype=np.uint32)
    phi = np.zeros(1 << L)
    for mask, theta in angles.items():
        phi += np.where(np.bitwise_count(k & np.uint32(mask)) & 1, -theta, theta)
    return np.exp(-1j * phi)


def _mix(pair: np.ndarray, theta: float) -> None:
    # pair[:, 0], pair[:, 1] <- cos * each - i sin * the other, in place
    swapped = pair[:, ::-1] * (-1j * math.sin(theta))
    pair *= math.cos(theta)
    pair += swapped


def _sweep(amps: np.ndarray, gates, shift: int = 0) -> None:
    # the gates in order, bond q on bits (q + shift, q + 1 + shift)
    for g in gates:
        if isinstance(g, BondGate):
            # axis 1 holds bits (q+1, q): 1 is |01>, 2 is |10>, 0 and 3 are |00>, |11>
            v = amps.reshape(-1, 4, 1 << (g.q + shift))
            _mix(v[:, 1:3], g.hop)
            if g.pair != 0.0:
                _mix(v[:, ::3], g.pair)
        else:
            amps *= g


def apply_step(amps: np.ndarray, plan: TrotterPlan) -> None:
    """Apply the plan's gates in place to C-contiguous (2^L,) or
    (B, 2^L) amplitudes: the whole step, or for a symmetric plan one
    half of it."""
    L, K = plan.L, plan.L // 2
    if amps.shape[-1] != 1 << L:
        raise ValueError(f"plan size {L} needs {1 << L} amplitudes, got {amps.shape[-1]}")
    if not amps.flags.c_contiguous:
        raise ValueError("apply_step works in place and needs a C-contiguous array")
    if K < 3 or amps.size < TRANSPOSE_MIN_AMPS:
        _sweep(amps, plan.gates)
        return
    for low, run in itertools.groupby(plan.gates, lambda g: isinstance(g, BondGate) and g.q + 1 < K):
        if low:
            # the amplitudes as (B, 2^K, 2^(L-K)), where qubit q < K is bit q + L - K
            grid = amps.reshape(-1, 1 << (L - K), 1 << K)
            t = grid.transpose(0, 2, 1).copy()
            _sweep(t, run, L - K)
            grid[...] = t.transpose(0, 2, 1)
            del t  # freed before the next run makes its copy
        else:
            _sweep(amps, run)


def exact_propagator_oracle(h: PauliHamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) by Hermitian eigendecomposition of the dense matrix.
    Verification oracle only; independent of the bond-gate kernel."""
    if h.L > MAX_DENSE_QUBITS:
        raise ValueError(f"dense propagator limited to L <= {MAX_DENSE_QUBITS}")
    H = h.to_matrix()
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T
