"""Spinless-fermion chain Hamiltonian, its Jordan-Wigner qubit form and
the dense Fock-space oracle that checks it.

Conventions used everywhere in this package:

* qubit q holds the occupation of chain site q+1 (sites are 1-based in
  configs and output, qubits 0-based internally),
* computational basis index j has bit q set iff qubit q is occupied,
  i.e. ``|1>`` means occupied and ``n = (I - Z)/2`` with ``Z|1> = -|1>``,
* dense operators act on amplitude vectors indexed that way (the last
  Kronecker factor acts on bit 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

# Dense Fock-space construction is a verification tool only; keep it small.
MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class ChainSpec:
    """Open-boundary chain of spinless fermions.

    L sites with nearest-neighbour hopping `gamma` and density-density
    interaction `v`, both in meV.
    """

    L: int
    gamma: float
    v: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.L, int) or self.L < 1:
            raise ValueError(f"chain length must be an integer >= 1, got {self.L!r}")
        if not (math.isfinite(self.gamma) and math.isfinite(self.v)):
            raise ValueError("gamma and v must be finite")


@dataclass(frozen=True)
class ChainHamiltonian:
    """Jordan-Wigner image of the chain, in the form the step runs.

    Every bond (q, q+1) carries the hopping (gamma/2)(X_q X_{q+1} +
    Y_q Y_{q+1}) and the interaction v n_q n_{q+1}, n = (I - Z)/2: a
    diagonal whose value on basis state k is v times the adjacent
    occupied pairs of k.
    """

    L: int
    gamma: float
    v: float


def build_chain_hamiltonian(spec: ChainSpec) -> ChainHamiltonian:
    """The chain in its Jordan-Wigner form."""
    return ChainHamiltonian(spec.L, spec.gamma, spec.v)


def _check_dense_size(L: int) -> None:
    if L > MAX_DENSE_QUBITS:
        raise ValueError(f"dense construction limited to L <= {MAX_DENSE_QUBITS}, got {L}")


def fermion_lowering(q: int, L: int) -> np.ndarray:
    """Dense annihilation operator c_q with the Jordan-Wigner sign string.

    The string runs over qubits p < q (the lower-significance bits), so
    these matrices anticommute correctly and match the basis ordering of
    the state engine.
    """
    if not 0 <= q < L:
        raise ValueError(f"qubit index {q} out of range for L={L}")
    _check_dense_size(L)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
    z = np.diag([1.0, -1.0]).astype(complex)
    ops = [z] * q + [lower] + [np.eye(2, dtype=complex)] * (L - q - 1)
    return reduce(np.kron, reversed(ops))


def fock_matrix_oracle(spec: ChainSpec) -> np.ndarray:
    """Chain Hamiltonian built directly from fermionic matrices.

    Independent of the Jordan-Wigner form the step runs: the compare-mode
    oracle runs on it, and the tests pin the Jordan-Wigner conventions
    against it.
    Hermitian by construction.
    """
    _check_dense_size(spec.L)
    dim = 1 << spec.L
    c = [fermion_lowering(q, spec.L) for q in range(spec.L)]
    cdag = [m.conj().T for m in c]
    n = [cdag[q] @ c[q] for q in range(spec.L)]
    H = np.zeros((dim, dim), dtype=complex)
    for b in range(spec.L - 1):
        H += spec.gamma * (cdag[b] @ c[b + 1] + cdag[b + 1] @ c[b])
        H += spec.v * (n[b] @ n[b + 1])
    return H
