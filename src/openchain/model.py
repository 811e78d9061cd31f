"""Spinless-fermion chain Hamiltonian and its qubit (Pauli-string) form.

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

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

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
class PauliTerm:
    """One real-coefficient Pauli string, e.g. 0.5 * XXI."""

    coeff: float
    letters: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.coeff):
            raise ValueError("coefficient must be finite")
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")

    @property
    def L(self) -> int:
        return len(self.letters)

    def to_matrix(self) -> np.ndarray:
        # letters[q] acts on bit q, so bit 0 is the last Kronecker factor
        mats = [PAULI_1Q[c] for c in reversed(self.letters)]
        return self.coeff * reduce(np.kron, mats)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Ordered sum of Pauli terms on an L-qubit register."""

    L: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        seen = set()
        for t in self.terms:
            if t.L != self.L:
                raise ValueError("all terms must have the register length")
            if t.letters in seen:
                raise ValueError(f"duplicate Pauli string {t.letters}")
            seen.add(t.letters)

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.L
        H = np.zeros((dim, dim), dtype=complex)
        for t in self.terms:
            H += t.to_matrix()
        return H


def build_chain_hamiltonian(spec: ChainSpec) -> PauliHamiltonian:
    """Jordan-Wigner image of the chain Hamiltonian.

    Hopping on bond (q, q+1) maps to (gamma/2)(X_q X_{q+1} + Y_q Y_{q+1});
    the interaction n_q n_{q+1} maps to (v/4)(I - Z_q)(I - Z_{q+1})
    expanded into Pauli strings.  Constant (all-identity) terms are kept
    so the spectrum matches the Fock-space oracle exactly.  Term order is
    deterministic: hopping bonds ascending (XX before YY), then the
    interaction strings in first-appearance order.
    """
    coeffs: dict[str, float] = {}  # insertion-ordered merge of equal strings

    def add(coeff: float, positions: dict[int, str]) -> None:
        key = "".join(positions.get(q, "I") for q in range(spec.L))
        coeffs[key] = coeffs.get(key, 0.0) + coeff

    if spec.gamma != 0.0:
        for b in range(spec.L - 1):
            add(spec.gamma / 2.0, {b: "X", b + 1: "X"})
            add(spec.gamma / 2.0, {b: "Y", b + 1: "Y"})
    if spec.v != 0.0:
        for b in range(spec.L - 1):
            add(spec.v / 4.0, {})
            add(-spec.v / 4.0, {b: "Z"})
            add(-spec.v / 4.0, {b + 1: "Z"})
            add(spec.v / 4.0, {b: "Z", b + 1: "Z"})
    return PauliHamiltonian(spec.L, tuple(PauliTerm(c, s) for s, c in coeffs.items()))


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
    ops = [PAULI_1Q["Z"]] * q + [lower] + [PAULI_1Q["I"]] * (L - q - 1)
    return reduce(np.kron, reversed(ops))


def fock_matrix_oracle(spec: ChainSpec) -> np.ndarray:
    """Chain Hamiltonian built directly from fermionic matrices.

    Independent of the Pauli-string path: the compare-mode oracle runs
    on it, and the tests pin the Jordan-Wigner conventions against it.
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
