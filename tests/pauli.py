"""The chain's Jordan-Wigner image as Pauli strings, dense: the tests'
independent check of the form the step runs (`model.ChainHamiltonian`),
and the gauge frame the step runs in.

A string's letter q acts on qubit q, so bit 0 is the last Kronecker
factor, as in `model`'s conventions.
"""

from functools import reduce

import numpy as np

from openchain.trotter import WINDOW

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def chain_terms(spec) -> list[tuple[float, str]]:
    """(coeff, letters) of the chain: hopping (gamma/2)(X_q X_{q+1} +
    Y_q Y_{q+1}) per bond, XX before YY, then the interaction (v/4)(I -
    Z_q)(I - Z_{q+1}) expanded, equal strings merged in first-appearance
    order."""
    coeffs: dict[str, float] = {}

    def add(coeff, positions):
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
    return [(c, s) for s, c in coeffs.items()]


def string_matrix(letters: str) -> np.ndarray:
    return reduce(np.kron, [PAULI_1Q[c] for c in reversed(letters)])


def to_matrix(terms, L: int) -> np.ndarray:
    H = np.zeros((1 << L, 1 << L), dtype=complex)
    for coeff, letters in terms:
        H += coeff * string_matrix(letters)
    return H


def chain_matrix(spec) -> np.ndarray:
    return to_matrix(chain_terms(spec), spec.L)


def form_matrix(h) -> np.ndarray:
    """The dense matrix of a `ChainHamiltonian`: gamma/2 (XX + YY) plus
    (v/4)(I - Z_q)(I - Z_{q+1}) on every bond (q, q+1)."""
    terms = []
    for b in range(h.L - 1):
        bond = "I" * b + "{0}{1}" + "I" * (h.L - b - 2)
        terms += [(h.gamma / 2, bond.format("X", "X")), (h.gamma / 2, bond.format("Y", "Y")),
                  (h.v / 4, bond.format("I", "I")), (-h.v / 4, bond.format("Z", "I")),
                  (-h.v / 4, bond.format("I", "Z")), (h.v / 4, bond.format("Z", "Z"))]
    return to_matrix(terms, h.L)


def propagator(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) by Hermitian eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def rotations(amps, dt, terms):
    """prod_s (cos theta_s I - i sin theta_s P_s) applied to amps, theta_s
    = coeff_s * dt, from the dense Pauli matrices."""
    for coeff, letters in terms:
        amps = np.cos(coeff * dt) * amps - 1j * np.sin(coeff * dt) * (string_matrix(letters) @ amps)
    return amps


def step_matrix(spec, dt, symmetric=False):
    """The unfused step as a dense matrix, in the physical frame: the
    chain's rotations in term order at dt, or for a symmetric half step
    the terms at dt/4 and then the reversed terms at dt/4."""
    terms = chain_terms(spec)
    terms, tau = (terms + terms[::-1], dt / 4) if symmetric else (terms, dt)
    return rotations(np.eye(1 << spec.L, dtype=complex), tau, terms)


def gauge(L: int) -> np.ndarray:
    """The diagonal of D = diag(i^e(k)), e(k) = sum over qubits j >=
    WINDOW of (j - WINDOW + 1) n_j(k): `apply_step` applies conj(D) U D,
    so it maps conj(D) a to conj(D) U a.  All ones for L <= WINDOW."""
    k = np.arange(1 << L)
    e = np.zeros(1 << L, dtype=np.int64)
    for j in range(WINDOW, L):
        e += (j - WINDOW + 1) * (k >> j & 1)
    return np.array([1, 1j, -1, -1j])[e % 4]


def phase_vector(theta: float, L: int) -> np.ndarray:
    """exp(-i theta pairs(k)) evaluated at every amplitude, pairs(k) =
    popcount(k & k >> 1): cos and -sin of the float64 product theta *
    pairs(k), the values `trotter._phase_vector` must give bit for bit."""
    k = np.arange(1 << L, dtype=np.uint32)
    phi = theta * np.bitwise_count(k & k >> 1)
    out = np.empty(phi.shape, complex)
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out
