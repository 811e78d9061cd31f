"""State-vector engine: basis-state preparation, exact site densities
and the one contact kernel, `reset_to`: a Born-rule measurement and the
conditional fermionic flip c_q + c_q^dag in a single pass.  The unitary
step acts on the amplitudes in trotter.py.

A StateVector is confined to one trajectory worker at a time; nothing in
here shares mutable state between instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 26

# Probabilities this close to 0 or 1 are treated as deterministic and do
# not consume a random draw (keeps draw counts reproducible).
DETERMINISTIC_EPS = 1e-12


class RngStream:
    """Deterministic uniform stream; (seed, stream) fixes the sequence
    on every platform."""

    def __init__(self, seed: int, stream: int = 0):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self.seed = seed
        self.stream = stream

    def uniform(self) -> float:
        """One draw from U[0, 1)."""
        return float(self._gen.random())


@dataclass
class StateVector:
    """2^L complex amplitudes; bit q of the index is the occupation of
    qubit q."""

    L: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2, dtype=np.longdouble)))


@dataclass(frozen=True)
class ResetEvent:
    """Outcome of one reset: which qubit, what was measured, what it was
    forced to, and whether the occupation actually changed."""

    q: int
    measured: int
    target: int
    changed: bool


def init_basis_state(L: int, occupations) -> StateVector:
    if not 1 <= L <= MAX_QUBITS:
        raise ValueError(f"register size must be in [1, {MAX_QUBITS}], got {L}")
    index = 0
    for q in occupations:
        if not 0 <= q < L:
            raise ValueError(f"occupation index {q} out of range for L={L}")
        index |= 1 << q
    amps = np.zeros(1 << L, dtype=complex)
    amps[index] = 1.0
    return StateVector(L, amps)


def all_densities(state: StateVector) -> np.ndarray:
    """<n_q> for every qubit, as a length-L float array."""
    probs = np.abs(state.amps) ** 2
    out = np.empty(state.L)
    for q in range(state.L):
        out[q] = np.sum(probs.reshape(-1, 2, 1 << q)[:, 1, :], dtype=np.longdouble)
    return out


@functools.lru_cache(maxsize=None)
def _jw_signs(q: int) -> np.ndarray:
    """(-1)^(number of set bits) for every index below 2^q, read-only."""
    signs = np.where(np.bitwise_count(np.arange(1 << q)) & 1, -1, 1).astype(np.int8)
    signs.flags.writeable = False
    return signs


def reset_to(state: StateVector, q: int, target: int, rng: RngStream) -> ResetEvent:
    """The contact primitive: measure qubit q, then flip it with the
    fermionic c_q + c_q^dag if the outcome differs from `target`.

    One pass: the half of the amplitudes that survives the measurement
    is written into the `target` half, scaled by 1/sqrt(p) and, on a
    flip, multiplied by the Jordan-Wigner sign (-1)^(occupied qubits
    below q); the other half is zeroed.  Afterwards <n_q> is exactly
    `target`.  Consumes exactly one draw unless the outcome is forced
    (p within DETERMINISTIC_EPS of 0 or 1)."""
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target!r}")
    if not 0 <= q < state.L:
        raise ValueError(f"qubit index {q} out of range")
    block = state.amps.reshape(-1, 2, 1 << q)
    p1 = float(np.sum(np.abs(block[:, 1, :]) ** 2, dtype=np.longdouble))
    if p1 <= DETERMINISTIC_EPS:
        measured = 0
    elif p1 >= 1.0 - DETERMINISTIC_EPS:
        measured = 1
    else:
        measured = 1 if rng.uniform() < p1 else 0
    kept, dst = block[:, measured, :], block[:, target, :]
    p = p1 if measured else float(np.sum(np.abs(kept) ** 2, dtype=np.longdouble))
    changed = measured != target
    if changed:
        np.multiply(kept, _jw_signs(q), out=dst)
    dst /= np.sqrt(p)
    block[:, 1 - target, :] = 0.0
    return ResetEvent(q=q, measured=measured, target=target, changed=changed)
