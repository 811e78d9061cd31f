"""State-vector engine: basis-state preparation, exact site densities
and the one contact kernel, `reset_to`: a Born-rule measurement and the
conditional fermionic flip c_q + c_q^dag in a single pass.  The unitary
step acts on the amplitudes in trotter.py.

A state is a plain complex array of amplitudes, of shape (2^L,) for
one state or (B, 2^L) for a batch: bit q of the last index is the
occupation of qubit q, so L is read from the last axis.  Row b is
trajectory b of the batch, and every kernel here and in trotter.py acts
on each row independently, in place.

The kernels draw no random numbers themselves.  The caller hands
`reset_to` one measurement uniform per row, from each trajectory's own
RngStream; trajectory.py fixes the layout of those draws.  An amplitude
array is confined to one worker at a time; nothing in here keeps
mutable state between calls.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

MAX_QUBITS = 26

# A Born probability this close to 0 or 1 takes the forced outcome
# whatever the uniform, so no row is divided by the root of a
# round-off residue.  The uniform is consumed either way.
FORCED_EPS = 1e-12


class RngStream:
    """Deterministic uniform stream; (seed, stream) fixes the sequence
    on every platform."""

    def __init__(self, seed: int, stream: int = 0):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, shape=None):
        """One draw from U[0, 1), or an array of draws of `shape` in C
        order.  Draws taken in several calls are the same numbers as
        in one call, so a block of steps can be drawn at a time."""
        if shape is None:
            return float(self._gen.random())
        return self._gen.random(shape)


class Resets(NamedTuple):
    """Outcome of one `reset_to` call."""

    measured: np.ndarray  # outcome per row, shaped like target; -1 where the row took no action
    changed: int  # how many rows the flip changed


def init_basis_state(L: int, occupations) -> np.ndarray:
    """The (2^L,) amplitudes of the basis state with the given qubits
    occupied."""
    if not 1 <= L <= MAX_QUBITS:
        raise ValueError(f"register size must be in [1, {MAX_QUBITS}], got {L}")
    index = 0
    for q in occupations:
        if not 0 <= q < L:
            raise ValueError(f"occupation index {q} out of range for L={L}")
        index |= 1 << q
    amps = np.zeros(1 << L, dtype=complex)
    amps[index] = 1.0
    return amps


@functools.lru_cache(maxsize=None)
def _bits(n: int) -> np.ndarray:
    """(2^n, n) matrix whose row k holds the bits of k, read-only."""
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


@functools.lru_cache(maxsize=None)
def _outcomes(n: int, j: int) -> np.ndarray:
    """(2^n, 2) matrix selecting the indices with bit j clear, then set."""
    b = _bits(n)[:, j]
    out = np.stack([1.0 - b, b], axis=1)
    out.flags.writeable = False
    return out


def _planes(rows: np.ndarray, L: int) -> tuple[np.ndarray, int]:
    """The real and imaginary parts of (R, 2^L) amplitudes viewed as
    (R, 2^(L-K), 2^(K+1)), K = L // 2: qubit q < K is bit q + 1 of the
    last axis (bit 0 tells re from im), qubit q >= K bit q - K of the
    middle one."""
    K = L // 2
    return rows.view(np.float64).reshape(len(rows), 1 << (L - K), 2 << K), K


def all_densities(amps: np.ndarray) -> np.ndarray:
    """<n_q> for every qubit: shape (L,) for one state, (B, L) for a batch.

    Two passes over |a|^2 in the `_planes` view: its sums over the
    middle axis give the low K qubits and its sums over the last axis
    the high L - K, each through a small bit matrix; neither a (2^L, L)
    matrix nor a copy of |a|^2 is built."""
    L = amps.shape[-1].bit_length() - 1
    x, K = _planes(amps.reshape(-1, 1 << L), L)
    low = np.einsum("rhk,rhk->rk", x, x) @ _bits(K + 1)[:, 1:]
    high = np.einsum("rhk,rhk->rh", x, x) @ _bits(L - K)
    return np.concatenate([low, high], axis=1).reshape(amps.shape[:-1] + (L,))


@functools.lru_cache(maxsize=None)
def _jw_signs(q: int) -> np.ndarray:
    """(-1)^(number of set bits) for every index below 2^q, read-only."""
    signs = np.where(np.bitwise_count(np.arange(1 << q)) & 1, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def reset_to(amps: np.ndarray, q: int, target, u) -> Resets:
    """The contact primitive, row by row: measure qubit q, then flip it
    with the fermionic c_q + c_q^dag if the outcome differs from the
    row's target.

    `target` and `u` hold one entry per row (scalars for one state):
    the target 0 or 1, or -1 to leave the row alone, and the uniform
    that decides the measurement, outcome 1 if u < p1.  Each acting row
    becomes (c_q + c_q^dag)^[m != t] P_m psi / |P_m psi|: the half of
    its amplitudes that survives the measurement, scaled by
    1/sqrt(p_m) and on a flip by the Jordan-Wigner sign (-1)^(occupied
    qubits below q), lands in the target's half and the other half is
    zero.  Afterwards <n_q> is exactly the target.

    The probabilities take one pass over all rows.  Then one pass
    gathers the surviving halves of the acting rows and scales them,
    one zeroes those rows and one scatters the halves into the target's
    half.  A lone row is scaled and zeroed in place instead, which
    saves the gathered copy of half a large state.  `amps` must be
    C-contiguous, since it is updated in place."""
    L = amps.shape[-1].bit_length() - 1
    if not 0 <= q < L:
        raise ValueError(f"qubit index {q} out of range")
    if not amps.flags.c_contiguous:
        raise ValueError("reset_to works in place and needs a C-contiguous array")
    shape = amps.shape[:-1]
    if np.shape(target) != shape or np.shape(u) != shape:
        raise ValueError(f"target and u must have the row shape {shape}")
    t = np.asarray(target).reshape(-1)
    if np.any((t < -1) | (t > 1)):
        raise ValueError(f"target must be 0, 1 or -1, got {target!r}")
    rows = amps.reshape(-1, 1 << L)
    acting = np.flatnonzero(t >= 0)
    measured = np.full(len(rows), -1, dtype=np.int8)
    if acting.size == 0:
        return Resets(measured.reshape(shape), 0)
    # the sums over every row, the Born probabilities of the acting ones
    x, K = _planes(rows, L)
    if q < K:
        p = np.einsum("rhk,rhk->rk", x, x)[acting] @ _outcomes(K + 1, q + 1)
    else:
        p = np.einsum("rhk,rhk->rh", x, x)[acting] @ _outcomes(L - K, q - K)
    p1 = p[:, 1]
    u = np.asarray(u).reshape(-1)[acting]
    m = np.where(p1 <= FORCED_EPS, 0, np.where(p1 >= 1.0 - FORCED_EPS, 1, u < p1))
    t = t[acting]
    flip = m != t
    scale = 1.0 / np.sqrt(p[np.arange(acting.size), m])
    if flip.any():
        factor = np.where(flip[:, None], _jw_signs(q), 1.0)
        factor *= scale[:, None]
    else:
        factor = scale[:, None]
    block = rows.reshape(len(rows), -1, 2, 1 << q)
    if len(rows) == 1:
        # one row, at large L: in place on the halves, no gathered copy
        kept, other = block[0, :, m[0], :], block[0, :, 1 - m[0], :]
        if flip[0]:
            np.multiply(kept, factor, out=other)
            kept *= 0.0
        else:
            kept *= factor
            other *= 0.0
    else:
        kept = block[acting, :, m, :]
        kept *= factor[:, None, :]
        rows[acting] = 0.0
        block[acting, :, t, :] = kept
    measured[acting] = m
    return Resets(measured.reshape(shape), int(np.count_nonzero(flip)))
