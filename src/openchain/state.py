"""State-vector engine: basis-state preparation, exact site densities
and the one contact kernel, `reset_to`: for each contact of a time
step, in list order, a Born-rule measurement and the conditional
fermionic flip c_q + c_q^dag.  The unitary step acts on the amplitudes
in trotter.py.

A state is a plain complex128 array of amplitudes, of shape (2^L,) for
one state or (B, 2^L) for a batch: bit q of the last index is the
occupation of qubit q, so L is read from the last axis.  Row b is
trajectory b of the batch, and every kernel here and in trotter.py acts
on each row independently, in place, and raises ValueError for any
other dtype.

The kernels draw no random numbers themselves.  The caller hands
`reset_to` one measurement uniform per row and contact, row b from
stream b of the batch's RngStream; trajectory.py fixes the layout of
those draws.  An amplitude array is confined to one worker at a time;
the kernels keep no mutable state between calls.

Contacts.  One `reset_to` call takes all the contacts of a step.  Its
cost is mostly fixed per contact (some 25 numpy calls), so it checks
its arguments and takes the float view once per call, skips a contact
on which no row acts, and a batch is made large enough that this fixed
cost is shared by many rows (trajectory.BATCH_AMPS).  The eight
contacts of one step at L = 8 (each acting on a row with probability
0.45), on a 2-core Intel Xeon host (Python 3.11, numpy 2.4.6, one
BLAS thread), median of 300 calls interleaved in one process, two runs:

| rows of L = 8 | eight one-contact calls | one call for the step |
|---|---|---|
| 50 | 630-639 us | 538-547 us |
| 100 | 897-907 us | 801-812 us |
| 128 (a batch of 2^15 amplitudes) | 1039-1954 us | 959-1676 us |

Random streams.  `RngStream(seed, first, count)` is the streams first
.. first + count - 1 of a batch, stream k bit for bit the numbers of
numpy's Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))).random,
computed as one vectorized PCG64 in plain numpy: no numpy random module
is imported and no Generator is built per trajectory.
- SeedSequence's uint32 hash mixing runs on Python ints for the seed
  words, the same for every stream, and on (count,) arrays from the
  stream id on.
- The 128-bit LCG state and increment are (hi, lo) pairs of (count, 1)
  uint64 arrays.
- A chunk of n draws per stream is one jump ahead,
  s_j = A_j s + C_j inc with A_j = M^j and C_j = M^(j-1) + ... + 1.
  The (A_j, C_j) table is built by doubling, kept for the process and
  grown to the largest chunk; its entries are pre-split into 32-bit
  halves, 64 B each, at most DRAW_CHUNK of them (1 MiB).  The 64-bit
  high products are summed from those halves with in-place uint64 ops.
- The output is XSL-RR, then (x >> 11) * 2^-53.
Measured on a 2-core Intel Xeon host (Python 3.11, numpy 2.4.6), median
of 9 x 30 calls in one process:

| one chunk | RngStream | the Generator calls it replaces |
|---|---|---|
| 100 streams x 160 draws (`contacts-l8`) | 0.57 ms | 0.14 ms |
| 400 streams x 40 draws (`compare-l3`) | 0.50 ms | 0.60 ms |
| set-up, 1 / 50 / 400 streams | 0.13-0.15 ms | 0.013 / 0.63 / 5.0 ms |

The 100 x 160 row (`trajectory.chunk_steps(100, 8)` = 10 steps of 16
draws) was measured later, in runs where the 400 x 40 chunk read 0.61 /
0.40 ms.

Importing numpy's random module, which the per-trajectory Generators
needed, took a further 11-15 ms in each process.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

MAX_QUBITS = 26

# A Born probability this close to 0 or 1 takes the forced outcome
# whatever the uniform, so no row is divided by the root of a
# round-off residue.  The uniform is consumed either way.
FORCED_EPS = 1e-12


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M32 = 0xFFFFFFFF


def _split(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """128-bit values as rows (hi, lo, lo & 2^32 - 1, lo >> 32)."""
    return np.stack([hi, lo, lo & _M32, lo >> 32])


def _mul(x_hi: np.ndarray, x_lo: np.ndarray, t: np.ndarray):
    """(hi, lo) of x * t mod 2^128, x of shape (rows, 1) and t a `_split`
    table of shape (4, n): (rows, n) arrays.  The high word of the
    64 x 64-bit product x_lo * t_lo is summed from 32-bit halves; three
    (rows, n) arrays are live at a time."""
    x0, x1 = x_lo & _M32, x_lo >> 32
    tmp = x0 * t[2]
    tmp >>= 32
    mid = x1 * t[2]
    mid += tmp
    hi = mid >> 32
    mid &= _M32
    mid += np.multiply(x0, t[3], out=tmp)
    mid >>= 32
    hi += mid
    hi += np.multiply(x1, t[3], out=tmp)
    hi += np.multiply(x_hi, t[1], out=tmp)
    hi += np.multiply(x_lo, t[0], out=tmp)
    return hi, np.multiply(x_lo, t[1], out=mid)


def _add(x, y):
    """(hi, lo) of x + y mod 2^128, in place on x."""
    x_hi, x_lo = x
    x_lo += y[1]
    x_hi += y[0]
    x_hi += x_lo < y[1]
    return x_hi, x_lo


# Column j - 1 holds (A_j, C_j) = (M^j, M^(j-1) + ... + 1) mod 2^128,
# j = 1, 2, ...: PCG64's state j draws ahead of s is A_j s + C_j inc.
# Rows 0-3 are A_j as `_split` gives it, rows 4-7 C_j; here A_1 = M and
# C_1 = 1.
_JUMPS = np.array([[_PCG_MULT >> 64], [_PCG_MULT & (1 << 64) - 1], [_PCG_MULT & _M32],
                   [_PCG_MULT >> 32 & _M32], [0], [1], [1], [0]], np.uint64)


def _jumps(n: int) -> np.ndarray:
    """The jump table up to j = n, grown by doubling and kept for the
    process: with A_m and C_m, the entries m + j are A_m A_j and
    A_j C_m + C_j."""
    global _JUMPS
    m = _JUMPS.shape[1]
    if m < n:
        table = np.empty((8, n), np.uint64)
        table[:, :m] = _JUMPS
        while m < n:
            k = min(m, n - m)
            head, last = table[:, :k], table[:, m - 1:m]
            table[:4, m:m + k] = _split(*_mul(last[0], last[1], head[:4]))
            table[4:, m:m + k] = _split(*_add(_mul(last[4], last[5], head[:4]), head[4:6]))
            m += k
        _JUMPS = table
    return _JUMPS[:, :n]


def _seed_words(seed: int, ids: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed, spawn_key=(k,)).generate_state(8) for every k
    in the uint32 array `ids`: eight uint32 arrays shaped like ids.

    The hash constants run through the same values for every k, and the
    stream id is the last entropy word, so the mixing runs on Python
    ints up to that word and on arrays from there."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = words + [0] * (_POOL - len(words)) + [ids]
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ const
        const = const * _MULT_A & _M32
        v = v * const & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = ((x * _MIX_L & _M32) - y * _MIX_R) & _M32
        return r ^ r >> 16

    pool = [hashmix(v) for v in entropy[:_POOL]]
    for i in range(_POOL):
        for j in range(_POOL):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for v in entropy[_POOL:]:
        for j in range(_POOL):
            pool[j] = mix(pool[j], hashmix(v))
    const, out = _INIT_B, []
    for i in range(8):
        v = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        v *= const
        out.append(v ^ v >> 16)
    return out


class RngStream:
    """The uniform streams first .. first + count - 1 of `seed`, drawn
    together as one vectorized PCG64 (see the module docstring)."""

    def __init__(self, seed: int, first: int = 0, count: int = 1):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if count < 1 or first < 0 or first + count > 1 << 32:
            raise ValueError(f"stream ids {first} .. {first + count - 1} are not in [0, 2^32)")
        self.count = count
        w = [v.astype(np.uint64)[:, None] for v in
             _seed_words(seed, np.arange(first, first + count, dtype=np.uint32))]
        # PCG64 takes (state, inc) = words (0-1 << 64 | 2-3, 4-5 << 64 | 6-7)
        # and seeds as state = (inc + state) M + inc with inc = 2 inc + 1
        s_hi, s_lo = w[0] | w[1] << 32, w[2] | w[3] << 32
        i_hi, i_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
        self._inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
        self._state = self._advance(*_add((s_hi, s_lo), self._inc), _jumps(1))

    def _advance(self, hi, lo, table):
        """A_j (hi, lo) + C_j inc for the j of `table`."""
        return _add(_mul(hi, lo, table[:4]), _mul(*self._inc, table[4:]))

    def uniform(self, shape=()):
        """(count, *shape) float64 draws, in C order per stream.  Draws
        taken in several calls are the numbers of one call, so a block
        of steps can be drawn at a time; a call for no draws returns an
        empty array and leaves the streams where they were."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        if n == 0:
            return np.empty((self.count, *shape))
        hi, lo = self._advance(*self._state, _jumps(n))  # (count, n)
        self._state = hi[:, -1:].copy(), lo[:, -1:].copy()
        # XSL-RR output: hi ^ lo rotated right by the top six bits of hi
        rot = hi >> 58
        lo ^= hi
        np.right_shift(lo, rot, out=hi)
        np.subtract(64, rot, out=rot)
        rot &= 63
        lo <<= rot
        lo |= hi
        del hi, rot
        lo >>= 11
        out = lo.astype(np.float64)
        out *= 2.0 ** -53
        return out.reshape(self.count, *shape)


class Resets(NamedTuple):
    """Outcome of one `reset_to` call."""

    measured: np.ndarray  # outcome per row and contact, shaped like target; -1 where no action
    changed: int  # how many (row, contact) entries the flip changed


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


def _check_dtype(amps: np.ndarray, name: str) -> None:
    # the kernels read the amplitudes through a float64 view, which would
    # reinterpret the bytes of any other dtype
    if amps.dtype != np.complex128:
        raise ValueError(f"{name} needs complex128 amplitudes, got {amps.dtype}")


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
    _check_dtype(amps, "all_densities")
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


def reset_to(amps: np.ndarray, qs, target, u) -> Resets:
    """The contact kernel for one step's contacts, applied in list
    order, row by row: for contact i, measure qubit qs[i], then flip it
    with the fermionic c_q + c_q^dag if the outcome differs from the
    row's target.

    `target` and `u` have the row shape plus (len(qs),), entry i of a
    row for contact i: the target 0 or 1, or -1 to leave the row alone,
    and the uniform that decides the measurement, outcome 1 if u < p1.
    Each acting row becomes (c_q + c_q^dag)^[m != t] P_m psi / |P_m psi|:
    the half of its amplitudes that survives the measurement, scaled by
    1/sqrt(p_m) and on a flip by the Jordan-Wigner sign (-1)^(occupied
    qubits below q), lands in the target's half and the other half is
    zero.  Afterwards <n_q> is exactly the target.  A qubit may appear
    more than once; each entry acts on the state the ones before it
    left.

    The arguments are checked and the float view taken once per call,
    and a contact that no row acts on costs nothing.  Per contact the
    probabilities take one pass over all rows; then one pass gathers
    the surviving halves of the acting rows and scales them, one zeroes
    those rows and one scatters the halves into the target's half.  A
    lone row is scaled and zeroed in place instead, which saves the
    gathered copy of half a large state.  `amps` must be C-contiguous,
    since it is updated in place."""
    _check_dtype(amps, "reset_to")
    L = amps.shape[-1].bit_length() - 1
    qs = [operator.index(q) for q in qs]
    if not all(0 <= q < L for q in qs):
        raise ValueError(f"qubit indices {qs} out of range for L={L}")
    if not amps.flags.c_contiguous:
        raise ValueError("reset_to works in place and needs a C-contiguous array")
    shape = amps.shape[:-1] + (len(qs),)
    if np.shape(target) != shape or np.shape(u) != shape:
        raise ValueError(f"target and u must have the shape {shape}: the rows, then the contacts")
    targets = np.asarray(target).reshape(-1, len(qs))
    if np.any((targets < -1) | (targets > 1)):
        raise ValueError(f"target must be 0, 1 or -1, got {target!r}")
    uniforms = np.asarray(u).reshape(-1, len(qs))
    rows = amps.reshape(-1, 1 << L)
    x, K = _planes(rows, L)
    measured = np.full(targets.shape, -1, dtype=np.int8)
    changed = 0
    act = targets >= 0
    for i in np.flatnonzero(act.any(axis=0)).tolist():
        q, acting = qs[i], np.flatnonzero(act[:, i])
        # the sums over every row, the Born probabilities of the acting ones
        if q < K:
            p = np.einsum("rhk,rhk->rk", x, x)[acting] @ _outcomes(K + 1, q + 1)
        else:
            p = np.einsum("rhk,rhk->rh", x, x)[acting] @ _outcomes(L - K, q - K)
        p1 = p[:, 1]
        m = np.where(p1 <= FORCED_EPS, 0, np.where(p1 >= 1.0 - FORCED_EPS, 1, uniforms[acting, i] < p1))
        t = targets[acting, i]
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
        measured[acting, i] = m
        changed += int(np.count_nonzero(flip))
    return Resets(measured.reshape(shape), changed)
