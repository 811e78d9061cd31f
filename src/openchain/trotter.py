"""Trotter step of the chain Hamiltonian as fused blocks of bond gates.

The first-order step sweeps the bonds in ascending order, then the
diagonal.  Bond q's gate is exp(-i gamma dt/2 (X_q X_{q+1} + Y_q
Y_{q+1})): the two hopping terms commute, their rotations of |00> and
|11> cancel, and what is left rotates the |01>, |10> pair by gamma * dt.
The interaction v sum_q n_q n_{q+1} is diagonal in the basis, so it
acts as one phase vector, exp(-i v dt pairs(k)) with pairs(k) the
adjacent occupied pairs of basis state k, and (step)^N matches
exp(-i H t) with its global phase.

pairs(k) takes only the values 0 .. L - 1, so the phase vector is built
from its L distinct phases: cos and -sin at the L products theta * n,
the same float64 numbers as theta * pairs(k), then that L-entry table
gathered by each amplitude's pair count (a uint32 popcount of k & k >>
1, in place).  The vector is bit for bit the one that evaluating cos
and sin at all 2^L amplitudes gives, at L evaluations instead of 2^L.
`build_step` in a fresh process, with cos and sin at every amplitude
against the gathered table (one BLAS thread, 2-core host, gamma = 5,
v = 10, dt = 0.5, median of 9 processes, the two alternating),
milliseconds:

    | L  | first-order, every amplitude / table | symmetric, every amplitude / table |
    |----|--------------------------------------|------------------------------------|
    | 16 | 2.65 / 1.41                          | 2.78 / 1.62                        |
    | 18 | 9.27 / 3.73                          | 8.76 / 3.90                        |
    | 20 | 29.3 / 10.4                          | 30.0 / 10.8                        |
    | 22 | 118 / 37.6                           | 111 / 39.9                         |
    | 24 | 494 / 130                            | 459 / 131                          |

The symmetric step splits dt into two halves S(dt/2) around the contact
actions, with S(tau) the sweep at tau/2 followed by the reversed sweep
at tau/2, the two middle gates merged: second order in dt, for the
unitary and for its splitting from the contacts.

The plan fuses the gates into blocks, each one 2^w-square unitary on w
<= WINDOW consecutive qubits.  Bond q falls in slot q // (WINDOW - 1),
whose block starts at qubit lo = slot * (WINDOW - 1), and each run of
consecutive bonds in one slot becomes one block: a first-order sweep of
L = 16 is the blocks at qubits 0, 4, 8 and 12, then the phase vector.
Phase vectors stay as they are.  Up to WINDOW qubits the whole step,
phase vector and both sweeps included, is one 2^L-square block.  The
blocks are built by applying the ops to an identity with elementwise
numpy calls, no BLAS, so the build costs little in a fresh process.

The step runs in a diagonal gauge frame D = diag(i^e(k)), with e(k) the
sum over qubits j >= WINDOW of (j - WINDOW + 1) n_j(k): `apply_step`
applies conj(D) U D, so it maps conj(D) a to conj(D) U a.  The |10>
state of a bond q >= WINDOW - 1 has e one higher than its |01> state,
so the bond's gate conj(D) G_q D is the real rotation new1 = c old1 +
s old2, new2 = c old2 - s old1 (index 1 = bit q set).  Those are the
bonds of the blocks at lo > 0, which are therefore float64.  Phase
vectors commute with D, and D is the identity up to WINDOW qubits.
Nothing the engine reads sees the frame, so a trajectory never leaves
it: the initial basis state is an eigenvector of D, the projections of
`reset_to` commute with D and its flip c_q + c_q^dag picks up a phase
that is global to the row, and `all_densities` reads |a|^2.

`apply_step` applies each block with one np.matmul, on C-contiguous
amplitudes of shape (2^L,) or (B, 2^L) alike: a block at qubit 0 as
amps.reshape(-1, 2^w) @ m^T, one complex product over every row of a
batch; a real block at lo > 0 as m @ amps.view(float64).reshape(-1,
2^w, 2^(lo+1)), the same products over the real and imaginary parts
together, twice the columns at half the arithmetic of a complex block.
The block at qubit 0 stays complex: its real form would act on
interleaved real and imaginary parts, a 2^(w+1)-square kron(m, I2)
with as many flops as the complex product, and at L = 16 that dgemm
took about 565 us against 530-570 us for the zgemm.  The products
alternate between the amplitudes and one scratch buffer of the same
size, and after an odd count of them the result is copied back
(writing one phase vector across instead, to save that copy, measured
no faster at L = 10..18).  Each product rounds differently from the
gate-by-gate sweep, by about 1e-15 relative (a real block sums its
terms in another order than the complex block of the physical frame
would); a row of a batch
and the same row alone can differ in the last bit, because BLAS takes
another path for one row.

WINDOW comes from `apply_step` timings (one BLAS thread, 2-core host,
first-order / symmetric plan, microseconds).  Measured when every block
was complex:

    | L, rows | w = 3        | 4            | 5            | 6            |
    |---------|--------------|--------------|--------------|--------------|
    | 6, 256  | 733 / 1345   | 382 / 633    | 422 / 728    | 258 / 255    |
    | 8, 50   | 580 / 1290   | 351 / 703    | 260 / 502    | 313 / 596    |
    | 10, 16  | 898 / 1571   | 471 / 877    | 462 / 877    | 449 / 874    |
    | 12, 1   | 243 / 498    | 139 / 267    | 137 / 266    | 171 / 335    |
    | 16, 1   | 4651 / 8773  | 2860 / 5510  | 2764 / 5389  | 3428 / 6668  |
    | 18, 1   | 19853 / 37901| 12417 / 24172| 13776 / 26160| 15795 / 30481|

and with the real blocks of the gauge frame (median of 5 rounds, the
widths interleaved):

    | L, rows | w = 3        | 4            | 5            | 6            |
    |---------|--------------|--------------|--------------|--------------|
    | 6, 256  | 204 / 332    | 151 / 269    | 194 / 366    | 244 / 245    |
    | 8, 50   | 159 / 293    | 145 / 275    | 159 / 297    | 229 / 431    |
    | 10, 16  | 240 / 430    | 201 / 354    | 242 / 449    | 312 / 608    |
    | 12, 1   | 84 / 162     | 76 / 146     | 83 / 154     | 115 / 219    |
    | 16, 1   | 1517 / 2863  | 1452 / 2627  | 1552 / 3040  | 2283 / 4202  |
    | 18, 1   | 8272 / 14496 | 6687 / 12220 | 8456 / 15034 | 10608 / 21239|

Five was best at L = 8, 12 and 16 with complex blocks.  With real ones
four is best in every row, by 5-9% at L = 8, 12 and 16 and 17-21% at
L = 10 and 18; WINDOW stays five for now, since a new width moves the
frame and the block layout, and with them the rounding of the outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ChainHamiltonian

# the most qubits one block spans: a run of bond gates on at most WINDOW
# consecutive qubits becomes one 2^WINDOW-square matrix at most
WINDOW = 5


class Block(NamedTuple):
    """A run of gates as one unitary m on qubits lo .. lo + w - 1, with
    m of shape (2^w, 2^w): complex at lo = 0, float64 (the gauge
    frame's real rotations) at lo > 0."""

    lo: int
    m: np.ndarray


@dataclass(frozen=True)
class TrotterPlan:
    """The step as blocks and phase vectors, applied in order.  A
    symmetric plan holds the half step S(dt/2), applied once before and
    once after the contact actions."""

    L: int
    gates: tuple[Block | np.ndarray, ...]
    symmetric: bool = False


def build_step(h: ChainHamiltonian, dt: float, symmetric: bool = False) -> TrotterPlan:
    """The plan of one step of `h` over dt: the bonds in ascending order,
    then the interaction's phase vector, each run of bonds in one window
    fused into one block (see the module docstring).  With `symmetric`
    it is the half step S(dt/2), which `apply_step` runs once before and
    once after the contact actions.  Raises ValueError unless dt is
    positive and finite."""
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    # (q, angle): bond q's hopping, or the interaction's diagonal at q = -1
    tau = dt / 4 if symmetric else dt
    ops = [(q, h.gamma * tau) for q in range(h.L - 1)] if h.gamma != 0.0 else []
    if h.v != 0.0 and h.L >= 2:
        ops.append((-1, h.v * tau))
    if symmetric and ops:
        # the sweep, its middle op at twice the angle, then the sweep reversed
        q, theta = ops[-1]
        ops = ops[:-1] + [(q, 2 * theta)] + ops[-2::-1]
    if h.L <= WINDOW and any(q >= 0 for q, _ in ops):
        return TrotterPlan(L=h.L, gates=(_block(ops, 0, h.L),), symmetric=symmetric)
    # bond q falls in slot q // (WINDOW - 1), whose block spans qubits
    # lo = slot * (WINDOW - 1) up to WINDOW of them; each run of consecutive
    # bonds in one slot becomes one block, and the diagonal falls in slot -1
    span = WINDOW - 1
    gates = []
    for slot, run in itertools.groupby(ops, lambda op: op[0] // span):
        if slot < 0:
            gates.extend(_phase_vector(theta, h.L) for _, theta in run)
        else:
            gates.append(_block(list(run), slot * span, min(WINDOW, h.L - slot * span)))
    return TrotterPlan(L=h.L, gates=tuple(gates), symmetric=symmetric)


def _phase_vector(theta: float, L: int) -> np.ndarray:
    # exp(-i theta pairs(k)), with pairs(k) = popcount(k & k >> 1) the
    # adjacent occupied pairs of basis state k (uint32 and in place: an
    # int64 k with two temporaries raised a run's peak RSS by 0.6 MiB at
    # L = 16), gathered from cos and -sin at the L products theta * n,
    # n = pairs(k) < L; a fancy index measured faster than np.take in a
    # fresh process (1.2 against 1.5 ms at L = 16)
    k = np.arange(1 << L, dtype=np.uint32)
    k &= k >> 1
    phi = theta * np.arange(L, dtype=float)
    table = np.empty(L, complex)
    np.cos(phi, out=table.real)
    np.sin(phi, out=table.imag)
    np.negative(table.imag, out=table.imag)
    return table[np.bitwise_count(k)]


def _block(ops, lo: int, w: int) -> Block:
    # the ops in order, each multiplying the identity from the left: it acts
    # on the row index as a gate acts on the amplitudes' index, so bond q
    # mixes whole rows, runs of 2^(q-lo+w) entries.  A block at lo > 0
    # holds bonds q >= WINDOW - 1 only and is real: in the gauge frame
    # each of them is the rotation new1 = c old1 + s old2, new2 = c old2
    # - s old1 (see the module docstring)
    m = np.eye(1 << w, dtype=float if lo > 0 else complex)
    for q, theta in ops:
        if q < 0:
            m *= _phase_vector(theta, w)[:, None]
            continue
        # axis 1 holds bits (q+1, q): 1 is |01> and 2 is |10>, the pair
        # the hopping rotates; |00> and |11> stay
        pair = m.reshape(-1, 4, (1 << (q - lo)) << w)[:, 1:3]
        s = math.sin(theta)
        swapped = pair[:, ::-1] * (np.array([[s], [-s]]) if lo > 0 else -1j * s)
        pair *= math.cos(theta)
        pair += swapped
    return Block(lo, m)


def apply_step(amps: np.ndarray, plan: TrotterPlan) -> None:
    """Apply the plan's gates in place to C-contiguous (2^L,) or
    (B, 2^L) amplitudes: the whole step, or for a symmetric plan one
    half of it."""
    if amps.dtype != np.complex128:
        raise ValueError(f"apply_step needs complex128 amplitudes, got {amps.dtype}")
    if amps.shape[-1] != 1 << plan.L:
        raise ValueError(f"plan size {plan.L} needs {1 << plan.L} amplitudes, got {amps.shape[-1]}")
    if not amps.flags.c_contiguous:
        raise ValueError("apply_step works in place and needs a C-contiguous array")
    # each block writes the other buffer; phase vectors act where the
    # amplitudes are
    src, dst = amps, np.empty_like(amps)
    for g in plan.gates:
        if isinstance(g, Block):
            n = len(g.m)
            if g.lo == 0:
                np.matmul(src.reshape(-1, n), g.m.T, out=dst.reshape(-1, n))
            else:
                # a real block acts on the real and imaginary parts alike:
                # the float64 view's last axis holds both, interleaved
                s = 2 << g.lo
                np.matmul(g.m, src.view(np.float64).reshape(-1, n, s),
                          out=dst.view(np.float64).reshape(-1, n, s))
            src, dst = dst, src
        else:
            src *= g
    if src is not amps:
        amps[...] = src

