"""State-vector engine: rotations of the Trotter kernel, the site
densities and the contact kernel reset_to (measurement, collapse and
fermionic flip), on one state and on a batch of rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openchain.model import ChainSpec, build_chain_hamiltonian, fermion_lowering
from openchain import state
from openchain.state import (
    FORCED_EPS,
    Resets,
    RngStream,
    _jw_signs,
    _outcomes,
    _planes,
    all_densities,
    init_basis_state,
    reset_to,
)
from openchain.trotter import apply_step, build_step


def random_state(L, seed):
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << L) + 1j * gen.normal(size=1 << L)
    amps /= np.linalg.norm(amps)
    return init_basis_state(L, ()), amps


def reference_reset_to(amps, q, target, u):
    """The two-pass contact kernel: the Born probabilities of the acting
    rows alone, each half scaled in place, then on a flip the halves
    swapped with the Jordan-Wigner sign.  Returns (measured, changed)."""
    L = amps.shape[-1].bit_length() - 1
    t = np.asarray(target).reshape(-1)
    amps = amps.reshape(-1, 1 << L)
    acting = np.flatnonzero(t >= 0)
    measured = np.full(len(amps), -1, dtype=np.int8)
    if acting.size == 0:
        return measured, 0
    sub = amps[acting]
    x, K = _planes(sub, L)
    if q < K:
        p = np.einsum("rhk,rhk->rk", x, x) @ _outcomes(K + 1, q + 1)
    else:
        p = np.einsum("rhk,rhk->rh", x, x) @ _outcomes(L - K, q - K)
    p1 = p[:, 1]
    u = np.asarray(u).reshape(-1)[acting]
    m = np.where(p1 <= FORCED_EPS, 0, np.where(p1 >= 1.0 - FORCED_EPS, 1, u < p1))
    scale = 1.0 / np.sqrt(p[np.arange(acting.size), m])
    block = sub.reshape(acting.size, -1, 2, 1 << q)
    block[:, :, 0, :] *= np.where(m == 0, scale, 0.0)[:, None, None]
    block[:, :, 1, :] *= np.where(m == 1, scale, 0.0)[:, None, None]
    flip = np.flatnonzero(m != t[acting])
    for r in flip:
        block[r] *= _jw_signs(q)
        block[r] = block[r, :, ::-1, :].copy()
    amps[acting] = sub
    measured[acting] = m
    return measured, flip.size


def reset_one(amps, q, target, u):
    """A single contact on qubit q through the step kernel: the contact
    axis added to target and u, and taken off measured again."""
    res = reset_to(amps, [q], np.expand_dims(target, -1), np.expand_dims(u, -1))
    return Resets(res.measured[..., 0], res.changed)


def test_init_vacuum():
    s = init_basis_state(2, ())
    assert np.array_equal(s, [1, 0, 0, 0])


def test_init_single_occupation():
    s = init_basis_state(2, (0,))
    assert s[1] == 1.0 and np.sum(np.abs(s)) == 1.0


def test_init_bit_arithmetic():
    s = init_basis_state(3, (0, 2))
    assert s[5] == 1.0


def test_init_rejects_out_of_range():
    with pytest.raises(ValueError):
        init_basis_state(2, (2,))
    with pytest.raises(ValueError):
        init_basis_state(0, ())


def test_rotation_zero_angle_is_identity():
    h = build_chain_hamiltonian(ChainSpec(L=2, gamma=0.0))
    s, amps = random_state(2, 3)
    s[:] = amps
    apply_step(s, build_step(h, 1.0))
    assert np.array_equal(s, amps)


def test_x_rotation_half_pi():
    # hop angle pi/2 on the |01>,|10> pair: exp(-i (pi/2) X)|01> = -i|10>
    h = build_chain_hamiltonian(ChainSpec(L=2, gamma=1.0))
    s = init_basis_state(2, (0,))
    apply_step(s, build_step(h, np.pi / 2))
    assert np.max(np.abs(s - [0, 0, -1j, 0])) <= 1e-15


def test_z_rotation_preserves_probabilities():
    # gamma = 0: the step is the interaction's phases only
    s = init_basis_state(2, ())
    s[:] = 0.5
    apply_step(s, build_step(build_chain_hamiltonian(ChainSpec(L=2, gamma=0.0, v=7.0)), np.pi / 4))
    assert np.abs(s) ** 2 == pytest.approx(np.full(4, 0.25), abs=1e-12)
    assert np.angle(s[3] / s[0]) == pytest.approx(-7.0 * np.pi / 4 + 2 * np.pi, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=4),
    gamma=st.floats(min_value=-5, max_value=5),
    v=st.floats(min_value=-10, max_value=10),
    dt=st.floats(min_value=1e-3, max_value=2),
    seed=st.integers(min_value=0, max_value=999),
)
def test_rotation_reversible_and_norm_preserving(L, gamma, v, dt, seed):
    # the inverse of a product formula is the reversed product of the
    # negated rotations; the symmetric step is a palindrome, so that is
    # the symmetric step of the negated couplings
    h = build_chain_hamiltonian(ChainSpec(L=L, gamma=gamma, v=v))
    back = build_chain_hamiltonian(ChainSpec(L=L, gamma=-gamma, v=-v))
    s, amps = random_state(L, seed)
    s[:] = amps
    apply_step(s, build_step(h, dt, symmetric=True))
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
    apply_step(s, build_step(back, dt, symmetric=True))
    assert np.max(np.abs(s - amps)) <= 1e-12


def test_flip_is_involution():
    # after a reset to t, resets to 1 - t and back to t are forced
    # outcomes, i.e. two pure flips, and restore the amplitudes
    s, amps = random_state(3, 7)
    s[:] = amps
    rng = RngStream(0)
    reset_one(s, 1, 0, rng.uniform()[0])
    after = s.copy()
    assert reset_one(s, 1, 1, rng.uniform()[0]).changed and reset_one(s, 1, 0, rng.uniform()[0]).changed
    assert np.max(np.abs(s - after)) <= 1e-15


def test_flip_swaps_amplitudes():
    s = init_basis_state(1, ())
    assert reset_one(s, 0, 1, 0.5).changed
    assert np.array_equal(s, [0, 1])
    # qubit 0 occupied: the flip of qubit 1 carries the sign -1
    s = init_basis_state(2, (0,))
    reset_one(s, 1, 1, 0.5)
    assert np.array_equal(s, [0, 0, 0, -1])


@settings(max_examples=40, deadline=None)
@given(L=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=999))
def test_flip_is_fermionic_c_plus_c_dag(L, seed):
    # reset_to(q, t) with outcome m is (c_q + c_q^dag)^[m != t] P_m psi / |P_m psi|,
    # the flip carrying the Jordan-Wigner string of the qubits below q
    _, amps = random_state(L, seed)
    bits = np.arange(1 << L)
    for q in range(L):
        c = fermion_lowering(q, L)
        for target in (0, 1):
            s = init_basis_state(L, ())
            s[:] = amps
            ev = reset_one(s, q, target, RngStream(seed, q).uniform()[0])
            projected = np.where((bits >> q) & 1 == ev.measured, amps, 0.0)
            expected = projected / np.linalg.norm(projected)
            if ev.measured != target:
                expected = (c + c.conj().T) @ expected
            assert ev.changed == (ev.measured != target)
            assert np.max(np.abs(s - expected)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_batched_reset_is_the_dense_formula_row_by_row(seed):
    # a batch that mixes the targets 0 and 1, both outcomes and rows
    # that take no action (target -1, left alone); u = 0 forces the
    # outcome 1 and u just below 1 the outcome 0 on these random rows
    target = np.array([0, 0, 1, 1, -1, -1], dtype=np.int8)
    u = np.array([0.0, 1 - 1e-16, 0.0, 1 - 1e-16, 0.0, 0.5])
    for L in range(1, 5):
        gen = np.random.default_rng(seed)
        amps = gen.normal(size=(6, 1 << L)) + 1j * gen.normal(size=(6, 1 << L))
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        bits = np.arange(1 << L)
        for q in range(L):
            c = fermion_lowering(q, L)
            s = amps.copy()
            res = reset_one(s, q, target, u)
            assert res.measured.tolist() == [1, 0, 1, 0, -1, -1]
            assert res.changed == 2
            for row, (t, m) in enumerate(zip(target, res.measured)):
                expected = amps[row]
                if t >= 0:
                    projected = np.where((bits >> q) & 1 == m, amps[row], 0.0)
                    expected = projected / np.linalg.norm(projected)
                    if m != t:
                        expected = (c + c.conj().T) @ expected
                assert np.max(np.abs(s[row] - expected)) <= 1e-14


def test_forced_outcome_ignores_the_uniform():
    # |00>: q=1 reads 0 even for u = 0; |01>: q=0 reads 1 even for u -> 1
    s = init_basis_state(2, ())
    assert reset_one(s, 1, 0, 0.0).measured == 0
    assert np.array_equal(s, init_basis_state(2, ()))
    s = init_basis_state(2, (0,))
    assert reset_one(s, 0, 1, 1 - 1e-16).measured == 1
    assert np.array_equal(s, init_basis_state(2, (0,)))


def test_measure_born_statistics():
    n = 10_000
    s = np.tile([1 / np.sqrt(2), 1 / np.sqrt(2)], (n, 1)).astype(complex)
    ones = reset_one(s, 0, np.zeros(n, dtype=np.int8), RngStream(11).uniform(n)[0]).measured.sum()
    assert ones / n == pytest.approx(0.5, abs=0.02)


def test_measure_after_small_x_rotation():
    # exp(-i 0.3 X)|0> has P(1) = sin^2(0.3)
    p_expected = np.sin(0.3) ** 2
    n = 10_000
    s = np.tile([np.cos(0.3), -1j * np.sin(0.3)], (n, 1))
    ones = reset_one(s, 0, np.zeros(n, dtype=np.int8), RngStream(13).uniform(n)[0]).measured.sum()
    sigma = np.sqrt(p_expected * (1 - p_expected) / n)
    assert abs(ones / n - p_expected) <= 4 * sigma


def test_measure_collapses_and_renormalizes():
    # a reset to the measured outcome is the bare collapse
    s, amps = random_state(3, 3)
    s[:] = amps
    measured = reset_one(amps.copy(), 1, 0, RngStream(0).uniform()[0]).measured
    ev = reset_one(s, 1, measured, RngStream(0).uniform()[0])
    assert (ev.measured, ev.changed) == (measured, False)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
    assert all_densities(s)[1] == pytest.approx(float(measured), abs=1e-12)


def test_reset_examples():
    rng = RngStream(1)
    s = init_basis_state(1, (0,))
    ev = reset_one(s, 0, 1, rng.uniform()[0])
    assert (ev.measured, ev.changed) == (1, False)
    assert s[1] == 1.0

    s = init_basis_state(1, ())
    ev = reset_one(s, 0, 1, rng.uniform()[0])
    assert (ev.measured, ev.changed) == (0, True)
    assert s[1] == 1.0

    s = init_basis_state(1, ())
    s[:] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    ev = reset_one(s, 0, 0, rng.uniform()[0])
    assert abs(s[0]) == pytest.approx(1.0, abs=1e-12)
    assert ev.changed == (ev.measured == 1)


def test_reset_rejects_non_contiguous_input():
    # a reshape would copy such an array, and the update would be lost
    big = np.tile(init_basis_state(3, (0,)), (4, 1))
    for amps in (big[::2], np.asfortranarray(big)):
        with pytest.raises(ValueError, match="C-contiguous"):
            reset_one(amps, 0, np.zeros(len(amps), dtype=np.int8), np.zeros(len(amps)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex64])
def test_kernels_reject_other_dtypes(dtype):
    # both kernels read a float64 view, which would reinterpret other bytes
    for amps in (np.zeros(8, dtype=dtype), np.zeros((3, 8), dtype=dtype)):
        amps[..., 1] = 1.0
        with pytest.raises(ValueError, match="all_densities needs complex128"):
            all_densities(amps)
        target = np.zeros(amps.shape[:-1], dtype=np.int8)
        with pytest.raises(ValueError, match="reset_to needs complex128"):
            reset_one(amps, 0, target, np.zeros(amps.shape[:-1]))


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=8),
    rows=st.sampled_from([1, 3, 50]),
    seed=st.integers(min_value=0, max_value=999),
)
def test_reset_is_bit_identical_to_the_two_pass_kernel(L, rows, seed):
    # every qubit, targets mixing 0, 1 and no action, and rows whose
    # outcome is forced because one half of qubit q is empty
    gen = np.random.default_rng(seed)
    shape = (1 << L,) if rows == 1 else (rows, 1 << L)
    for q in range(L):
        amps = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        halves = amps.reshape(-1, 1 << (L - q - 1), 2, 1 << q)
        forced = gen.integers(-1, 2, size=len(halves))
        for r in np.flatnonzero(forced >= 0):
            halves[r, :, forced[r], :] = 0.0
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        target = gen.integers(-1, 2, size=shape[:-1]).astype(np.int8)
        u = gen.random(shape[:-1])
        expected = amps.copy()
        measured, changed = reference_reset_to(expected, q, target, u)
        res = reset_one(amps, q, target, u)
        assert np.array_equal(amps, expected)
        assert np.array_equal(res.measured.reshape(-1), measured) and res.changed == changed


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=8),
    rows=st.sampled_from([1, 3, 50]),
    seed=st.integers(min_value=0, max_value=999),
)
def test_step_kernel_is_the_contacts_one_by_one_in_list_order(L, rows, seed):
    # one call over a step's contacts against the two-pass kernel applied
    # contact by contact: every qubit, below and above K = L // 2, then
    # two repeats, the first read forced by the earlier reset of its
    # qubit and the last acting on no row; rows whose first outcome is
    # forced because one half of its qubit is empty
    gen = np.random.default_rng(seed)
    qs = gen.permutation(L).tolist() + gen.integers(L, size=2).tolist()
    shape = (1 << L,) if rows == 1 else (rows, 1 << L)
    amps = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    halves = amps.reshape(-1, 1 << (L - qs[0] - 1), 2, 1 << qs[0])
    forced = gen.integers(-1, 2, size=len(halves))
    for r in np.flatnonzero(forced >= 0):
        halves[r, :, forced[r], :] = 0.0
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    target = gen.integers(-1, 2, size=shape[:-1] + (len(qs),)).astype(np.int8)
    target[..., -1] = -1
    u = gen.random(target.shape)
    expected = amps.copy()
    want = [reference_reset_to(expected, q, target[..., i], u[..., i]) for i, q in enumerate(qs)]
    res = reset_to(amps, qs, target, u)
    assert np.array_equal(amps, expected)
    assert res.measured.shape == target.shape and (res.measured[..., -1] == -1).all()
    assert np.array_equal(res.measured.reshape(-1, len(qs)), np.stack([m for m, _ in want], axis=1))
    assert res.changed == sum(c for _, c in want)


def test_reset_rejects_bad_target():
    with pytest.raises(ValueError):
        reset_one(init_basis_state(1, ()), 0, 2, 0.5)
    with pytest.raises(ValueError):
        reset_one(init_basis_state(1, ()), 0, np.zeros(2, dtype=np.int8), np.zeros(2))
    # the contact axis must match the qubit list, and every qubit the state
    s = init_basis_state(2, ())
    with pytest.raises(ValueError, match="shape"):
        reset_to(s, [0, 1], np.zeros(1, dtype=np.int8), np.zeros(1))
    with pytest.raises(ValueError, match="out of range"):
        reset_to(s, [0, 2], np.zeros(2, dtype=np.int8), np.zeros(2))
    assert np.array_equal(s, init_basis_state(2, ()))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=999),
    q=st.integers(min_value=0, max_value=2),
    target=st.integers(min_value=0, max_value=1),
)
def test_reset_pins_expectation_exactly(seed, q, target):
    s, amps = random_state(3, seed)
    s[:] = amps
    reset_one(s, q, target, RngStream(seed).uniform()[0])
    assert all_densities(s)[q] == pytest.approx(float(target), abs=1e-12)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-10)


def test_expectation_examples():
    assert np.array_equal(all_densities(init_basis_state(2, ())), [0.0, 0.0])
    assert np.array_equal(all_densities(init_basis_state(2, (1,))), [0.0, 1.0])
    s = init_basis_state(1, ())
    s[:] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    assert all_densities(s)[0] == pytest.approx(0.5, abs=1e-15)


def test_all_densities_matches_per_qubit():
    s, amps = random_state(4, 21)
    s[:] = amps
    dens = all_densities(s)
    probs = np.abs(amps) ** 2
    for q in range(4):
        occupied = (np.arange(16) >> q) & 1 == 1
        assert dens[q] == pytest.approx(probs[occupied].sum(), abs=1e-14)


def test_rng_stream_reproducible_and_distinct():
    # streams 3 and 4 drawn together, call by call
    a_stream = RngStream(42, 3, 2)
    b_stream = RngStream(42, 3, 2)
    a = np.concatenate([a_stream.uniform() for _ in range(5)])
    assert a.tolist() == np.concatenate([b_stream.uniform() for _ in range(5)]).tolist()
    assert len(set(a.tolist())) == 10
    assert RngStream(42, 0).uniform()[0] != RngStream(42, 1).uniform()[0]


@pytest.mark.parametrize("L", [1, 2, 3, 6, 9])
def test_batch_densities_match_per_qubit_sums(L):
    # the two-pass densities of every row, for odd and even splits of L
    gen = np.random.default_rng(L)
    amps = gen.normal(size=(3, 1 << L)) + 1j * gen.normal(size=(3, 1 << L))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    dens = all_densities(amps)
    assert dens.shape == (3, L)
    probs = np.abs(amps) ** 2
    for q in range(L):
        occupied = (np.arange(1 << L) >> q) & 1 == 1
        assert np.max(np.abs(dens[:, q] - probs[:, occupied].sum(axis=1))) <= 1e-14


def test_rng_block_draws_equal_single_draws():
    # drawing a block of steps in several calls gives the single draws
    a, b = RngStream(7, 2, 3), RngStream(7, 2, 3)
    blocks = np.concatenate([a.uniform((3, 2, 2)).reshape(3, -1), a.uniform((1, 2, 2)).reshape(3, -1)], axis=1)
    assert blocks.tolist() == np.stack([b.uniform() for _ in range(16)], axis=1).tolist()


def test_rng_streams_pass_a_statistical_smoke_test():
    # 400 streams x 4000 draws, N = 1.6e6; each bound is about five
    # standard errors of its statistic for independent uniforms
    u = RngStream(2024, 0, 400).uniform(4000)
    n = u.size
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / n)  # 1.1e-3
    assert abs(12 * u.var() - 1) < 5 * 12 * np.sqrt((1 / 80 - 1 / 144) / n)  # 3.5e-3
    x = u - 0.5
    along = (x[:, :-1] * x[:, 1:]).mean() * 12  # lag 1 within a stream
    across = (x[:-1] * x[1:]).mean() * 12  # neighbouring streams, same draw
    assert abs(along) < 5 / np.sqrt(n) and abs(across) < 5 / np.sqrt(n)  # 4.0e-3
    counts = np.bincount((u * 64).astype(np.int64).ravel(), minlength=64)
    chi2 = ((counts - n / 64) ** 2 / (n / 64)).sum()
    assert 63 - 5 * np.sqrt(2 * 63) < chi2 < 63 + 5 * np.sqrt(2 * 63)  # 63 dof: (7, 119)


def numpy_streams(seed, first, count, n):
    """n draws of numpy's own Generator for each stream id, (count, n)."""
    return np.stack([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))).random(n)
        for k in range(first, first + count)
    ])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 7])
@pytest.mark.parametrize("first", [0, 2**31, 2**32 - 3])
def test_rng_streams_are_numpy_pcg64_bit_for_bit(seed, first, monkeypatch):
    # consecutive chunks of 0, 1, 7 and 4096 draws per stream, the jump
    # table grown from its first entry; an empty chunk (a run without
    # contacts draws (steps, 0, 2)) moves no stream
    monkeypatch.setattr(state, "_JUMPS", state._JUMPS[:, :1].copy())
    count = 3
    rng = RngStream(seed, first, count)
    chunks = [rng.uniform(0), rng.uniform(1), rng.uniform((5, 0, 2)), rng.uniform(7), rng.uniform(4096)]
    assert [c.shape for c in chunks] == [(3, 0), (3, 1), (3, 5, 0, 2), (3, 7), (3, 4096)]
    got = np.concatenate([c.reshape(count, -1) for c in chunks], axis=1)
    assert got.dtype == np.float64
    assert got.tobytes() == numpy_streams(seed, first, count, 1 + 7 + 4096).tobytes()
    assert state._JUMPS.shape == (8, 4096)


def test_rng_stream_ids_must_fit_32_bits():
    # SeedSequence would take a larger id as two words; the batch streams
    # refuse it instead of giving other streams
    assert RngStream(5, 2**32 - 1).uniform(3).tobytes() == numpy_streams(5, 2**32 - 1, 1, 3).tobytes()
    for first, count in ((2**32 - 2, 3), (2**32, 1), (-1, 2), (0, 0)):
        with pytest.raises(ValueError, match="stream ids"):
            RngStream(5, first, count)
    with pytest.raises(ValueError, match="seed"):
        RngStream(-1)
