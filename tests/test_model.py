"""Hamiltonian construction: the Jordan-Wigner form vs the Pauli strings
and the Fock-space oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openchain.model import ChainSpec, build_chain_hamiltonian, fermion_lowering, fock_matrix_oracle
from pauli import form_matrix


def test_chainspec_rejects_bad_length():
    with pytest.raises(ValueError):
        ChainSpec(L=0, gamma=1.0)
    with pytest.raises(ValueError):
        ChainSpec(L=-3, gamma=1.0)


def test_chainspec_rejects_nonfinite_couplings():
    with pytest.raises(ValueError):
        ChainSpec(L=2, gamma=float("nan"))
    with pytest.raises(ValueError):
        ChainSpec(L=2, gamma=1.0, v=float("inf"))


def test_two_site_hopping_terms():
    h = build_chain_hamiltonian(ChainSpec(L=2, gamma=1.0, v=0.0))
    assert (h.L, h.gamma, h.v) == (2, 1.0, 0.0)


def test_single_site_has_no_terms():
    # no bond, so neither hopping nor interaction
    h = build_chain_hamiltonian(ChainSpec(L=1, gamma=5.0, v=7.0))
    assert np.array_equal(form_matrix(h), np.zeros((2, 2)))


def test_three_site_matches_fock_oracle():
    spec = ChainSpec(L=3, gamma=3.0, v=10.0)
    jw = form_matrix(build_chain_hamiltonian(spec))
    assert np.max(np.abs(jw - fock_matrix_oracle(spec))) <= 1e-12


def test_fock_oracle_two_site_hopping_matrix():
    # basis order |00>, |01>, |10>, |11> with bit 0 = site 1
    H = fock_matrix_oracle(ChainSpec(L=2, gamma=1.0, v=0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.max(np.abs(H - expected)) <= 1e-14


def test_fock_oracle_interaction_is_diagonal():
    H = fock_matrix_oracle(ChainSpec(L=2, gamma=0.0, v=7.0))
    assert np.max(np.abs(H - np.diag([0.0, 0.0, 0.0, 7.0]))) <= 1e-14


def test_fock_oracle_rejects_large_l():
    with pytest.raises(ValueError):
        fock_matrix_oracle(ChainSpec(L=13, gamma=1.0))


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=5),
    gamma=st.floats(min_value=-10, max_value=10, allow_nan=False),
    v=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_jw_equals_fock_oracle(L, gamma, v):
    spec = ChainSpec(L=L, gamma=gamma, v=v)
    jw = form_matrix(build_chain_hamiltonian(spec))
    assert np.max(np.abs(jw - fock_matrix_oracle(spec))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=5),
    gamma=st.floats(min_value=-10, max_value=10, allow_nan=False),
    v=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_hamiltonian_is_hermitian(L, gamma, v):
    H = form_matrix(build_chain_hamiltonian(ChainSpec(L=L, gamma=gamma, v=v)))
    assert np.max(np.abs(H - H.conj().T)) <= 1e-14


@pytest.mark.parametrize("L", [2, 4, 6])
def test_commutes_with_total_number(L):
    H = form_matrix(build_chain_hamiltonian(ChainSpec(L=L, gamma=3.0, v=10.0)))
    N = sum(c.conj().T @ c for c in (fermion_lowering(q, L) for q in range(L)))
    assert np.linalg.norm(H @ N - N @ H) <= 1e-12


def test_lowering_operators_anticommute():
    L = 3
    c0 = fermion_lowering(0, L)
    c2 = fermion_lowering(2, L)
    assert np.max(np.abs(c0 @ c2 + c2 @ c0)) <= 1e-14
    anti = c0 @ c2.conj().T + c2.conj().T @ c0
    assert np.max(np.abs(anti)) <= 1e-14
