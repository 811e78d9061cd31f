"""Hamiltonian construction: Jordan-Wigner terms vs the Fock-space oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openchain.model import (
    ChainSpec,
    PauliHamiltonian,
    PauliTerm,
    build_chain_hamiltonian,
    fermion_lowering,
    fock_matrix_oracle,
)


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
    assert {(t.letters, t.coeff) for t in h.terms} == {("XX", 0.5), ("YY", 0.5)}


def test_single_site_has_no_terms():
    h = build_chain_hamiltonian(ChainSpec(L=1, gamma=5.0, v=7.0))
    assert h.terms == ()


def test_three_site_matches_fock_oracle():
    spec = ChainSpec(L=3, gamma=3.0, v=10.0)
    jw = build_chain_hamiltonian(spec).to_matrix()
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
    jw = build_chain_hamiltonian(spec).to_matrix()
    assert np.max(np.abs(jw - fock_matrix_oracle(spec))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=5),
    gamma=st.floats(min_value=-10, max_value=10, allow_nan=False),
    v=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_hamiltonian_is_hermitian(L, gamma, v):
    H = build_chain_hamiltonian(ChainSpec(L=L, gamma=gamma, v=v)).to_matrix()
    assert np.max(np.abs(H - H.conj().T)) <= 1e-14


@pytest.mark.parametrize("L", [2, 4, 6])
def test_commutes_with_total_number(L):
    H = build_chain_hamiltonian(ChainSpec(L=L, gamma=3.0, v=10.0)).to_matrix()
    N = sum(c.conj().T @ c for c in (fermion_lowering(q, L) for q in range(L)))
    assert np.linalg.norm(H @ N - N @ H) <= 1e-12


def test_term_ordering_is_deterministic():
    h = build_chain_hamiltonian(ChainSpec(L=3, gamma=1.0, v=4.0))
    letters = [t.letters for t in h.terms]
    # hopping bonds ascending, XX before YY, then interaction strings
    assert letters[:4] == ["XXI", "YYI", "IXX", "IYY"]
    assert "III" in letters[4:]


def test_pauliterm_validation():
    with pytest.raises(ValueError):
        PauliTerm(1.0, "XQ")
    with pytest.raises(ValueError):
        PauliTerm(float("nan"), "XX")
    with pytest.raises(ValueError):
        PauliTerm(1.0, "")


def test_hamiltonian_rejects_duplicate_strings():
    with pytest.raises(ValueError):
        PauliHamiltonian(2, (PauliTerm(0.5, "XX"), PauliTerm(0.25, "XX")))


def test_lowering_operators_anticommute():
    L = 3
    c0 = fermion_lowering(0, L)
    c2 = fermion_lowering(2, L)
    assert np.max(np.abs(c0 @ c2 + c2 @ c0)) <= 1e-14
    anti = c0 @ c2.conj().T + c2.conj().T @ c0
    assert np.max(np.abs(anti)) <= 1e-14
