"""Stochastic measure-and-reset trajectory simulator for an open
spinless-fermion chain, with an independent Lindblad oracle."""

from .model import (
    ChainSpec,
    PauliHamiltonian,
    PauliTerm,
    build_chain_hamiltonian,
    fock_matrix_oracle,
)
from .state import (
    RngStream,
    init_basis_state,
    reset_to,
)
from .trajectory import (
    ContactSpec,
    EnsembleResult,
    RunConfig,
    fermi_dirac,
    run_ensemble,
    run_trajectory,
    step_probabilities,
)
from .trotter import TrotterPlan, apply_step, build_step, exact_propagator_oracle

__all__ = [
    "ChainSpec",
    "PauliHamiltonian",
    "PauliTerm",
    "build_chain_hamiltonian",
    "fock_matrix_oracle",
    "RngStream",
    "init_basis_state",
    "reset_to",
    "ContactSpec",
    "EnsembleResult",
    "RunConfig",
    "fermi_dirac",
    "run_ensemble",
    "run_trajectory",
    "step_probabilities",
    "TrotterPlan",
    "apply_step",
    "build_step",
    "exact_propagator_oracle",
]

__version__ = "0.1.0"
