"""Stochastic measure-and-reset trajectory simulator for an open
spinless-fermion chain, with an independent Lindblad oracle."""

__version__ = "0.1.0"
