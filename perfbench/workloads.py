"""Workload generator: one JSON scenario config per (workload, seed).

The configs are spelled out here rather than taken from the program's
presets, so a later change to a preset cannot silently change what the
benchmark measures.  The seed is the only input that varies between
runs; it is written into the config's `seed` field.

Sizes are scaled so that one fresh-process run takes 1-5 s on a 2-core
machine: each benchmark run repeats the scenario several times and
reports medians (see NOTES.md for the measured sizes and why).
"""

from __future__ import annotations

import copy


def _source_drain(L: int, Gamma: float) -> list[dict]:
    return [
        {"site": 1, "Gamma_meV": Gamma, "f": 1.0, "label": "S"},
        {"site": L, "Gamma_meV": Gamma, "f": 0.0, "label": "D"},
    ]


_BASE = {
    "wide-l16": {
        "mode": "open", "L": 16, "gamma_meV": 5.0, "v_meV": 10.0,
        "contacts": _source_drain(16, 0.5),
        "t_final": 15.0, "N_t": 30, "N_traj": 2, "init_sites": [1],
    },
    # compare-l3 preset: L=3, gamma=3, v=10, depolarizing channels on.
    "compare-l3": {
        "mode": "compare", "L": 3, "gamma_meV": 3.0, "v_meV": 10.0,
        "contacts": _source_drain(3, 0.5),
        "t_final": 10.0, "N_t": 40, "N_traj": 400, "init_sites": [1],
        "include_depolarizing": True,
    },
    # dt = 0.5, Gamma = 0.9 -> eta = 0.45 on every site; f alternates 1/0.
    "contacts-l8": {
        "mode": "open", "L": 8, "gamma_meV": 3.0, "v_meV": 10.0,
        "contacts": [
            {"site": s, "Gamma_meV": 0.9, "f": float(s % 2), "label": f"C{s}"}
            for s in range(1, 9)
        ],
        "t_final": 20.0, "N_t": 40, "N_traj": 200, "init_sites": [1, 3, 5, 7],
    },
}

WORKLOADS = tuple(_BASE)


def make_config(name: str, seed: int) -> dict:
    """The scenario config of workload `name` for benchmark seed `seed`."""
    if name not in _BASE:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    cfg = copy.deepcopy(_BASE[name])
    cfg["seed"] = int(seed)
    cfg["emit_heatmap"] = False
    return cfg
