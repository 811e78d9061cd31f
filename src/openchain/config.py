"""Scenario configuration: JSON ingestion, validation, presets.

A scenario is one JSON document.  `parse_config` is the only thing that
builds a `ScenarioConfig`; a preset is the dict that a config file would
hold, checked by `parse_config` like any file.  `check_memory` is the
one memory check; it needs the worker count, which the CLI resolves.

Sites are 1-based in config files and output (matching the physics
convention used throughout the docs); internally they map to qubits
0..L-1.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .lindblad import MAX_LINDBLAD_QUBITS
from .model import ChainSpec
from .state import MAX_QUBITS
from .trajectory import (
    BATCH_AMPS,
    ContactSpec,
    RunConfig,
    batch_count,
    chunk_steps,
    fermi_dirac,
    validate_contacts,
)

MODES = ("closed", "open", "compare")

# Tolerance budget for the trajectory-vs-Lindblad comparison:
# |n_traj - n_lindblad| <= SIGMA_FACTOR * stderr + ABS_BUDGET per
# (site, time).  The absolute part covers the O(dt) trajectory bias.
SIGMA_FACTOR = 3.0
ABS_BUDGET = 0.05

CONFIG_KEYS = frozenset((
    "mode", "L", "gamma_meV", "v_meV", "contacts", "t_final", "N_t", "N_traj", "seed",
    "record_every", "init_sites", "include_depolarizing", "emit_heatmap",
))
# "label" is a free-form annotation; nothing reads it
CONTACT_KEYS = frozenset(("site", "f", "eps_meV", "mu_meV", "kT_meV", "Gamma_meV", "eta", "label"))
FERMI_DIRAC_KEYS = ("eps_meV", "mu_meV", "kT_meV")

# per amplitude of a batch in flight: the state, the scratch buffer that
# trotter.apply_step's blocks write into and the phase vector, 16 B each;
# tracemalloc measured peaks of 3.0 to 3.1 times 16 B per amplitude for
# one trajectory at L = 16 to 20, so this keeps some room
STATE_BYTES = 56
# per (row, step, contact) of a draw chunk: the uint64 temporaries of
# state.RngStream.uniform, whose tracemalloc peak is 48 B per uniform,
# for its two uniforms, and the previous chunk's two float64 uniforms
# and int8 target and outcome, still held while the next is drawn
DRAW_BYTES = 2 * 48 + 2 * 8 + 2
# per uniform that a row draws in one chunk: its 64 B column of the
# process's jump table (state._jumps), 96 B at the peak of its growth
JUMP_BYTES = 96
# per batch whatever its size: the plan's blocks, the kernels' cached
# index tables and small arrays; tracemalloc measured 8 to 210 KiB of
# peak beyond the 3.0 x 16 B per amplitude for one trajectory at
# L = 2 to 16
BATCH_FIXED_BYTES = 256 << 10


class ConfigError(ValueError):
    """All validation problems of a config, collected."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    chain: ChainSpec
    contacts: tuple[ContactSpec, ...]
    run: RunConfig
    init_occupations: tuple[int, ...]  # 0-based qubit indices
    include_depolarizing: bool
    emit_heatmap: bool


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, path: str, errors: list[str]) -> float | None:
    """`value` as a float if it is a finite JSON number, else None with
    the error recorded under `path`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    errors.append(f"{path}: must be a finite number, got {value!r}")
    return None


def _count(value, path: str, errors: list[str]) -> int | None:
    """`value` as an int if it is a whole JSON number, else None with
    the error recorded under `path`."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not _is_int(value):
        errors.append(f"{path}: must be an integer, got {value!r}")
        return None
    return value


def _flag(raw: dict, key: str, default: bool, errors: list[str]) -> bool:
    """`raw[key]` if it is a JSON boolean, else the error under `key`."""
    value = raw.get(key, default)
    if not isinstance(value, bool):
        errors.append(f"{key}: must be true or false, got {value!r}")
    return value is True


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _engine_bytes(L: int, rows: int, n_contacts: int, N_t: int) -> int:
    """A batch of `rows` trajectories in flight: its state with the
    step's copies, a draw chunk with its jump table, the fixed rest."""
    steps = min(N_t, chunk_steps(rows, n_contacts))
    return ((STATE_BYTES * rows << L) + (DRAW_BYTES * rows + 2 * JUMP_BYTES) * steps * n_contacts
            + BATCH_FIXED_BYTES)


def _running_bytes(L: int, rows: int, contacts, run: RunConfig) -> int:
    """The records and event codes of a batch of `rows` trajectories:
    float64 densities per record and site, one int8 code per step and
    contact."""
    return rows * ((run.N_t // run.record_every + 1) * L * 8 + run.N_t * len(contacts))


def check_memory(cfg: ScenarioConfig, workers: int) -> None:
    """Raise ConfigError if the estimated peak memory of `cfg` run on
    `workers` processes exceeds physical memory: under `L` when the
    batches' states dominate, else under `N_t`, which sizes the records
    and event codes.  It counts a batch of the largest size the
    partition allows in flight in each process that holds one:
    min(workers, batches) processes, which is the calling process alone
    when that number is 1.  With a pool it adds the calling process's
    window of finished batches, and in compare mode its oracle; nothing
    grows with N_traj."""
    L, run, contacts = cfg.chain.L, cfg.run, cfg.contacts
    n_traj = 1 if cfg.mode == "closed" else run.N_traj
    rows_per_batch = min(n_traj, max(1, BATCH_AMPS >> L))
    workers = min(workers, batch_count(L, n_traj))
    state = workers * _engine_bytes(L, rows_per_batch, len(contacts), run.N_t)
    if cfg.mode == "compare":
        # the oracle's record-step propagator on the C(2L, L) entries of the
        # particle-number blocks: four such square matrices at the peak of
        # its powering (0.70 GiB at L = 7, 9.9 GiB at L = 8), plus the jump
        # stack, its adjoint and the two J rho J^dag temporaries
        n_ops = len(contacts) * (4 if cfg.include_depolarizing else 2)
        D = math.comb(2 * L, L)
        state += 16 * (4 * D * D + (4 * n_ops << 2 * L))
    batch = _running_bytes(L, rows_per_batch, contacts, run)
    # a pool's results wait in the calling process: the batch being folded,
    # the at most workers + 1 submitted ahead of it and the pickled bytes of
    # one of those in transit
    window = 0 if workers == 1 else (workers + 3) * batch
    held = workers * batch + window
    need, have = state + held, _physical_memory()
    if need > have:
        key = "L" if state >= held else "N_t"
        raise ConfigError([
            f"{key}: L={L}, N_t={run.N_t}, record_every={run.record_every}, "
            f"N_traj={run.N_traj} needs ~{need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        ])


def _contact_from_dict(entry: dict, L: int, dt: float, path: str, errors: list[str]):
    errors.extend(f"{path}.{k}: unknown key" for k in entry if k not in CONTACT_KEYS)
    if "f" in entry and any(k in entry for k in FERMI_DIRAC_KEYS):
        errors.append(f"{path}.f: give either 'f' or (eps_meV, mu_meV, kT_meV), not both")
        return None
    if "Gamma_meV" in entry and "eta" in entry:
        errors.append(f"{path}.eta: give either 'Gamma_meV' or 'eta', not both")
        return None
    site = entry.get("site")
    if not _is_int(site) or not 1 <= site <= L:
        errors.append(f"{path}.site: must be an integer in [1, {L}], got {site!r}")
        return None
    if "f" in entry:
        f = _number(entry["f"], f"{path}.f", errors)
        if f is None:
            return None
        if not 0.0 <= f <= 1.0:
            errors.append(f"{path}.f: must be in [0, 1], got {f!r}")
            return None
    elif all(k in entry for k in FERMI_DIRAC_KEYS):
        eps, mu, kT = (_number(entry[k], f"{path}.{k}", errors) for k in FERMI_DIRAC_KEYS)
        if None in (eps, mu, kT):
            return None
        try:
            f = fermi_dirac(eps, mu, kT)
        except ValueError as exc:
            errors.append(f"{path}: bad Fermi-Dirac parameters ({exc})")
            return None
    else:
        errors.append(f"{path}: needs either 'f' or (eps_meV, mu_meV, kT_meV)")
        return None
    if "Gamma_meV" in entry:
        gamma = _number(entry["Gamma_meV"], f"{path}.Gamma_meV", errors)
    elif "eta" in entry:
        # alternate reading: a dimensionless per-step probability
        eta = _number(entry["eta"], f"{path}.eta", errors)
        gamma = None if eta is None else eta / dt
    else:
        errors.append(f"{path}: needs either 'Gamma_meV' or 'eta'")
        return None
    if gamma is None:
        return None
    if not (gamma >= 0 and math.isfinite(gamma)):
        errors.append(f"{path}.Gamma_meV: must be >= 0, got {gamma!r}")
        return None
    return ContactSpec(q=site - 1, Gamma=gamma, f=f)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario config.

    Raises ConfigError carrying every violation found, with key paths.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level value must be a JSON object"])

    errors = [f"{k}: unknown key" for k in raw if k not in CONFIG_KEYS]

    mode = raw.get("mode")
    if mode not in MODES:
        errors.append(f"mode: must be one of {MODES}, got {mode!r}")

    # checked before anything is sized by L: the state vector has 2^L amplitudes
    L = raw.get("L")
    if not _is_int(L) or not 1 <= L <= MAX_QUBITS:
        errors.append(f"L: must be an integer in [1, {MAX_QUBITS}], got {L!r}")
        raise ConfigError(errors)

    gamma = _number(raw.get("gamma_meV", 0.0), "gamma_meV", errors)
    v = _number(raw.get("v_meV", 0.0), "v_meV", errors)
    chain = None if None in (gamma, v) else ChainSpec(L, gamma, v)

    # every run field checked under its own key; the run is built only if
    # none of them is wrong
    n_errors = len(errors)
    t_final = _number(raw.get("t_final", 0.0), "t_final", errors)
    if t_final is not None and t_final <= 0.0:
        errors.append(f"t_final: must be positive, got {t_final!r}")
    counts = {}
    for key, default, least in (("N_t", 0, 1), ("N_traj", 1, 1), ("seed", 0, 0), ("record_every", 1, 1)):
        counts[key] = _count(raw.get(key, default), key, errors)
        if counts[key] is not None and counts[key] < least:
            errors.append(f"{key}: must be >= {least}, got {counts[key]}")
    if counts["N_traj"] is not None and counts["N_traj"] > 1 << 32:
        # trajectory k draws from random stream k, and stream ids stop at 2^32
        errors.append(f"N_traj: must be <= 2^32, got {counts['N_traj']}")
    n_t, every = counts["N_t"], counts["record_every"]
    if n_t is not None and every is not None and 1 <= n_t < every:
        # the first record would fall after the last step: only t = 0 is recorded
        errors.append(f"record_every: must not exceed N_t, got record_every={every}, N_t={n_t}")
    if len(errors) == n_errors and not 0.0 < t_final / counts["N_t"] < math.inf:
        # dt sizes every rate (eta / dt) and must not underflow: 5e-324 / 2 is 0.0
        errors.append(f"t_final: t_final / N_t must be positive and finite, got "
                      f"{t_final!r} / {counts['N_t']} = {t_final / counts['N_t']!r}")
    run = RunConfig(t_final=t_final, **counts) if len(errors) == n_errors else None
    if run is not None:
        if mode == "compare" and run.N_t % run.record_every:
            errors.append(
                f"record_every: mode={mode} needs N_t divisible by record_every, "
                f"got N_t={run.N_t}, record_every={run.record_every}"
            )

    contacts: list[ContactSpec] = []
    raw_contacts = raw.get("contacts", [])
    if not isinstance(raw_contacts, list):
        errors.append("contacts: must be a list")
        raw_contacts = []
    if run is not None:
        for i, entry in enumerate(raw_contacts):
            if not isinstance(entry, dict):
                errors.append(f"contacts[{i}]: must be an object")
                continue
            c = _contact_from_dict(entry, L, run.dt, f"contacts[{i}]", errors)
            if c is not None:
                contacts.append(c)
        errors.extend(validate_contacts(contacts, L, run.dt))

    include_depolarizing = _flag(raw, "include_depolarizing", True, errors)
    emit_heatmap = _flag(raw, "emit_heatmap", False, errors)

    init_sites = raw.get("init_sites", [])
    init: list[int] = []
    if not isinstance(init_sites, list):
        errors.append("init_sites: must be a list of site numbers")
    else:
        for s in init_sites:
            if not _is_int(s) or not 1 <= s <= L:
                errors.append(f"init_sites: site {s!r} out of range [1, {L}]")
            elif s - 1 in init:
                errors.append(f"init_sites: site {s} listed twice")
            else:
                init.append(s - 1)

    if mode == "closed" and contacts:
        errors.append("mode=closed requires an empty contact list")
    if mode == "open" and not raw_contacts:
        errors.append("mode=open requires at least one contact")
    if mode == "compare" and L > MAX_LINDBLAD_QUBITS:
        errors.append(f"mode={mode} requires L <= {MAX_LINDBLAD_QUBITS} (dense oracle), got L={L}")

    if errors or chain is None or run is None:
        raise ConfigError(errors)

    return ScenarioConfig(
        mode=mode,
        chain=chain,
        contacts=tuple(contacts),
        run=run,
        init_occupations=tuple(sorted(init)),
        include_depolarizing=include_depolarizing,
        emit_heatmap=emit_heatmap,
    )


# -- presets -----------------------------------------------------------

def _source_drain(L: int) -> list[dict]:
    """A source (f = 1) on site 1 and a drain (f = 0) on site L."""
    return [{"site": 1, "Gamma_meV": 0.5, "f": 1.0}, {"site": L, "Gamma_meV": 0.5, "f": 0.0}]


def _transport(mode: str, L: int, gamma: float, t_final: float, N_t: int, N_traj: int) -> dict:
    """The chain between a source and a drain, one electron on site 1."""
    return {
        "mode": mode, "L": L, "gamma_meV": gamma, "v_meV": 10.0, "contacts": _source_drain(L),
        "t_final": t_final, "N_t": N_t, "N_traj": N_traj, "seed": 1, "init_sites": [1],
    }


PRESETS = {
    # single electron on a 12-site chain, recorded every 0.5 (31 rows).
    # It integrates at dt = 0.005: at dt = 0.5 the first-order bond sweep
    # carries the front across many bonds per step (density error 0.73,
    # front peak on site 12 at t = 5 instead of 7); at 0.005 the error
    # is below 0.02.
    "fig2": {
        "mode": "closed", "L": 12, "gamma_meV": 1.0, "v_meV": 0.0, "t_final": 15.0,
        "N_t": 3000, "seed": 1, "record_every": 100, "init_sites": [1], "emit_heatmap": True,
    },
    "fig3a": _transport("open", 7, 3.0, 10.0, 20, 2000),
    "fig3b": _transport("open", 7, 5.0, 10.0, 20, 2000),
    "fig4-l12": _transport("open", 12, 5.0, 15.0, 30, 500),
    "compare-l2": _transport("compare", 2, 3.0, 10.0, 40, 8000),
    "compare-l3": _transport("compare", 3, 3.0, 10.0, 40, 8000),
}


def get_preset(name: str, seed: int | None = None, n_traj: int | None = None) -> ScenarioConfig:
    """Preset `name`, with `seed` and `n_traj` overriding its own, checked
    by parse_config like any config file."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError([f"unknown preset {name!r}; available: {known}"])
    d = dict(PRESETS[name])
    if seed is not None:
        d["seed"] = seed
    if n_traj is not None:
        d["N_traj"] = n_traj
    return parse_config(json.dumps(d))
