"""Scenario configuration: JSON ingestion, validation, presets.

Sites are 1-based in config files and output (matching the physics
convention used throughout the docs); internally they map to qubits
0..L-1.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .model import ChainSpec
from .state import MAX_QUBITS
from .trajectory import ContactSpec, RunConfig, fermi_dirac, validate_contacts

MODES = ("closed", "open", "lindblad-check", "compare")

# Tolerance budget for the trajectory-vs-Lindblad comparison:
# |n_traj - n_lindblad| <= SIGMA_FACTOR * stderr + ABS_BUDGET per
# (site, time).  The absolute part covers the O(dt) trajectory bias.
SIGMA_FACTOR = 3.0
ABS_BUDGET = 0.05

CONFIG_KEYS = frozenset((
    "mode", "L", "gamma_meV", "v_meV", "contacts", "t_final", "N_t", "N_traj", "seed",
    "record_every", "init_sites", "include_depolarizing", "emit_heatmap", "output",
))
CONTACT_KEYS = frozenset(("site", "f", "eps_meV", "mu_meV", "kT_meV", "Gamma_meV", "eta", "label"))
FERMI_DIRAC_KEYS = ("eps_meV", "mu_meV", "kT_meV")


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
    include_depolarizing: bool = True
    emit_heatmap: bool = False
    output_path: str | None = None


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


def _check_memory(mode: str, L: int, run: RunConfig, n_ops: int, errors: list[str]) -> None:
    """Reject a run whose estimated peak memory exceeds physical memory,
    under the key of its largest factor, before anything is allocated."""
    # state vector, phase vector and step temporaries, 16 B per amplitude each
    state = 3 * 16 << L
    if mode in ("compare", "lindblad-check") and L <= 8:
        # the oracle's jump stack, its adjoint and the two J rho J^dag
        # temporaries, plus about ten density matrices for the RK4 stages
        state += (4 * n_ops + 10) * 16 << 2 * L
    rows = run.N_t // run.record_every + 1
    n_traj = {"closed": 1, "lindblad-check": 0}.get(mode, run.N_traj)
    # every trajectory's records, their ensemble stack and the reduction temporary
    records = 3 * n_traj * rows * L * 8
    need, have = state + records, _physical_memory()
    if need > have:
        key = "L" if state >= records else "N_traj" if n_traj > rows else "N_t"
        errors.append(
            f"{key}: L={L}, N_t={run.N_t}, record_every={run.record_every}, "
            f"N_traj={run.N_traj} needs ~{need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )


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
    return ContactSpec(q=site - 1, Gamma=gamma, f=f, label=str(entry.get("label", "")))


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

    t_final = _number(raw.get("t_final", 0.0), "t_final", errors)
    counts = {key: _count(raw.get(key, default), key, errors)
              for key, default in (("N_t", 0), ("N_traj", 1), ("seed", 0), ("record_every", 1))}
    if counts["seed"] is not None and counts["seed"] < 0:
        errors.append(f"seed: must be >= 0, got {counts['seed']}")
    run = None
    if t_final is not None and None not in counts.values():
        try:
            run = RunConfig(t_final=t_final, **counts)
        except ValueError as exc:
            errors.append(f"run: {exc}")
    if run is not None:
        if mode in ("compare", "lindblad-check") and run.N_t % run.record_every:
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
    if run is not None:
        _check_memory(mode, L, run, len(contacts) * (4 if include_depolarizing else 2), errors)

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

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        errors.append(f"output: must be a string, got {output!r}")

    if mode == "closed" and contacts:
        errors.append("mode=closed requires an empty contact list")
    if mode == "open" and not raw_contacts:
        errors.append("mode=open requires at least one contact")
    if mode in ("compare", "lindblad-check") and L > 8:
        errors.append(f"mode={mode} requires L <= 8 (dense oracle), got L={L}")

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
        output_path=output,
    )


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Inverse of parse_config: parse(json.dumps(scenario_to_dict(c)))
    recovers c field for field."""
    d = {
        "mode": cfg.mode,
        "L": cfg.chain.L,
        "gamma_meV": cfg.chain.gamma,
        "v_meV": cfg.chain.v,
        "contacts": [
            {"site": c.q + 1, "Gamma_meV": c.Gamma, "f": c.f, "label": c.label}
            for c in cfg.contacts
        ],
        "t_final": cfg.run.t_final,
        "N_t": cfg.run.N_t,
        "N_traj": cfg.run.N_traj,
        "seed": cfg.run.seed,
        "record_every": cfg.run.record_every,
        "init_sites": [q + 1 for q in cfg.init_occupations],
        "include_depolarizing": cfg.include_depolarizing,
        "emit_heatmap": cfg.emit_heatmap,
    }
    if cfg.output_path is not None:
        d["output"] = cfg.output_path
    return d


# -- presets -----------------------------------------------------------

def _source_drain(L: int, Gamma: float = 0.5) -> tuple[ContactSpec, ContactSpec]:
    return (
        ContactSpec(q=0, Gamma=Gamma, f=1.0, label="S"),
        ContactSpec(q=L - 1, Gamma=Gamma, f=0.0, label="D"),
    )


def _preset_fig2() -> ScenarioConfig:
    # single electron on a 12-site chain, recorded every 0.5 (31 rows).
    # It integrates at dt = 0.005: at dt = 0.5 the first-order bond sweep
    # carries the front across many bonds per step (density error 0.73,
    # front peak on site 12 at t = 5 instead of 7); at 0.005 the error
    # is below 0.02.
    return ScenarioConfig(
        mode="closed",
        chain=ChainSpec(L=12, gamma=1.0, v=0.0),
        contacts=(),
        run=RunConfig(t_final=15.0, N_t=3000, N_traj=1, seed=1, record_every=100),
        init_occupations=(0,),
        emit_heatmap=True,
    )


def _preset_fig3(gamma: float) -> ScenarioConfig:
    return ScenarioConfig(
        mode="open",
        chain=ChainSpec(L=7, gamma=gamma, v=10.0),
        contacts=_source_drain(7),
        run=RunConfig(t_final=10.0, N_t=20, N_traj=2000, seed=1),
        init_occupations=(0,),
    )


def _preset_fig4() -> ScenarioConfig:
    return ScenarioConfig(
        mode="open",
        chain=ChainSpec(L=12, gamma=5.0, v=10.0),
        contacts=_source_drain(12),
        run=RunConfig(t_final=15.0, N_t=30, N_traj=500, seed=1),
        init_occupations=(0,),
    )


def _preset_compare(L: int) -> ScenarioConfig:
    return ScenarioConfig(
        mode="compare",
        chain=ChainSpec(L=L, gamma=3.0, v=10.0),
        contacts=_source_drain(L),
        run=RunConfig(t_final=10.0, N_t=40, N_traj=8000, seed=1),
        init_occupations=(0,),
        include_depolarizing=True,
    )


PRESETS = {
    "fig2": _preset_fig2,
    "fig3a": lambda: _preset_fig3(3.0),
    "fig3b": lambda: _preset_fig3(5.0),
    "fig4-l12": _preset_fig4,
    "compare-l2": lambda: _preset_compare(2),
    "compare-l3": lambda: _preset_compare(3),
}


def get_preset(name: str, seed: int | None = None, n_traj: int | None = None) -> ScenarioConfig:
    """Preset `name`, with `seed` and `n_traj` overriding its own, checked
    by parse_config like any config file."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError([f"unknown preset {name!r}; available: {known}"])
    d = scenario_to_dict(PRESETS[name]())
    if seed is not None:
        d["seed"] = seed
    if n_traj is not None:
        d["N_traj"] = n_traj
    return parse_config(json.dumps(d))
