"""Per-run output checks.

The checks test properties every correct run has, whatever the seed or
the RNG draw layout: shape and range of the densities, the initial
condition, the contact statistics, the event labels and the oracle's
health.  They do not compare against golden bytes; the sha256 of
density.csv is recorded as a fingerprint only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

ACTIONS = ("inject", "remove", "null_inject", "null_remove")
DENSITY_TOL = 1e-9
ORACLE_TOL = 1e-9
SIGMAS = 5.0


def contact_etas(cfg: dict) -> dict[int, list[float]]:
    """Per-step action probability eta of every contact, by 1-based site."""
    dt = cfg["t_final"] / cfg["N_t"]
    etas: dict[int, list[float]] = {}
    for c in cfg.get("contacts", []):
        eta = c["eta"] if "eta" in c else c["Gamma_meV"] * dt
        etas.setdefault(c["site"], []).append(eta)
    return etas


def check_density(cfg: dict, path: Path) -> list[str]:
    L = cfg["L"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    header, body = rows[0], rows[1:]
    if len(header) != 1 + 2 * L:
        return [f"density.csv: {len(header)} columns, expected {1 + 2 * L}"]
    expected_rows = cfg["N_t"] // cfg.get("record_every", 1) + 1
    if len(body) != expected_rows:
        problems.append(f"density.csv: {len(body)} rows, expected {expected_rows}")
    for i, row in enumerate(body):
        vals = [float(v) for v in row]
        n, se = vals[1 : 1 + L], vals[1 + L :]
        if not all(-DENSITY_TOL <= x <= 1.0 + DENSITY_TOL for x in n):
            problems.append(f"density.csv row {i}: a density is outside [0, 1]")
        if not all(math.isfinite(x) and x >= 0.0 for x in se):
            problems.append(f"density.csv row {i}: a stderr is negative or not finite")
    if body:
        t0 = [float(v) for v in body[0]]
        occupied = set(cfg.get("init_sites", []))
        want = [1.0 if s in occupied else 0.0 for s in range(1, L + 1)]
        if t0[0] != 0.0 or any(abs(a - b) > DENSITY_TOL for a, b in zip(t0[1 : 1 + L], want)):
            problems.append("density.csv: the t=0 row is not the initial occupation")
    return problems


def check_events(cfg: dict, path: Path) -> list[str]:
    etas = contact_etas(cfg)
    n_traj, n_t = cfg.get("N_traj", 1), cfg["N_t"]
    problems = []
    attempts: Counter[int] = Counter()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["traj", "step", "site", "action"]:
            return ["events.csv: wrong header"]
        for line, (traj, step, site, action) in enumerate(reader, start=2):
            site_i = int(site)
            if site_i not in etas:
                problems.append(f"events.csv line {line}: site {site} has no contact")
            if action not in ACTIONS:
                problems.append(f"events.csv line {line}: unknown action {action!r}")
            if not (0 <= int(traj) < n_traj and 1 <= int(step) <= n_t):
                problems.append(f"events.csv line {line}: traj/step out of range")
            attempts[site_i] += 1
            if len(problems) > 20:
                return problems
    # Each contact draws an action once per (trajectory, step): the
    # attempts on a site are a sum of Binomial(N_traj * N_t, eta).
    trials = n_traj * n_t
    for site, site_etas in sorted(etas.items()):
        mean = trials * sum(site_etas)
        sigma = math.sqrt(trials * sum(e * (1.0 - e) for e in site_etas))
        if abs(attempts[site] - mean) > SIGMAS * sigma + 1e-9:
            problems.append(
                f"events.csv: {attempts[site]} attempts on site {site}, "
                f"expected {mean:.1f} +- {SIGMAS:g} x {sigma:.1f}"
            )
    return problems


def check_verdict(path: Path) -> list[str]:
    v = json.loads(path.read_text())
    problems = []
    if not v["oracle_max_trace_drift"] <= ORACLE_TOL:
        problems.append(f"verdict.json: oracle trace drift {v['oracle_max_trace_drift']:.3g}")
    if not v["oracle_max_hermiticity_defect"] <= ORACLE_TOL:
        problems.append(f"verdict.json: oracle hermiticity defect {v['oracle_max_hermiticity_defect']:.3g}")
    if not v["oracle_min_eigenvalue"] >= -ORACLE_TOL:
        problems.append(f"verdict.json: oracle min eigenvalue {v['oracle_min_eigenvalue']:.3g}")
    return problems


def check_run(cfg: dict, out: Path, exit_code: int | None) -> list[str]:
    """Every problem found in one run's outputs; empty when the run is good.

    A compare run may exit 2 (verdict FAIL): that is a result, reported
    through the oracle gap, not a failed run.
    """
    allowed = (0, 2) if cfg["mode"] == "compare" else (0,)
    if exit_code not in allowed:
        return [f"exit code {exit_code}"]
    names = ["density.csv", "events.csv"] + (["verdict.json"] if cfg["mode"] == "compare" else [])
    absent = [n for n in names if not (out / n).is_file()]
    if absent:
        return [f"missing output {n}" for n in absent]
    problems = check_density(cfg, out / "density.csv") + check_events(cfg, out / "events.csv")
    if cfg["mode"] == "compare":
        problems += check_verdict(out / "verdict.json")
    return problems


def fingerprint(out: Path) -> str:
    """sha256 of density.csv: recorded, never gated on."""
    return hashlib.sha256((out / "density.csv").read_bytes()).hexdigest()


def oracle_gap(out: Path) -> float:
    """max over (site, t) of |ensemble - Lindblad|, from verdict.json."""
    return float(json.loads((out / "verdict.json").read_text())["max_abs_deviation"])
