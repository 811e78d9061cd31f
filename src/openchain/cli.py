"""Command-line harness: `openchain run --config FILE` runs a scenario
config of any mode, `openchain preset NAME` a named preset.  A compare
scenario also checks the trajectory ensemble against the Lindblad oracle.

Exit codes: 0 = success (and PASS for compare), 1 = usage or
validation error, 2 = compare FAIL.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    ABS_BUDGET,
    SIGMA_FACTOR,
    ConfigError,
    ScenarioConfig,
    check_memory,
    get_preset,
    parse_config,
)
from .lindblad import build_jump_operators, integrate
from .model import ChainHamiltonian, build_chain_hamiltonian, fock_matrix_oracle
from .output import emit_csv, emit_events_csv, emit_heatmap, open_events_csv
from .state import init_basis_state
from .trajectory import EnsembleResult, default_workers, run_ensemble
from .trotter import TrotterPlan, build_step


def _lindblad_run(cfg: ScenarioConfig):
    """Integrate the master-equation oracle on the trajectory recording
    grid.  Its Hamiltonian comes from fermion operators, not from the
    Jordan-Wigner form the trajectories run, so a fault in that form's
    hopping shows up as a compare FAIL, and one in its diagonal from
    L = 3: at L = 2 the pair term sits on the one-state N = 2 sector
    alone, where it is a phase.  A flipped sign of v cannot show at any
    L; it is the conjugate step in a staggered gauge."""
    J = build_jump_operators(
        cfg.contacts, cfg.chain.L, include_depolarizing=cfg.include_depolarizing
    )
    psi = init_basis_state(cfg.chain.L, cfg.init_occupations)
    run = cfg.run
    return integrate(np.outer(psi, psi.conj()), fock_matrix_oracle(cfg.chain), J,
                     run.t_final, run.N_t, run.record_every)


def scenario_step(cfg: ScenarioConfig, ham: ChainHamiltonian) -> TrotterPlan:
    """The Trotter step a scenario runs.  Compare mode checks the
    ensemble against the continuum master equation, so it splits the
    step symmetrically around the contacts, second order in dt; closed
    and open modes run the first-order step, the unitary and then the
    contacts."""
    return build_step(ham, cfg.run.dt, symmetric=cfg.mode == "compare")


def compare_verdict(ens: EnsembleResult, lind) -> dict:
    """The verdict on the ensemble against the oracle, with the (site,
    t) of the largest excess over SIGMA_FACTOR * stderr after t = 0 (the
    first such cell in time, then site, on a tie); sites are 1-based.
    At t = 0 both sides start from the same basis state, so that row
    would only name a trivial cell; it still counts for the pass.
    `oracle` names what the ensemble is checked against: "continuum",
    the master-equation integration of `lindblad.integrate`."""
    diff = np.abs(ens.mean_density - lind.densities)
    excess = diff - SIGMA_FACTOR * ens.stderr
    row, col = np.unravel_index(np.argmax(excess[1:]), excess[1:].shape)
    row += 1
    return {
        "oracle": "continuum",
        "sigma_factor": SIGMA_FACTOR,
        "abs_budget": ABS_BUDGET,
        "max_abs_deviation": float(diff.max()),
        "max_excess_over_sigma": float(excess[row, col]),
        "worst_site": int(col) + 1,
        "worst_t": float(ens.times[row]),
        "pass": bool(excess.max() <= ABS_BUDGET),
        "oracle_max_trace_drift": lind.max_trace_drift,
        "oracle_max_hermiticity_defect": lind.max_hermiticity_defect,
        "oracle_min_eigenvalue": lind.min_eigenvalue,
    }


def run_scenario(cfg: ScenarioConfig, out_dir, workers: int | None = None) -> int:
    """Execute one scenario and write its output files.  Returns the
    process exit code.

    Every mode runs one trajectory ensemble: closed mode one trajectory,
    open and compare N_traj.  Compare mode adds the Lindblad densities
    as `lindblad.csv` and the verdict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ham = build_chain_hamiltonian(cfg.chain)
    plan = scenario_step(cfg, ham)
    run = replace(cfg.run, N_traj=1) if cfg.mode == "closed" else cfg.run
    # the heatmap's markers: one event row that changed a site per distinct
    # (step, site, target), at most 2 * N_t * contacts rows for any N_traj
    markers = np.zeros((0, 5), dtype=np.int64)
    with open_events_csv(out / "events.csv") as fh:

        def write_events(rows: np.ndarray) -> None:
            nonlocal markers
            emit_events_csv(rows, fh)
            if cfg.emit_heatmap:
                markers = np.concatenate((markers, rows[rows[:, 4] == 1]))
                markers = markers[np.unique(markers[:, 1:4], axis=0, return_index=True)[1]]

        ens = run_ensemble(plan, cfg.contacts, run, cfg.init_occupations, workers=workers,
                           events=write_events)
    emit_csv(ens, out / "density.csv")
    if cfg.emit_heatmap:
        emit_heatmap(ens, markers, out / "heatmap.svg", n_steps=cfg.run.N_t)
    if cfg.mode != "compare":
        return 0

    lind = _lindblad_run(cfg)
    oracle = EnsembleResult(lind.times, lind.densities, np.zeros_like(lind.densities))
    emit_csv(oracle, out / "lindblad.csv")
    verdict = compare_verdict(ens, lind)
    (out / "verdict.json").write_text(json.dumps(verdict, indent=2) + "\n")
    print(f"compare: max|diff| = {verdict['max_abs_deviation']:.4f}, worst excess "
          f"{verdict['max_excess_over_sigma']:.4f} at site {verdict['worst_site']}, "
          f"t = {verdict['worst_t']:g}, {'PASS' if verdict['pass'] else 'FAIL'}")
    return 0 if verdict["pass"] else 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="openchain",
        description="Open fermionic chain: stochastic measure-and-reset "
        "trajectories with a Lindblad oracle",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario of any mode from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--workers", type=int, default=None)

    pre = sub.add_parser("preset", help="run a named preset")
    pre.add_argument("name")
    pre.add_argument("--out", default=None)
    pre.add_argument("--seed", type=int, default=None)
    pre.add_argument("--traj", type=int, default=None)
    pre.add_argument("--workers", type=int, default=None)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; a usage error exits 1, since
        # 2 means a compare FAIL, and --help exits 0
        return 1 if exc.code else 0
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 1
    try:
        if args.command == "preset":
            cfg = get_preset(args.name, seed=args.seed, n_traj=args.traj)
            out = args.out or f"out_{args.name}"
        else:
            cfg = parse_config(Path(args.config).read_text())
            out = args.out or "out"
        workers = default_workers() if args.workers is None else args.workers
        check_memory(cfg, workers)
        return run_scenario(cfg, out, workers=workers)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
