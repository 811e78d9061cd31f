"""CLI harness, CSV/SVG emitters, and end-to-end scenario runs."""

import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import openchain
from openchain import output, trajectory
from openchain.cli import compare_verdict, main, run_scenario, scenario_step
from openchain.config import get_preset, parse_config
from openchain.model import build_chain_hamiltonian
from openchain.output import (
    ACTIONS,
    CELL,
    EVENTS_BLOCK,
    MARGIN,
    _events_block,
    emit_csv,
    emit_events_csv,
    emit_heatmap,
    mark_changes,
    open_events_csv,
)
from openchain.trajectory import EnsembleResult

CLOSED_CONFIG = {
    "mode": "closed",
    "L": 3,
    "gamma_meV": 1.0,
    "v_meV": 0.0,
    "t_final": 2.0,
    "N_t": 4,
    "seed": 3,
    "init_sites": [1],
    "emit_heatmap": True,
}

COMPARE_CONFIG = {
    "mode": "compare",
    "L": 2,
    "gamma_meV": 3.0,
    "v_meV": 10.0,
    "contacts": [
        {"site": 1, "Gamma_meV": 0.5, "f": 1.0, "label": "S"},
        {"site": 2, "Gamma_meV": 0.5, "f": 0.0, "label": "D"},
    ],
    "t_final": 10.0,
    "N_t": 40,
    "N_traj": 400,
    "seed": 1,
    "init_sites": [1],
}


OPEN_CONFIG = dict(COMPARE_CONFIG, mode="open", N_traj=20)
TRAJ_FILES = {"density.csv", "events.csv"}

# (config, the exact set of files written)
SCENARIO_FILES = {
    "closed": (CLOSED_CONFIG, TRAJ_FILES | {"heatmap.svg"}),
    "closed-no-heatmap": (dict(CLOSED_CONFIG, emit_heatmap=False), TRAJ_FILES),
    "open": (OPEN_CONFIG, TRAJ_FILES),
    "open-heatmap": (dict(OPEN_CONFIG, emit_heatmap=True), TRAJ_FILES | {"heatmap.svg"}),
    "compare": (dict(COMPARE_CONFIG, N_traj=20), TRAJ_FILES | {"lindblad.csv", "verdict.json"}),
}


def parse_density_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a density CSV as (times, mean, stderr)."""
    rows = [line.split(",") for line in Path(path).read_text().strip().splitlines()]
    header, body = rows[0], rows[1:]
    L = (len(header) - 1) // 2
    data = np.array([[float(v) for v in r] for r in body])
    return data[:, 0], data[:, 1 : 1 + L], data[:, 1 + L :]


def one_point_result(densities, stderr=None):
    dens = np.atleast_2d(np.asarray(densities, dtype=float))
    se = np.zeros_like(dens) if stderr is None else np.atleast_2d(stderr)
    return EnsembleResult(times=np.arange(dens.shape[0], dtype=float), mean_density=dens, stderr=se)


def write_events_csv(codes, traj_id, qs, path):
    with open_events_csv(path) as fh:
        emit_events_csv(codes, traj_id, qs, fh)


def events_text(codes, traj_id, qs):
    """events.csv's rows of a batch's codes, formatted one by one."""
    return "".join(f"{traj_id + b},{s + 1},{qs[i] + 1},{ACTIONS[codes[b, s, i]]}\n"
                   for b, s, i in np.ndindex(codes.shape) if codes[b, s, i] >= 0)


def raster(codes, qs, n_sites):
    """The heatmap's (N_t, L, 2) raster of a batch's codes."""
    cells = np.zeros((codes.shape[1], n_sites, 2), dtype=bool)
    mark_changes(cells, codes, qs)
    return cells


def test_emit_csv_single_point(tmp_path):
    path = tmp_path / "density.csv"
    emit_csv(one_point_result([[0.25]]), path)
    lines = path.read_text().splitlines()
    assert lines == ["t,n_1,se_1", "0,0.25,0"]


def test_emit_csv_roundtrip(tmp_path):
    gen = np.random.default_rng(2)
    dens = gen.random((5, 3))
    se = gen.random((5, 3)) * 0.01
    path = tmp_path / "density.csv"
    emit_csv(one_point_result(dens, se), path)
    _, mean, stderr = parse_density_csv(path)
    assert np.max(np.abs(mean - dens)) <= 1e-9
    assert np.max(np.abs(stderr - se)) <= 1e-9


def test_event_action_vocabulary():
    cases = {
        (1, True): "inject",
        (1, False): "null_inject",
        (0, True): "remove",
        (0, False): "null_remove",
    }
    for (target, changed), expected in cases.items():
        assert ACTIONS[2 * target + changed] == expected


def test_emit_events_csv(tmp_path):
    # two trajectories from id 4, three steps, contacts on qubits 1 and 0
    codes = np.full((2, 3, 2), -1, dtype=np.int8)
    codes[0, 2, 0] = 3
    codes[1, 0, 1] = 0
    codes[1, 0, 0] = 2
    path = tmp_path / "events.csv"
    write_events_csv(codes, 4, [1, 0], path)
    assert path.read_text().splitlines() == [
        "traj,step,site,action",
        "4,3,2,inject",
        "5,1,2,null_inject",
        "5,1,1,null_remove",
    ]


def test_emit_events_csv_in_blocks_matches_row_by_row(tmp_path):
    gen = np.random.default_rng(5)
    # about 2.3 * EVENTS_BLOCK events, so several slices, of all four codes
    codes = gen.integers(-1, 4, (40, 100, 3)).astype(np.int8)
    codes[gen.random(codes.shape) < 0.5] = -1
    assert np.count_nonzero(codes >= 0) > 2 * EVENTS_BLOCK
    cases = {
        "blocks": (codes, 990, [7, 0, 7]),
        "empty": (np.full((3, 4, 2), -1, dtype=np.int8), 0, [0, 1]),
        "no-contacts": (np.zeros((3, 4, 0), dtype=np.int8), 0, []),
    }
    for name, (codes, traj_id, qs) in cases.items():
        path = tmp_path / f"{name}.csv"
        write_events_csv(codes, traj_id, qs, path)
        assert path.read_text() == "traj,step,site,action\n" + events_text(codes, traj_id, qs), name


def test_events_block_formats_every_width():
    # fields no batch's codes reach: widths change inside one block
    # (9 -> 10, 99 -> 100, 999 -> 1000) and 10- to 19-digit fields
    m = np.arange(1200, dtype=np.int64)
    codes = (m % 4).astype(np.int8)
    cases = {
        "widths": (m, 1200 - m, m % 12 + 1),
        "large": (10**9 - 600 + m, 2**63 - 1 - m, m % 3 + 1),
    }
    for name, fields in cases.items():
        reference = "".join(f"{traj},{step},{site},{ACTIONS[code]}\n"
                            for traj, step, site, code in zip(*fields, codes.tolist()))
        assert _events_block(fields, codes) == reference, name


def test_emit_events_csv_writes_blocks_in_trajectory_step_and_contact_order(monkeypatch):
    # contact i acts at every step of row b with b + i odd: rows 0 and 2
    # have events only from contact 1, rows 1 and 3 only from contact 0
    codes = np.full((4, 50, 2), -1, dtype=np.int8)
    codes[1::2, :, 0] = 3
    codes[0::2, :, 1] = 0
    want = "".join(f"{7 + b},{s + 1},{(6, 3)[(b + 1) % 2]},{('inject', 'null_remove')[(b + 1) % 2]}\n"
                   for b in range(4) for s in range(50))

    class Writes(list):
        write = list.append

    whole = Writes()
    emit_events_csv(codes, 7, [5, 2], whole)
    assert whole == [want]
    monkeypatch.setattr(output, "EVENTS_BLOCK", 30)
    blocks = Writes()
    emit_events_csv(codes, 7, [5, 2], blocks)
    assert len(blocks) == 7 and all(block.count("\n") <= 30 for block in blocks)
    assert "".join(blocks) == want
    # no contact acted: nothing is written
    nothing = Writes()
    emit_events_csv(np.full((2, 3, 1), -1, dtype=np.int8), 0, [0], nothing)
    assert nothing == []


def test_heatmap_constant_density_is_mid_gray(tmp_path):
    path = tmp_path / "heatmap.svg"
    emit_heatmap(one_point_result(np.full((4, 2), 0.5)), np.zeros((3, 2, 2), dtype=bool), path)
    svg = path.read_text()
    assert svg.count('fill="#808080"') == 8
    assert "<circle" not in svg


def test_heatmap_event_overlay_count(tmp_path):
    # one trajectory, contacts on qubits 0 and 1
    codes = np.full((1, 3, 2), -1, dtype=np.int8)
    codes[0, 0, 0] = 3  # inject
    codes[0, 1, 1] = 1  # remove
    codes[0, 2, 0] = 2  # null action: no marker
    path = tmp_path / "heatmap.svg"
    emit_heatmap(one_point_result(np.zeros((4, 2))), raster(codes, [0, 1], 2), path)
    assert path.read_text().count("<circle") == 2


def test_closed_scenario_writes_files(tmp_path):
    cfg = parse_config(json.dumps(CLOSED_CONFIG))
    assert run_scenario(cfg, tmp_path) == 0
    assert (tmp_path / "density.csv").exists()
    assert (tmp_path / "events.csv").exists()
    assert (tmp_path / "heatmap.svg").exists()
    _, mean, stderr = parse_density_csv(tmp_path / "density.csv")
    assert mean.shape == (5, 3)
    assert np.all(stderr == 0.0)


def test_closed_scenario_outputs_are_byte_stable(tmp_path):
    cfg = parse_config(json.dumps(CLOSED_CONFIG))
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    for name in ("density.csv", "events.csv", "heatmap.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_closed_scenario_runs_one_trajectory_whatever_n_traj_says(tmp_path):
    cfg = parse_config(json.dumps(dict(CLOSED_CONFIG, N_traj=50)))
    assert cfg.run.N_traj == 1
    run_scenario(cfg, tmp_path / "a", workers=2)
    run_scenario(parse_config(json.dumps(dict(CLOSED_CONFIG, N_traj=1))), tmp_path / "b", workers=2)
    for name in ("density.csv", "events.csv", "heatmap.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fig2_preset_front_moves_monotonically(tmp_path):
    cfg = get_preset("fig2")
    run_scenario(cfg, tmp_path)
    _, mean, _ = parse_density_csv(tmp_path / "density.csv")
    argmax = np.argmax(mean, axis=1)
    # ballistic front: the brightest site index is non-decreasing until
    # the boundary reflection turns it around
    turn = int(np.argmax(argmax))
    assert argmax[turn] == mean.shape[1] - 1
    assert np.all(np.diff(argmax[: turn + 1]) >= 0)


@pytest.mark.parametrize("name, symmetric", [("fig2", False), ("fig3a", False),
                                             ("compare-l2", True)])
def test_scenario_step_is_symmetric_in_compare_mode_only(name, symmetric):
    cfg = get_preset(name)
    assert scenario_step(cfg, build_chain_hamiltonian(cfg.chain)).symmetric is symmetric


def test_compare_scenario_small_l2(tmp_path):
    cfg = parse_config(json.dumps(COMPARE_CONFIG))
    code = run_scenario(cfg, tmp_path, workers=1)
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert code == 0 and verdict["pass"] is True
    assert verdict["oracle"] == "continuum"
    assert verdict["max_excess_over_sigma"] <= verdict["abs_budget"]
    assert (tmp_path / "lindblad.csv").exists()


def test_compare_detects_gross_bias(tmp_path):
    # eta near 1 makes the discrete process deviate far beyond the budget
    raw = dict(COMPARE_CONFIG, L=1, gamma_meV=0.0, v_meV=0.0,
               contacts=[{"site": 1, "Gamma_meV": 1.9, "f": 1.0}],
               N_t=20, N_traj=300, init_sites=[])
    cfg = parse_config(json.dumps(raw))
    code = run_scenario(cfg, tmp_path, workers=1)
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert code == 2 and verdict["pass"] is False


def test_compare_oracle_does_not_share_the_step_hopping(tmp_path, monkeypatch):
    # a Jordan-Wigner fault in the form the step runs, here doubled hopping,
    # runs in the trajectories only: the oracle is built from fermion operators
    monkeypatch.setattr(
        "openchain.cli.build_chain_hamiltonian",
        lambda chain: build_chain_hamiltonian(replace(chain, gamma=2 * chain.gamma)),
    )
    cfg = get_preset("compare-l2", n_traj=2000)
    assert run_scenario(cfg, tmp_path, workers=1) == 2


def test_compare_oracle_does_not_share_the_step_diagonal(tmp_path, monkeypatch):
    # a fault in the interaction, here doubled, also runs in the
    # trajectories only.  It shows from L = 3: at L = 2 the pair term sits
    # on the one-state N = 2 sector alone, so no fault of v can show there.
    # A flipped sign of v cannot show at any L (see
    # test_trotter.py::test_negated_interaction_is_the_conjugate_step_in_a_staggered_gauge)
    monkeypatch.setattr(
        "openchain.cli.build_chain_hamiltonian",
        lambda chain: replace(build_chain_hamiltonian(chain), v=2 * chain.v),
    )
    cfg = get_preset("compare-l3", n_traj=2000)
    assert run_scenario(cfg, tmp_path, workers=1) == 2


def test_main_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CLOSED_CONFIG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "density.csv").exists()


def test_main_reports_validation_errors(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(dict(CLOSED_CONFIG, mode="nonsense")))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_main_rejects_unknown_preset(capsys):
    assert main(["preset", "nope", "--out", "unused"]) == 1
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_worker_count_below_one(tmp_path, capsys, workers):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CLOSED_CONFIG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--workers", workers]) == 1
    assert "error: --workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run"],
    ["preset", "fig2", "--workers", "x"],
    ["preset", "fig3a", "--single"],
    ["compare", "--config", "cfg.json"],
], ids=["missing-config", "bad-int", "unknown-flag", "unknown-command"])
def test_main_usage_errors_exit_one(tmp_path, monkeypatch, capsys, argv):
    # exit code 2 is reserved for a compare FAIL
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("raw, files", SCENARIO_FILES.values(), ids=SCENARIO_FILES.keys())
def test_scenario_writes_exact_file_set(tmp_path, raw, files):
    cfg = parse_config(json.dumps(raw))
    run_scenario(cfg, tmp_path, workers=1)
    assert {p.name for p in tmp_path.iterdir()} == files


def assert_same_files_at_1_2_and_8_workers(tmp_path, raw, codes=(0,)):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    for workers in ("1", "2", "8"):
        out = tmp_path / workers
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--workers", workers]) in codes
    for name in SCENARIO_FILES[raw["mode"]][1]:
        serial = (tmp_path / "1" / name).read_bytes()
        assert serial == (tmp_path / "2" / name).read_bytes() == (tmp_path / "8" / name).read_bytes()


def test_outputs_byte_identical_for_any_worker_count(tmp_path):
    # at L = 8 a batch holds at most 128 trajectories: 150 are two batches of 75
    raw = {"mode": "open", "L": 8, "gamma_meV": 3.0, "v_meV": 10.0,
           "contacts": [{"site": s, "Gamma_meV": 0.9, "f": float(s % 2)} for s in (1, 4, 8)],
           "t_final": 4.0, "N_t": 8, "N_traj": 150, "seed": 5, "init_sites": [1, 3]}
    assert_same_files_at_1_2_and_8_workers(tmp_path, raw)


def test_compare_outputs_byte_identical_for_any_worker_count(tmp_path):
    # shaped like the compare-l3 preset, with few trajectories: one batch
    raw = dict(COMPARE_CONFIG, L=3, contacts=[{"site": 1, "Gamma_meV": 0.5, "f": 1.0},
                                              {"site": 3, "Gamma_meV": 0.5, "f": 0.0}], N_traj=60)
    assert_same_files_at_1_2_and_8_workers(tmp_path, raw, codes=(0, 2))


# open, L = 8, with the heatmap on: at most 128 trajectories a batch, so
# 300 are three batches of 100
STREAMED_CONFIG = {"mode": "open", "L": 8, "gamma_meV": 3.0, "v_meV": 10.0,
                   "contacts": [{"site": s, "Gamma_meV": 0.9, "f": float(s % 2)} for s in (1, 4, 8)],
                   "t_final": 4.0, "N_t": 8, "N_traj": 300, "seed": 5, "init_sites": [1, 3],
                   "emit_heatmap": True}


def test_heatmap_markers_survive_the_stream(tmp_path):
    # two contacts on site 4, a source and a drain, and three batches, at
    # eta = 0.02 per contact and step so that each batch's events mark
    # cells the others do not: the markers are the distinct (step, site,
    # action) of the inject and remove rows of the run's own events.csv,
    # whatever the worker count, read without the raster
    raw = dict(STREAMED_CONFIG, t_final=20.0, N_t=40,
               contacts=[{"site": s, "eta": 0.02, "f": f} for s, f in ((1, 1.0), (4, 1.0), (4, 0.0))])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    n_t, span = raw["N_t"], raw["N_t"] * CELL  # T - 1 = N_t raster columns

    def marker(step, site, action):
        return (f"{MARGIN + int(step) / n_t * span + CELL / 2:.1f}",
                f"{MARGIN + (int(site) - 1) * CELL + CELL / 2:.1f}",
                "#000" if action == "inject" else "none")

    svgs = []
    for workers in ("1", "3"):
        out = tmp_path / workers
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--workers", workers]) == 0
        rows = [line.split(",") for line in (out / "events.csv").read_text().splitlines()[1:]]
        changed = [row for row in rows if row[3] in ("inject", "remove")]
        assert {(site, action) for _, _, site, action in changed} >= {("4", "inject"), ("4", "remove")}
        want = {marker(*row[1:]) for row in changed}
        for first in (0, 100, 200):
            batch = {marker(*row[1:]) for row in changed if first <= int(row[0]) < first + 100}
            assert batch and batch != want  # each batch marks some cells, none all
        svgs.append((out / "heatmap.svg").read_text())
        drawn = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="[^"]+" fill="([^"]+)"', svgs[-1])
        assert len(drawn) == len(set(drawn)) and set(drawn) == want, workers
    assert svgs[0] == svgs[1]


def test_heatmap_draws_one_marker_per_distinct_cell(tmp_path):
    # three trajectories inject on site 1 at step 2 and one removes there:
    # one filled marker over one hollow one, then the removal on site 2 at
    # step 3 of two trajectories, beside a null injection
    codes = np.full((5, 3, 2), -1, dtype=np.int8)
    codes[[0, 2, 3], 1, 0] = 3
    codes[1, 1, 0] = 1
    codes[[3, 4], 2, 1] = 1
    codes[2, 2, 1] = 2
    path = tmp_path / "heatmap.svg"
    emit_heatmap(one_point_result(np.zeros((4, 2))), raster(codes, [0, 1], 2), path)
    fills = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="[^"]+" fill="([^"]+)"', path.read_text())
    assert [fill for *_, fill in fills] == ["none", "#000", "none"]
    assert fills[0][:2] == fills[1][:2] != fills[2][:2]


def test_mark_changes_merges_contacts_on_one_site():
    # contacts 0 and 2 both act on qubit 1: each one's injection is kept
    codes = np.full((2, 3, 3), -1, dtype=np.int8)
    codes[0, 0, 0] = 3
    codes[1, 2, 2] = 3
    codes[0, 1, 1] = 1
    codes[1, 1, 2] = 0  # no change: no mark
    cells = raster(codes, [1, 0, 1], 2)
    assert np.argwhere(cells).tolist() == [[0, 1, 1], [1, 0, 0], [2, 1, 1]]


def test_events_list_two_contacts_on_one_site_in_contact_order(tmp_path):
    # two contacts on site 2 (eta 0.4 + 0.5 <= 1), then one on site 1;
    # three trajectories are one batch, and N_t spans three draw chunks
    raw = {"mode": "open", "L": 2, "gamma_meV": 1.0, "v_meV": 10.0,
           "contacts": [{"site": 2, "eta": 0.4, "f": 1.0}, {"site": 2, "eta": 0.5, "f": 0.0},
                        {"site": 1, "eta": 0.5, "f": 1.0}],
           "t_final": 500.0, "N_t": 2000, "N_traj": 3, "seed": 4, "init_sites": [1]}
    cfg = parse_config(json.dumps(raw))
    assert list(trajectory.batches(2, 3)) == [(0, 3)]
    assert cfg.run.N_t > 2 * trajectory.chunk_steps(3, 3)
    assert run_scenario(cfg, tmp_path, workers=1) == 0
    lines = (tmp_path / "events.csv").read_text().splitlines()[1:]
    assert len(lines) > EVENTS_BLOCK
    rows = [(int(traj), int(step), int(site), action)
            for traj, step, site, action in (line.split(",") for line in lines)]
    # the contact of each row: site 2 injects (contact 0) or removes (1)
    contact = [2 if site == 1 else int(action.endswith("remove")) for _, _, site, action in rows]
    keys = [(traj, step, i) for (traj, step, _, _), i in zip(rows, contact)]
    assert keys == sorted(set(keys))
    assert any(a[:2] == b[:2] and (a[2], b[2]) == (0, 1) for a, b in zip(keys, keys[1:]))
    # and the batch's rows are those of each trajectory run on its own
    plan = scenario_step(cfg, build_chain_hamiltonian(cfg.chain))
    qs = [c.q for c in cfg.contacts]
    for b in range(3):
        lone = trajectory.run_trajectory(plan, cfg.contacts, cfg.run, cfg.init_occupations, b)
        want = [(b, s + 1, qs[i] + 1, ACTIONS[lone.events[0, s, i]])
                for s, i in np.argwhere(lone.events[0] >= 0).tolist()]
        assert [r for r in rows if r[0] == b] == want


def test_failed_run_leaves_no_events_csv(tmp_path, monkeypatch, capsys):
    real, calls = trajectory.run_trajectory, []

    def fail_on_the_second_batch(*args):
        calls.append(args[-2:])
        if len(calls) == 2:
            raise ValueError("the second batch failed")
        return real(*args)

    monkeypatch.setattr(trajectory, "run_trajectory", fail_on_the_second_batch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(STREAMED_CONFIG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--workers", "1"]) == 1
    assert "the second batch failed" in capsys.readouterr().err
    assert calls == [(0, 100), (100, 100)]
    assert list(out.iterdir()) == []  # no events.csv, and nothing of it left behind


def test_one_batch_starts_no_pool(tmp_path, monkeypatch):
    def no_fork():
        raise RuntimeError("a worker was forked")

    monkeypatch.setattr(trajectory.os, "fork", no_fork)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(OPEN_CONFIG))  # 20 trajectories of L = 2: one batch
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "one"), "--workers", "2"]) == 0
    # two batches are spread over forked workers
    cfg_path.write_text(json.dumps(dict(OPEN_CONFIG, L=8, N_traj=150)))
    with pytest.raises(RuntimeError, match="forked"):
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "two"), "--workers", "2"])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_batch_in_a_worker_fails_the_run(tmp_path, monkeypatch, capsys):
    real = trajectory.run_trajectory

    def fail_on_the_second_batch(*args):
        if args[-2] == 100:
            raise ValueError("the second batch failed")
        return real(*args)

    monkeypatch.setattr(trajectory, "run_trajectory", fail_on_the_second_batch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(STREAMED_CONFIG))  # three batches, on two workers
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--workers", "2"]) == 1
    assert "error: the second batch failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no events.csv, and nothing of it left behind
    assert_no_child_left()


def test_a_pooled_run_imports_no_multiprocessing(tmp_path):
    # the workers are forked by trajectory itself, and leave by os._exit:
    # text this process wrote to stdout before the run, never flushed, is
    # printed once, by this process, not once more by each worker
    assert trajectory.batch_count(STREAMED_CONFIG["L"], STREAMED_CONFIG["N_traj"]) == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(STREAMED_CONFIG))
    code = (
        "import sys\n"
        "from openchain.cli import main\n"
        "sys.stdout.write('before the run\\n')\n"
        f"code = main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, '--workers', '2'])\n"
        "print(code, 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(openchain.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)  # stdout, a pipe, buffers the text
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["before the run", "0 False False"]
    assert (tmp_path / "out" / "events.csv").read_text().count("traj,step,site,action") == 1


def test_verdict_names_the_cell_of_the_largest_excess():
    class FakeLind:
        densities = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.1], [0.0, 0.2, 0.0]])
        max_trace_drift = max_hermiticity_defect = min_eigenvalue = 0.0

    # the largest deviation, at (site 1, t = 0), lies within 3 stderr
    stderr = np.zeros((3, 3))
    stderr[0, 0] = 0.2
    verdict = compare_verdict(one_point_result(np.zeros((3, 3)), stderr), FakeLind())
    assert verdict["max_abs_deviation"] == 0.5
    assert verdict["max_excess_over_sigma"] == 0.2
    assert (verdict["worst_site"], verdict["worst_t"]) == (2, 2.0)


def test_verdict_skips_the_exact_first_row():
    class FakeLind:
        densities = np.array([[1.0, 0.0], [0.6, 0.3], [0.5, 0.4]])
        max_trace_drift = max_hermiticity_defect = min_eigenvalue = 0.0

    # t = 0 agrees exactly; every later cell lies within 3 stderr, the
    # closest to its bound at (site 2, t = 2): 0.1 - 0.15 = -0.05
    dens = np.array([[1.0, 0.0], [0.55, 0.25], [0.45, 0.3]])
    stderr = np.array([[0.0, 0.0], [0.1, 0.1], [0.1, 0.05]])
    verdict = compare_verdict(one_point_result(dens, stderr), FakeLind())
    assert verdict["max_excess_over_sigma"] == pytest.approx(-0.05)
    assert (verdict["worst_site"], verdict["worst_t"]) == (2, 2.0)
    assert verdict["max_abs_deviation"] == pytest.approx(0.1)
    assert verdict["pass"] is True


def test_compare_names_its_worst_cell(tmp_path, capsys):
    # no hopping: site 1 stays empty in both, while site 2 fills at
    # eta = 0.95 per step against 1 - exp(-0.95 t / dt) in the oracle;
    # the gap, 0.34 after one step, 0.15 after two, peaks at t = dt = 0.5
    raw = dict(COMPARE_CONFIG, gamma_meV=0.0, v_meV=0.0,
               contacts=[{"site": 2, "Gamma_meV": 1.9, "f": 1.0}],
               N_t=20, N_traj=300, init_sites=[])
    code = run_scenario(parse_config(json.dumps(raw)), tmp_path, workers=1)
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert code == 2
    assert (verdict["worst_site"], verdict["worst_t"]) == (2, 0.5)
    assert "at site 2, t = 0.5, FAIL" in capsys.readouterr().out


def test_verdict_includes_oracle_health():
    class FakeLind:
        densities = np.zeros((2, 1))
        max_trace_drift = 1e-12
        max_hermiticity_defect = 0.0
        min_eigenvalue = 0.0

    ens = one_point_result(np.zeros((2, 1)))
    verdict = compare_verdict(ens, FakeLind())
    assert verdict["pass"] is True
    assert verdict["oracle"] == "continuum"
    assert verdict["oracle_max_trace_drift"] == 1e-12


def test_a_run_never_imports_numpy_random(tmp_path):
    # a compare run at one worker runs its batch in this process, the
    # same run_trajectory a pool worker runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(COMPARE_CONFIG, N_traj=20)))
    code = (
        "import sys\n"
        "from openchain.cli import main\n"
        f"main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, '--workers', '1'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(openchain.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert (tmp_path / "out" / "verdict.json").exists()
    assert out.stdout.splitlines()[-1] == "False"


def test_src_does_not_use_numpy_random():
    pattern = re.compile(r"numpy\.random|np\.random|from numpy import .*\brandom\b")
    for path in sorted(Path(openchain.__file__).parent.glob("*.py")):
        assert not pattern.search(path.read_text()), path.name


def test_every_public_name_has_a_caller_in_src():
    # a public top-level name of a module must be used (loaded, imported or
    # read as an attribute) somewhere in src/, not only where it is defined
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(openchain.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}:{d}" for d in defined if not d.startswith("_") and d not in used]
    assert unused == []
