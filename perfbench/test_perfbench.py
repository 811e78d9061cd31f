"""Self-tests of the benchmark: workload generation, output checks,
tracing names and the refusal to run without sources.

    python3 -m pytest perfbench -p no:cacheprovider
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL_OPEN = {
    "mode": "open", "L": 4, "gamma_meV": 3.0, "v_meV": 10.0,
    "contacts": [
        {"site": 1, "Gamma_meV": 0.5, "f": 1.0, "label": "S"},
        {"site": 4, "Gamma_meV": 0.5, "f": 0.0, "label": "D"},
    ],
    "t_final": 10.0, "N_t": 20, "N_traj": 60, "seed": 5, "init_sites": [1, 3],
}
SMALL_COMPARE = {
    "mode": "compare", "L": 2, "gamma_meV": 3.0, "v_meV": 10.0,
    "contacts": [
        {"site": 1, "Gamma_meV": 0.5, "f": 1.0, "label": "S"},
        {"site": 2, "Gamma_meV": 0.5, "f": 0.0, "label": "D"},
    ],
    "t_final": 4.0, "N_t": 8, "N_traj": 20, "seed": 2, "init_sites": [1],
}


def run_program(cfg: dict, tmp_path: Path) -> Path:
    from openchain import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config), "--out", str(out), "--workers", "1"])
    assert code in (0, 2)
    return out


@pytest.fixture(scope="module")
def good_output(tmp_path_factory) -> Path:
    return run_program(SMALL_OPEN, tmp_path_factory.mktemp("good"))


@pytest.fixture
def output(good_output, tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(good_output, out)
    return out


def rewrite_rows(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# -- workload generator ------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reproducible_per_seed(name):
    assert make_config(name, 11) == make_config(name, 11)
    a, b = make_config(name, 11), make_config(name, 12)
    assert a["seed"] == 11 and b["seed"] == 12
    assert {k: v for k, v in a.items() if k != "seed"} == {k: v for k, v in b.items() if k != "seed"}
    a["contacts"][0]["f"] = 0.25
    assert make_config(name, 11)["contacts"][0]["f"] != 0.25


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_is_valid_and_passes_contact_limits(name):
    from openchain.config import parse_config

    cfg = parse_config(json.dumps(make_config(name, 1)))
    assert cfg.run.seed == 1


@pytest.mark.parametrize("name, preset", [("compare-l3", "compare-l3")])
def test_workload_follows_its_preset(name, preset):
    from openchain.config import get_preset, parse_config

    cfg = parse_config(json.dumps(make_config(name, 3)))
    want = get_preset(preset, seed=3, n_traj=cfg.run.N_traj)
    assert cfg == want


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# -- output checks -----------------------------------------------------


def test_good_output_passes(output):
    assert checks.check_run(SMALL_OPEN, output, 0) == []


def test_bad_exit_code_fails(output):
    assert checks.check_run(SMALL_OPEN, output, 1)


def test_density_out_of_range_fails(output):
    def edit(rows):
        rows[3][2] = "1.5"
        return rows

    rewrite_rows(output / "density.csv", edit)
    assert any("outside [0, 1]" in p for p in checks.check_run(SMALL_OPEN, output, 0))


def test_negative_stderr_fails(output):
    def edit(rows):
        rows[3][-1] = "-0.1"
        return rows

    rewrite_rows(output / "density.csv", edit)
    assert any("stderr" in p for p in checks.check_run(SMALL_OPEN, output, 0))


def test_missing_row_fails(output):
    rewrite_rows(output / "density.csv", lambda rows: rows[:-1])
    assert any("rows, expected" in p for p in checks.check_run(SMALL_OPEN, output, 0))


def test_wrong_initial_row_fails(output):
    def edit(rows):
        rows[1][1] = "0"
        return rows

    rewrite_rows(output / "density.csv", edit)
    assert any("t=0" in p for p in checks.check_run(SMALL_OPEN, output, 0))


def test_event_on_site_without_contact_fails(output):
    def edit(rows):
        rows[1][2] = "2"
        return rows

    rewrite_rows(output / "events.csv", edit)
    assert any("has no contact" in p for p in checks.check_run(SMALL_OPEN, output, 0))


def test_unknown_action_fails(output):
    def edit(rows):
        rows[1][3] = "teleport"
        return rows

    rewrite_rows(output / "events.csv", edit)
    assert any("unknown action" in p for p in checks.check_run(SMALL_OPEN, output, 0))


def test_attempt_count_ten_sigma_off_fails(output):
    trials = SMALL_OPEN["N_traj"] * SMALL_OPEN["N_t"]
    eta = checks.contact_etas(SMALL_OPEN)[1][0]
    extra = math.ceil(10 * math.sqrt(trials * eta * (1 - eta)))

    def edit(rows):
        first = next(r for r in rows[1:] if r[2] == "1")
        return rows + [first] * extra

    rewrite_rows(output / "events.csv", edit)
    assert any("attempts on site 1" in p for p in checks.check_run(SMALL_OPEN, output, 0))


def test_unhealthy_oracle_fails(tmp_path):
    out = run_program(SMALL_COMPARE, tmp_path)
    assert checks.check_run(SMALL_COMPARE, out, 2) == []
    verdict = json.loads((out / "verdict.json").read_text())
    verdict["oracle_min_eigenvalue"] = -1e-6
    (out / "verdict.json").write_text(json.dumps(verdict))
    assert any("min eigenvalue" in p for p in checks.check_run(SMALL_COMPARE, out, 2))


# -- tracing and the runner --------------------------------------------


def test_traced_run_reports_the_listed_layers(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_COMPARE))
    result = tmp_path / "result.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "trace", str(config), str(tmp_path / "out"), str(result)],
        check=True, env=env, timeout=120,
    )
    res = json.loads(result.read_text())
    added_by_runner = {
        "trajectory.parallel_efficiency", "trace.overhead_frac", "run.minflt",
        "output.bytes_written", "lindblad.oracle_gap",
    }
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert res["missing_hooks"] == []
    assert set(res["layers"]) | added_by_runner == listed
    assert res["layers"]["lindblad.rk4_steps"] > 0
    assert 0 < res["layers"]["trajectory.useful_ratio"] <= 1


def test_trimmed_mean_drops_a_stalled_sample():
    from run import trimmed_mean

    assert trimmed_mean([1.0] * 8 + [15.0]) == 1.0
    assert trimmed_mean([1.0, 2.0, 6.0]) == 3.0  # too few to trim


def test_vanished_hook_is_missing_not_zero():
    import types

    import tracing

    tracer = tracing.Tracer()
    owner = types.SimpleNamespace(all_densities=lambda: None, integrate=lambda: None)
    tracer.hook(owner, "apply_step", "trotter.apply_step")
    tracer.hook(owner, "all_densities", "state.all_densities")
    tracer.hook(owner, "integrate", "lindblad.integrate")
    owner.all_densities()
    metrics = tracing.layer_metrics(tracer, L=3)
    assert tracer.missing == ["trotter.apply_step"]
    assert not any(m.startswith("trotter.apply_step") for m in metrics)
    assert "trotter.minflt_per_step" not in metrics
    assert metrics["state.all_densities_us.p50"] > 0
    assert metrics["lindblad.integrate_s"] == 0.0  # hooked, never called
    assert metrics["lindblad.rhs_us.p50"] == 0.0  # hooked, no samples


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
