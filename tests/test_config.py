"""Config parsing, validation error collection, and presets."""

import json
import re
import tracemalloc

import pytest

from openchain import config, state
from openchain.cli import main, run_scenario
from openchain.config import (
    ConfigError,
    PRESETS,
    get_preset,
    parse_config,
)
from openchain.model import ChainSpec, build_chain_hamiltonian
from openchain.trajectory import ContactSpec, RunConfig, run_trajectory
from openchain.trotter import build_step

MINIMAL_CLOSED = {
    "mode": "closed",
    "L": 2,
    "gamma_meV": 1,
    "v_meV": 0,
    "t_final": 1,
    "N_t": 2,
    "seed": 7,
    "init_sites": [1],
}

MINIMAL_OPEN = dict(MINIMAL_CLOSED, mode="open",
                    contacts=[{"site": 1, "Gamma_meV": 0.5, "f": 1.0}])

# (key path in the error, override of MINIMAL_OPEN)
MALFORMED = {
    "eta-string": ("contacts[0].eta", {"contacts": [{"site": 1, "eta": "x", "f": 1.0}]}),
    "L-bool": ("L", {"L": True}),
    "L-too-large": ("L", {"L": 40}),
    "Gamma-nan": ("contacts[0].Gamma_meV",
                  {"contacts": [{"site": 1, "Gamma_meV": float("nan"), "f": 1.0}]}),
    "N_t-fraction": ("N_t", {"N_t": 4.7}),
    "N_traj-fraction": ("N_traj", {"N_traj": 2.9}),
    "seed-fraction": ("seed", {"seed": 1.5}),
    "seed-negative": ("seed", {"seed": -1}),
    "record_every-fraction": ("record_every", {"record_every": 1.5}),
    "N_t-zero": ("N_t", {"N_t": 0}),
    "N_traj-zero": ("N_traj", {"N_traj": 0}),
    "t_final-zero": ("t_final", {"t_final": 0}),
    # t_final / N_t underflows to a step of 0.0
    "dt-underflow": ("t_final", {"t_final": 5e-324, "contacts": [{"site": 1, "eta": 0.5, "f": 1.0}]}),
    "dt-underflow-closed": ("t_final", {"mode": "closed", "t_final": 5e-324, "contacts": []}),
    "record_every-zero": ("record_every", {"record_every": 0}),
    "f-bool": ("contacts[0].f", {"contacts": [{"site": 1, "Gamma_meV": 0.5, "f": True}]}),
    "site-bool": ("contacts[0].site", {"contacts": [{"site": True, "Gamma_meV": 0.5, "f": 1.0}]}),
    "init_sites-bool": ("init_sites", {"init_sites": [True]}),
    "t_final-string": ("t_final", {"t_final": "10"}),
    "gamma-overflow": ("gamma_meV", {"gamma_meV": 10**400}),
    "kT-nan": ("contacts[0].kT_meV", {"contacts": [
        {"site": 1, "Gamma_meV": 0.5, "eps_meV": 0, "mu_meV": 0, "kT_meV": float("nan")}]}),
    # the output directory is named by --out only
    "output-number": ("output", {"output": 5}),
    "emit_heatmap-string": ("emit_heatmap", {"emit_heatmap": "false"}),
    "include_depolarizing-number": ("include_depolarizing", {"include_depolarizing": 0}),
    "compare-off-grid": ("record_every", {"mode": "compare", "N_t": 40, "record_every": 3}),
    # nothing would be recorded after t = 0
    "record_every-beyond-N_t": ("record_every", {"L": 3, "N_t": 2, "record_every": 5}),
    "record_every-beyond-N_t-closed": ("record_every", {"mode": "closed", "contacts": [],
                                                       "N_t": 2, "record_every": 5}),
    "N_t-beyond-memory": ("N_t", {"N_t": 10**12}),
    "N_traj-beyond-memory": ("N_traj", {"N_traj": 10**12}),
    # two contacts: one event code per step and contact, 2 * 10**11 bytes
    # for the batch of 100 trajectories, while the records are two rows each
    "events-beyond-memory": ("N_t", {
        "t_final": 10**9, "N_t": 10**9, "record_every": 10**9, "N_traj": 100,
        "contacts": [{"site": 1, "eta": 0.5, "f": 1.0}, {"site": 2, "eta": 0.5, "f": 0.0}]}),
    "mode-lindblad-check": ("mode", {"mode": "lindblad-check"}),
    "unknown-N_trajs": ("N_trajs", {"N_trajs": 500}),
    "unknown-record_evry": ("record_evry", {"record_evry": 10}),
    "unknown-include_depolarising": ("include_depolarising", {"include_depolarising": False}),
    "unknown-contact-key": ("contacts[0].Gamma", {"contacts": [
        {"site": 1, "Gamma_meV": 0.5, "f": 1.0, "Gamma": 0.1}]}),
    "contact-f-and-fermi-dirac": ("contacts[0].f", {"contacts": [
        {"site": 1, "Gamma_meV": 0.5, "f": 1.0, "eps_meV": 0, "mu_meV": 0, "kT_meV": 1}]}),
    "contact-Gamma-and-eta": ("contacts[0].eta", {"contacts": [
        {"site": 1, "Gamma_meV": 0.5, "eta": 0.1, "f": 1.0}]}),
}


def test_minimal_closed_config_parses():
    cfg = parse_config(json.dumps(MINIMAL_CLOSED))
    assert cfg.mode == "closed"
    assert cfg.chain.L == 2 and cfg.chain.gamma == 1.0
    assert cfg.run.seed == 7
    assert cfg.init_occupations == (0,)


def test_eta_above_one_rejected():
    raw = dict(MINIMAL_CLOSED, mode="open",
               contacts=[{"site": 1, "Gamma_meV": 3.0, "f": 1.0}])
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    assert any("eta" in e and "exceeds 1" in e for e in exc.value.errors)


def test_fig3a_preset_expansion():
    cfg = get_preset("fig3a")
    assert cfg.chain.L == 7 and cfg.chain.gamma == 3.0 and cfg.chain.v == 10.0
    assert cfg.run.dt == 0.5
    source, drain = cfg.contacts
    assert (source.q, source.Gamma, source.f) == (0, 0.5, 1.0)
    assert (drain.q, drain.Gamma, drain.f) == (6, 0.5, 0.0)


def test_malformed_json_rejected():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_errors_are_collected_with_key_paths():
    raw = {
        "mode": "open",
        "L": 3,
        "gamma_meV": 1,
        "t_final": 10,
        "N_t": 20,
        "contacts": [
            {"site": 9, "Gamma_meV": 0.5, "f": 1.0},
            {"site": 1, "f": 0.5},
            {"site": 2, "Gamma_meV": 0.5, "f": 2.0},
        ],
        "init_sites": [1, 1],
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    errors = "\n".join(exc.value.errors)
    assert "contacts[0].site" in errors
    assert "contacts[1]" in errors
    assert "contacts[2].f" in errors
    assert "listed twice" in errors


def test_mode_constraints():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(dict(
            MINIMAL_CLOSED, contacts=[{"site": 1, "Gamma_meV": 0.5, "f": 1.0}])))
    assert any("mode=closed" in e for e in exc.value.errors)

    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(dict(MINIMAL_CLOSED, mode="open")))
    assert any("mode=open" in e for e in exc.value.errors)

    big = dict(MINIMAL_CLOSED, mode="compare", L=9,
               contacts=[{"site": 1, "Gamma_meV": 0.5, "f": 1.0}])
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(big))
    assert any("L <= 8" in e for e in exc.value.errors)


def test_eta_key_alternative():
    raw = dict(MINIMAL_CLOSED, mode="open", t_final=10, N_t=20,
               contacts=[{"site": 1, "eta": 0.5, "f": 1.0}])
    cfg = parse_config(json.dumps(raw))
    assert cfg.contacts[0].Gamma == pytest.approx(1.0)  # eta / dt with dt=0.5


def test_fermi_dirac_contact_entry():
    raw = dict(MINIMAL_CLOSED, mode="open", t_final=10, N_t=20,
               contacts=[{"site": 1, "Gamma_meV": 0.5,
                          "eps_meV": 1.0, "mu_meV": 1.0, "kT_meV": 0.3}])
    cfg = parse_config(json.dumps(raw))
    assert cfg.contacts[0].f == 0.5


def test_unknown_and_unsupported_presets():
    with pytest.raises(ConfigError):
        get_preset("nope")
    with pytest.raises(ConfigError):
        get_preset("fig2-l30")


def test_preset_overrides():
    cfg = get_preset("fig3a", seed=99, n_traj=10)
    assert cfg.run.seed == 99 and cfg.run.N_traj == 10
    # the overrides apply to a copy of the preset's dict
    assert get_preset("fig3a").run.N_traj == 2000


def source_drain(L):
    return (0, 0.5, 1.0), (L - 1, 0.5, 0.0)


# name: (mode, L, gamma, v, (q, Gamma, f) per contact, t_final, N_t,
#        N_traj, seed, record_every, initial qubits, emit_heatmap)
PRESET_VALUES = {
    "fig2": ("closed", 12, 1.0, 0.0, (), 15.0, 3000, 1, 1, 100, (0,), True),
    "fig3a": ("open", 7, 3.0, 10.0, source_drain(7), 10.0, 20, 2000, 1, 1, (0,), False),
    "fig3b": ("open", 7, 5.0, 10.0, source_drain(7), 10.0, 20, 2000, 1, 1, (0,), False),
    "fig4-l12": ("open", 12, 5.0, 10.0, source_drain(12), 15.0, 30, 500, 1, 1, (0,), False),
    "compare-l2": ("compare", 2, 3.0, 10.0, source_drain(2), 10.0, 40, 8000, 1, 1, (0,), False),
    "compare-l3": ("compare", 3, 3.0, 10.0, source_drain(3), 10.0, 40, 8000, 1, 1, (0,), False),
}


@pytest.mark.parametrize("name", PRESETS)
def test_preset_parses_to_pinned_values(name):
    cfg = get_preset(name)
    assert (
        cfg.mode, cfg.chain.L, cfg.chain.gamma, cfg.chain.v,
        tuple((c.q, c.Gamma, c.f) for c in cfg.contacts),
        cfg.run.t_final, cfg.run.N_t, cfg.run.N_traj, cfg.run.seed, cfg.run.record_every,
        cfg.init_occupations, cfg.emit_heatmap,
    ) == PRESET_VALUES[name]
    assert cfg.include_depolarizing is True


@pytest.mark.parametrize("args, keys, memory", [
    (["--traj", "0"], ("N_traj",), None),
    (["--seed", "-1", "--traj", "10"], ("seed",), None),
    # a batch of 256 fig3a trajectories in each of two processes exceeds 1 MiB
    (["--traj", "500"], ("N_traj", "L"), 2**20),
], ids=["traj-zero", "seed-negative", "memory"])
def test_main_rejects_malformed_preset_override(tmp_path, capsys, monkeypatch, args, keys, memory):
    if memory is not None:
        monkeypatch.setattr(config, "_physical_memory", lambda: memory)
    out = tmp_path / "out"
    assert main(["preset", "fig3a", "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert any(f"config error: {key}: " in err for key in keys), err
    assert not out.exists()  # rejected before anything ran


@pytest.mark.parametrize("key, override", MALFORMED.values(), ids=MALFORMED.keys())
def test_main_rejects_malformed_value(tmp_path, capsys, key, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL_OPEN, **override)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()  # rejected before anything ran


def test_every_bad_run_field_is_reported_under_its_key():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(dict(MINIMAL_OPEN, N_t=0, record_every=-2)))
    assert exc.value.errors == ["N_t: must be >= 1, got 0", "record_every: must be >= 1, got -2"]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(dict(MINIMAL_OPEN, t_final=0, record_every=5)))
    assert exc.value.errors == ["t_final: must be positive, got 0.0",
                                "record_every: must not exceed N_t, got record_every=5, N_t=2"]


def test_main_rejects_state_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "_physical_memory", lambda: 2**20)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL_OPEN, L=16)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # state, the step's scratch buffer and phase vector, 56 B * 2^16,
    # and a batch's fixed 256 KiB: 0.00366 GiB
    assert "config error: L: " in err and "needs ~0.00366 GiB" in err
    assert not out.exists()


def test_main_checks_memory_for_the_workers_it_starts(tmp_path, capsys, monkeypatch):
    # at L = 16 a batch is one trajectory, and each process holds
    # 56 B * 2^16 = 3.5 MiB of state and step temporaries
    monkeypatch.setattr(config, "_physical_memory", lambda: 10 * 2**20)
    raw = dict(MINIMAL_OPEN, L=16, N_traj=8)
    cfg = parse_config(json.dumps(raw))
    config.check_memory(cfg, 2)
    with pytest.raises(ConfigError, match="L: "):
        config.check_memory(cfg, 8)
    # no more processes than batches: two trajectories start two
    config.check_memory(parse_config(json.dumps(dict(raw, N_traj=2))), 8)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--workers", "8"]) == 1
    assert "config error: L: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("symmetric", [False, True])
def test_state_bytes_cover_the_measured_peak_of_a_batch(symmetric):
    # one trajectory at L = 18, its plan included: the state, the phase
    # vector and the scratch buffer the blocks write into come to
    # 3.0 * 16 B per amplitude
    L = 18
    h = build_chain_hamiltonian(ChainSpec(L=L, gamma=5.0, v=10.0))
    contacts = [ContactSpec(0, 0.5, 1.0), ContactSpec(L - 1, 0.5, 0.0)]
    cfg = RunConfig(t_final=2.0, N_t=4, seed=3)
    tracemalloc.start()
    try:
        run_trajectory(build_step(h, cfg.dt, symmetric=symmetric), contacts, cfg, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (config.STATE_BYTES - 16) << L < peak <= config.STATE_BYTES << L


@pytest.mark.parametrize("L, rows, n_contacts, N_t", [
    (14, 1, 2, 4), (14, 1, 2, 1024), (8, 64, 8, 40), (2, 1, 2, 4096),
    (4, 1024, 4, 100), (2, 4096, 2, 200), (8, 128, 8, 40), (14, 2, 2, 40),
], ids=["L14-short", "L14-full-chunk", "L8-every-site", "L2-full-table",
        "L4-merged-events", "L2-merged-events", "L8-every-site-128-rows", "L14-two-rows"])
def test_check_memory_covers_the_measured_peak_of_a_process(L, rows, n_contacts, N_t, monkeypatch):
    # what one process running one batch holds at its peak, its plan
    # included, from a fresh process's state: no jump table beyond its
    # first entry and no cached index tables
    monkeypatch.setattr(state, "_JUMPS", state._JUMPS[:, :1].copy())
    for cached in (state._bits, state._outcomes, state._jw_signs):
        cached.cache_clear()
    h = build_chain_hamiltonian(ChainSpec(L=L, gamma=3.0, v=10.0))
    contacts = [ContactSpec(q, 0.9, float(q % 2)) for q in ((0, L - 1) if n_contacts == 2 else range(L))]
    cfg = RunConfig(t_final=0.5 * N_t, N_t=N_t, seed=5)
    tracemalloc.start()
    try:
        run_trajectory(build_step(h, cfg.dt), contacts, cfg, [0], 0, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = (config._engine_bytes(L, rows, len(contacts), N_t)
                + config._running_bytes(L, rows, contacts, cfg))
    assert estimate / 2 < peak <= estimate


@pytest.mark.parametrize("L", [3, 6])
def test_check_memory_covers_a_one_batch_compare_run_in_the_calling_process(L, tmp_path, monkeypatch):
    # 400 trajectories are one batch at L <= 6, so at two workers the
    # calling process holds that batch and, after it, the oracle
    monkeypatch.setattr(state, "_JUMPS", state._JUMPS[:, :1].copy())
    for cached in (state._bits, state._outcomes, state._jw_signs):
        cached.cache_clear()
    cfg = parse_config(json.dumps(dict(PRESETS["compare-l3"], L=L, N_traj=400,
                                       contacts=config._source_drain(L))))
    assert config.batch_count(L, cfg.run.N_traj) == 1
    tracemalloc.start()
    try:
        run_scenario(cfg, tmp_path, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(config, "_physical_memory", lambda: peak - 1)
    with pytest.raises(ConfigError):
        config.check_memory(cfg, 2)


def memory_estimate(cfg, workers, monkeypatch) -> str:
    """check_memory's estimate of `cfg`, as its error reports it."""
    monkeypatch.setattr(config, "_physical_memory", lambda: 0)
    with pytest.raises(ConfigError) as exc:
        config.check_memory(cfg, workers)
    return re.search(r"needs ~(\S+) GiB", exc.value.errors[0]).group(1)


def test_check_memory_does_not_grow_with_n_traj(monkeypatch):
    # the ensemble folds each batch as it arrives, so the calling process
    # holds a window of batches whatever N_traj is
    estimates = {n: memory_estimate(get_preset("compare-l3", n_traj=n), 2, monkeypatch)
                 for n in (10**4, 10**7)}
    assert estimates[10**4] == estimates[10**7]
    # 3 * 10^6 trajectories fit on a host of 7.8 GiB
    monkeypatch.setattr(config, "_physical_memory", lambda: 8019 * 2**20)
    config.check_memory(get_preset("compare-l3", n_traj=3 * 10**6), 2)
    # the heatmap keeps one marker per distinct (step, site, action): that
    # part does not grow with N_traj either
    raw = dict(PRESETS["compare-l3"], emit_heatmap=True)
    small, large = (memory_estimate(parse_config(json.dumps(dict(raw, N_traj=n))), 2, monkeypatch)
                    for n in (10**4, 10**7))
    assert large == small


def test_check_memory_names_n_t_when_records_and_codes_dominate(monkeypatch):
    # L = 2 at N_t = 2 * 10^8: a batch's records and event codes exceed the
    # host at 10^5 trajectories as at 4 * 10^9; N_traj past one batch
    # changes nothing, and only N_t can make the run fit
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 2**30)
    raw = dict(MINIMAL_OPEN, N_t=2 * 10**8)
    for n_traj in (4 * 10**9, 10**5):
        with pytest.raises(ConfigError, match="^N_t: "):
            config.check_memory(parse_config(json.dumps(dict(raw, N_traj=n_traj))), 2)


def test_n_traj_stops_at_the_stream_ids():
    # trajectory k draws from random stream k, and stream ids stop at 2^32
    assert parse_config(json.dumps(dict(MINIMAL_OPEN, N_traj=1 << 32))).run.N_traj == 1 << 32
    with pytest.raises(ConfigError, match=r"N_traj: must be <= 2\^32"):
        parse_config(json.dumps(dict(MINIMAL_OPEN, N_traj=(1 << 32) + 1)))


def test_check_memory_counts_the_oracle_propagator(monkeypatch):
    # the compare oracle holds about four C(2L, L)-square complex matrices:
    # 0.70 GiB at L = 7, 9.9 GiB at L = 8
    monkeypatch.setattr(config, "_physical_memory", lambda: 2 * 2**30)
    raw = dict(MINIMAL_OPEN, mode="compare", N_traj=4)
    config.check_memory(parse_config(json.dumps(dict(raw, L=7))), 2)
    with pytest.raises(ConfigError, match="L: L=8, .* needs ~9.89 GiB"):
        config.check_memory(parse_config(json.dumps(dict(raw, L=8))), 1)
