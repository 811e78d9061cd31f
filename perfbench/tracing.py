"""Spans and counters around calls into openchain's modules.

Hooks replace the module attribute that the caller looks up (for
example `openchain.trajectory.apply_step`, which `run_trajectory`
calls), so no file of the program changes.  A hooked name that no
longer exists is recorded as missing, and every metric that needs it is
left out of the result rather than reported as 0.

Spans are kept in memory as (name, start, end, parent index) and turned
into per-layer metrics once the run ends.  Work the tracer does for
itself (pickling records to size them) runs inside `bench.measure`
spans, which are subtracted from self times and from the traced run
time.
"""

from __future__ import annotations

import functools
import pickle
import resource
from collections import Counter, defaultdict
from time import perf_counter

MIB = 1 << 20
MEASURE = "bench.measure"


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []  # span names whose hooked attribute is gone
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(("", 0.0, 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        self.spans[idx] = (name, start, perf_counter(), parent)
        self._stack.pop()

    def measure(self, fn, *args):
        """Run tracer-side work `fn(*args)` inside a `bench.measure` span."""
        idx, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, parent, MEASURE, start)

    def hook(self, owner, attr: str, name: str, after=None, faults: bool = False) -> None:
        """Wrap `owner.attr` in a span called `name`.

        `after(result)` runs once the span has closed; `faults` adds the
        call's minor page faults to the counter `<name>.minflt`.
        """
        target = getattr(owner, attr, None)
        if target is None:
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(target)
        def spanned(*args, **kwargs):
            idx, parent = tracer._open()
            flt = _minflt() if faults else 0
            start = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start)
                if faults:
                    tracer.counts[name + ".minflt"] += _minflt() - flt
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, spanned)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` without a span (for hot methods)."""
        target = getattr(owner, attr, None)
        if target is None:
            self.missing.append(name)
            return
        counts = self.counts

        @functools.wraps(target)
        def counted(*args, **kwargs):
            counts[name] += 1
            return target(*args, **kwargs)

        setattr(owner, attr, counted)

    # -- reductions -----------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


def install(tracer: Tracer) -> None:
    """Hook every layer boundary the benchmark reports on."""
    from openchain import cli, lindblad, state, trajectory

    def pickled_size(obj) -> int:
        return len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))

    def plan_size(plan) -> None:
        tracer.counts["trotter.plan_pickle_bytes"] += tracer.measure(pickled_size, plan)

    def record_size(rec) -> None:
        tracer.counts["trajectory.result_pickle_bytes"] += tracer.measure(pickled_size, rec)

    def reset_outcome(ev) -> None:
        changed = getattr(ev, "changed", None)
        if changed is None:
            if "state.reset_changed" not in tracer.missing:
                tracer.missing.append("state.reset_changed")
        else:
            tracer.counts["state.reset_changed"] += bool(changed)

    tracer.hook(cli, "run_scenario", "cli.run_scenario")
    tracer.hook(cli, "parse_config", "config.parse_config")
    tracer.hook(cli, "build_chain_hamiltonian", "model.build_chain_hamiltonian")
    tracer.hook(cli, "build_step", "trotter.build_step", after=plan_size)
    tracer.hook(cli, "run_ensemble", "trajectory.run_ensemble")
    tracer.hook(cli, "build_jump_operators", "lindblad.build_jump_operators")
    tracer.hook(cli, "integrate", "lindblad.integrate")
    tracer.hook(lindblad, "lindblad_rhs", "lindblad.lindblad_rhs")
    for emitter in ("emit_csv", "emit_events_csv", "emit_heatmap"):
        tracer.hook(cli, emitter, "output." + emitter)
    tracer.hook(trajectory, "run_trajectory", "trajectory.run_trajectory", after=record_size)
    tracer.hook(trajectory, "apply_step", "trotter.apply_step", faults=True)
    tracer.hook(trajectory, "all_densities", "state.all_densities")
    tracer.hook(trajectory, "reset_to", "state.reset_to", after=reset_outcome)
    tracer.count_calls(state.RngStream, "uniform", "state.rng_uniform")


def _pct(xs: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0 without samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, L: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A metric is left out when a hook it needs is missing.  A layer that
    is hooked but did no work in this run (the Lindblad oracle on an
    open scenario) reports 0 for its times, counts and percentiles.
    """
    d, own, c = tracer.durations(), tracer.self_times(), tracer.counts
    step, dens, reset = "trotter.apply_step", "state.all_densities", "state.reset_to"
    traj, ens, rhs = "trajectory.run_trajectory", "trajectory.run_ensemble", "lindblad.lindblad_rhs"
    emitters = ("output.emit_csv", "output.emit_events_csv", "output.emit_heatmap")
    scenario_children = (
        "config.parse_config", "model.build_chain_hamiltonian", "trotter.build_step",
        ens, "lindblad.build_jump_operators", "lindblad.integrate", *emitters,
    )

    def total(name: str) -> float:
        return sum(d.get(name, ()))

    table = [
        ("config.parse_ms", ("config.parse_config",), lambda: 1e3 * total("config.parse_config")),
        ("model.hamiltonian_ms", ("model.build_chain_hamiltonian",),
         lambda: 1e3 * total("model.build_chain_hamiltonian")),
        ("trotter.build_step_ms", ("trotter.build_step",), lambda: 1e3 * total("trotter.build_step")),
        ("trotter.plan_pickle_mb", ("trotter.build_step",),
         lambda: _ratio(c["trotter.plan_pickle_bytes"], MIB * len(d["trotter.build_step"]))),
        ("trotter.apply_step_us.p50", (step,), lambda: 1e6 * _pct(d[step], 50)),
        ("trotter.apply_step_us.p999", (step,), lambda: 1e6 * _pct(d[step], 99.9)),
        ("trotter.minflt_per_step", (step,), lambda: _ratio(c[step + ".minflt"], len(d[step]))),
        ("trotter.state_mb", (), lambda: (1 << L) * 16 / MIB),
        ("state.all_densities_us.p50", (dens,), lambda: 1e6 * _pct(d[dens], 50)),
        ("state.all_densities_us.p99", (dens,), lambda: 1e6 * _pct(d[dens], 99)),
        ("state.reset_us.p50", (reset,), lambda: 1e6 * _pct(d[reset], 50)),
        ("state.reset_us.p99", (reset,), lambda: 1e6 * _pct(d[reset], 99)),
        ("state.resets_per_step", (reset, step), lambda: _ratio(len(d[reset]), len(d[step]))),
        ("state.rng_draws_per_traj", ("state.rng_uniform", traj),
         lambda: _ratio(c["state.rng_uniform"], len(d[traj]))),
        ("trajectory.traj_ms.p50", (traj,), lambda: 1e3 * _pct(d[traj], 50)),
        ("trajectory.traj_ms.p99", (traj,), lambda: 1e3 * _pct(d[traj], 99)),
        ("trajectory.loop_self_ms", (traj, step, dens, reset), lambda: 1e3 * own[traj]),
        ("trajectory.useful_ratio", (reset, "state.reset_changed"),
         lambda: _ratio(c["state.reset_changed"], len(d[reset]))),
        ("trajectory.result_pickle_mb", (traj,), lambda: c["trajectory.result_pickle_bytes"] / MIB),
        ("trajectory.reduce_ms", (ens, traj), lambda: 1e3 * own[ens]),
        ("lindblad.integrate_s", ("lindblad.integrate",), lambda: total("lindblad.integrate")),
        ("lindblad.rk4_steps", (rhs,), lambda: len(d[rhs]) / 4),
        ("lindblad.rhs_us.p50", (rhs,), lambda: 1e6 * _pct(d[rhs], 50)),
        ("output.emit_ms", emitters, lambda: 1e3 * sum(total(e) for e in emitters)),
        ("cli.run_scenario_self_ms", ("cli.run_scenario", *scenario_children),
         lambda: 1e3 * own["cli.run_scenario"]),
    ]
    return {
        metric: float(value())
        for metric, needs, value in table
        if not any(n in tracer.missing for n in needs)
    }
