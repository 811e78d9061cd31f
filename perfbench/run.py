"""openchain benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; openchain is imported from its `src`.

--trace 0 measures the end-to-end metrics.  Until S seconds have
passed, it times set-up in a fresh process and then runs the scenario
through `openchain run ... --workers 2` in another, again and again;
it checks every run's output and reports trimmed means of the times.

--trace 1 measures the per-layer metrics.  It repeats rounds of an
untraced serial run, a traced serial run (spans around calls into each
module, see tracing.py) and an untraced run at 2 workers until S seconds
have passed, and reports medians over the rounds.  The untraced runs
give the tracing overhead and the parallel efficiency.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it carries what
was measured along the way: samples, faults, fingerprints, the machine.
Everything a run writes stays under `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKERS = 2  # the pool size of every timed parallel run (nproc = 2)
SETUP_PROCS = 9  # fewest fresh processes timing set-up
MIN_RUNS = 3  # fewest timed runs, however short --seconds is
CHILD_TIMEOUT_S = 30.0
BUDGET_S = 120.0  # stop starting runs after this, to exit well within 180 s


def child_env() -> dict:
    """The pinned environment every measured process gets."""
    env = dict(os.environ)
    env.pop("OPENCHAIN_THREADS", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        # numpy links a threaded OpenBLAS; more threads than the 2 cores
        # the pool already uses would only contend.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def machine() -> dict:
    """What the numbers were measured on."""
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


class Runner:
    """Starts fresh child processes in the work directory and reaps them."""

    def __init__(self, work: Path, config: Path) -> None:
        self.work = work
        self.config = config
        self.env = child_env()
        self.n = 0

    def child(self, mode: str, *args: str) -> dict | None:
        """Run child.py in its own session; None if it failed."""
        self.n += 1
        result = self.work / f"{self.n:03d}-{mode}.json"
        log = self.work / f"{self.n:03d}-{mode}.log"
        cmd = [sys.executable, str(CHILD), mode, str(self.config), *args, str(result)]
        with open(log, "wb") as fh:
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{mode}: timed out after {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
            finally:
                _kill_group(proc)
        if proc.returncode != 0 or not result.is_file():
            tail = log.read_text(errors="replace")[-2000:]
            print(f"{mode}: child exited {proc.returncode}\n{tail}", file=sys.stderr)
            return None
        return json.loads(result.read_text())

    def scenario(self, mode: str, cfg: dict, workers: int | None = None):
        """One run of the scenario, checked.  Returns (result, problems)."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = [str(out)] if workers is None else [str(out), str(workers)]
        res = self.child(mode, *args)
        if res is None:
            return None, ["child process failed"]
        try:
            problems = checks.check_run(cfg, out, res["exit_code"])
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            res["fingerprint"] = checks.fingerprint(out)
            res["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            if cfg["mode"] == "compare":
                res["oracle_gap"] = checks.oracle_gap(out)
        return res, problems


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's session and wait for it to end."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def trimmed_mean(values, cut: float = 0.2) -> float:
    """The mean of what is left after dropping the lowest and the highest
    `cut` share of the values."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])


def end_to_end(runner: Runner, cfg: dict, seconds: float, started: float):
    setups, runs, problems, attempted = [], [], [], 0

    def setup() -> None:
        res = runner.child("setup")
        if res is None:
            raise RuntimeError("set-up failed")
        setups.append(res)

    # A set-up process before each timed run, so that set-up samples the
    # host over the whole run just as the timed runs do.
    deadline = time.monotonic() + seconds
    while attempted < MIN_RUNS or time.monotonic() < deadline:
        if time.monotonic() - started > BUDGET_S:
            break
        setup()
        attempted += 1
        res, bad = runner.scenario("run", cfg, WORKERS)
        problems += bad
        if res is not None:
            res["failed"] = bool(bad)
            runs.append(res)
    while len(setups) < SETUP_PROCS:
        setup()
    failed = sum(r["failed"] for r in runs) + (attempted - len(runs))
    if not runs:
        raise RuntimeError("no run completed")
    # Trimmed means, not medians: the host's speed switches between states
    # for seconds to minutes, and each fresh process tends to keep one
    # state for its life.  A median over one run jumps to the state that
    # held most of its processes; a mean moves by each state's share, and
    # trimming keeps a stray stalled process (up to 15x) out of it.
    run_s = trimmed_mean(r["run_s"] for r in runs)
    metrics = {
        "setup_s": trimmed_mean(s["setup_s"] for s in setups),
        "run_s": run_s,
        "traj_per_s": cfg["N_traj"] / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    info = {
        "setup_s_samples": [s["setup_s"] for s in setups],
        "run_s_samples": [r["run_s"] for r in runs],
        "cpu_s_samples": [r["cpu_s"] for r in runs],
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in runs],
        "minflt_per_run": [r["minflt"] for r in runs],
        "fingerprints": sorted({r.get("fingerprint", "") for r in runs} - {""}),
        "failed_frac": failed / attempted,
    }
    if cfg["mode"] == "compare":
        info["oracle_gap"] = sorted({r["oracle_gap"] for r in runs if "oracle_gap" in r})
    return metrics, attempted, failed, problems, info


def per_layer(runner: Runner, cfg: dict, seconds: float, started: float):
    """Rounds of (serial, traced, parallel) runs until `seconds` have passed;
    each metric is the median over the rounds."""
    rounds, problems, attempted, failed = [], [], 0, 0
    deadline = time.monotonic() + seconds
    while not rounds or (time.monotonic() < deadline and time.monotonic() - started < BUDGET_S / 2):
        results = []
        for mode, workers in (("run", 1), ("trace", None), ("run", WORKERS)):
            res, bad = runner.scenario(mode, cfg, workers)
            attempted += 1
            failed += bool(bad)
            problems += bad
            results.append(res)
        if any(r is None for r in results):
            raise RuntimeError("a traced or baseline run did not complete")
        rounds.append(results)
    serial, traced, parallel = (list(runs) for runs in zip(*rounds))
    serial_s = statistics.median(r["run_s"] for r in serial)
    traced_s = statistics.median(r["run_s"] - r["measure_s"] for r in traced)
    parallel_s = statistics.median(r["run_s"] for r in parallel)
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trajectory.parallel_efficiency"] = serial_s / (WORKERS * parallel_s)
    metrics["trace.overhead_frac"] = (traced_s - serial_s) / serial_s
    metrics["run.minflt"] = float(statistics.median(r["minflt"] for r in parallel))
    if "bytes_written" in traced[0]:
        metrics["output.bytes_written"] = float(traced[0]["bytes_written"])
    if cfg["mode"] != "compare":
        metrics["lindblad.oracle_gap"] = 0.0  # no oracle runs, so there is no gap
    elif "oracle_gap" in traced[0]:
        metrics["lindblad.oracle_gap"] = traced[0]["oracle_gap"]
    info = {
        "rounds": len(rounds),
        "serial_run_s_samples": [r["run_s"] for r in serial],
        "traced_run_s_samples": [r["run_s"] for r in traced],
        "parallel_run_s_samples": [r["run_s"] for r in parallel],
        "tracer_measure_s": [r["measure_s"] for r in traced],
        "span_count": traced[0]["span_count"],
        "missing_hooks": traced[0]["missing_hooks"],
        "fingerprints": sorted({r.get("fingerprint", "") for r in serial + traced + parallel} - {""}),
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, problems, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "openchain" / "cli.py").is_file():
        print(f"no openchain sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(args.workload, args.seed)
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1))
    runner = Runner(work, config)

    try:
        if args.trace:
            metrics, attempted, failed, problems, info = per_layer(runner, cfg, args.seconds, started)
        else:
            metrics, attempted, failed, problems, info = end_to_end(runner, cfg, args.seconds, started)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        print(f"end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 1
    info.update(
        workload=args.workload, seed=args.seed, trace=args.trace, config=cfg,
        problems=problems[:20], missing_metrics=missing, machine=machine(),
        wall_s=time.monotonic() - started,
    )
    (work / "result.json").write_text(json.dumps({"metrics": metrics, "info": info}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
