"""One measurement in a fresh interpreter.

    python3 perfbench/child.py setup CONFIG RESULT
    python3 perfbench/child.py run   CONFIG OUT WORKERS RESULT
    python3 perfbench/child.py trace CONFIG OUT RESULT

`run.py` starts a new process for every measurement so that each one
begins from the same allocator history (NOTES.md gives the measured
reason).  The child imports openchain from the `src` directory on
PYTHONPATH, times only the program's own calls, and writes its result
as JSON to RESULT.
"""

from __future__ import annotations

import csv
import json
import resource
import sys
import time
from pathlib import Path


def _usage() -> dict:
    """Peak RSS and minor faults of this process and its reaped children
    (the pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "minflt": me.ru_minflt + kids.ru_minflt,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
    }


def setup(config: str) -> dict:
    """Time what a run must do before its first trajectory."""
    from openchain.config import parse_config
    from openchain.lindblad import build_jump_operators
    from openchain.model import build_chain_hamiltonian
    from openchain.trotter import build_step

    text = Path(config).read_text()
    start = time.perf_counter()
    cfg = parse_config(text)
    build_step(build_chain_hamiltonian(cfg.chain), cfg.run.dt)
    if cfg.mode == "compare":
        build_jump_operators(cfg.contacts, cfg.chain.L, include_depolarizing=cfg.include_depolarizing)
    return {"setup_s": time.perf_counter() - start}


def run(config: str, out: str, workers: int) -> dict:
    """Time the CLI from argument parsing until every file is written."""
    from openchain import cli

    argv = ["run", "--config", config, "--out", out, "--workers", str(workers)]
    start = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - start
    return {"exit_code": code, "run_s": run_s, **_usage()}


def trace(config: str, out: str) -> dict:
    """A serial run with spans around every layer boundary."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    result = run(config, out, 1)
    L = json.loads(Path(config).read_text())["L"]
    result["layers"] = tracing.layer_metrics(tracer, L)
    result["measure_s"] = sum(tracer.durations().get(tracing.MEASURE, ()))
    result["missing_hooks"] = tracer.missing
    result["span_count"] = len(tracer.spans)
    with open(Path(out).parent / "spans.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "start_s", "end_s", "parent"])
        w.writerows((i, n, f"{s:.9f}", f"{e:.9f}", p) for i, (n, s, e, p) in enumerate(tracer.spans))
    return result


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = setup(args[0])
    elif mode == "run":
        result = run(args[0], args[1], int(args[2]))
    elif mode == "trace":
        result = trace(args[0], args[1])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(argv[-1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
