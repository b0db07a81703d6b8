"""linkalloc benchmark: the controller loop, end to end and per module.

    python3 bench/run.py --workload fixture-pf --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src/`
(no install needed) and every file written goes under `.bench_work/`. With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-module ones. Human-readable lines come first; the last
line of standard output is one JSON object:

    {"correct": true, "attempted": 913, "failed": 0, "metrics": {...}}

Exit status: 0 after a result line (even an incorrect one), 2 when the
package source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

# A fresh interpreter times `import linkalloc` and, given a path, the load of
# that scenario; it prints the two durations in seconds.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import linkalloc
t1 = time.perf_counter()
if len(sys.argv) > 2:
    linkalloc.load_scenario(sys.argv[2])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def fresh_interpreter_s(scenario: Path | None) -> tuple:
    """Median (import, load) seconds over fresh interpreters, after one warm-up.

    The warm-up compiles bytecode and warms the file cache, which a user pays
    once per install, not per run.
    """
    args = [sys.executable, "-c", _SETUP_CODE, str(SRC)]
    if scenario is not None:
        args.append(str(scenario))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(args if i else args[:4], capture_output=True, text=True,
                              check=True, timeout=120, cwd=ROOT)
        if i:
            samples.append(tuple(float(v) for v in done.stdout.split()))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[0] + s[1] for s in samples))


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml_c_loader": bool(getattr(yaml, "__with_libyaml__", False)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_gb": round(mem_bytes / 2**30, 1),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line plus the details behind it."""
    import linkalloc
    from checks import Outcomes
    from workloads import COMPUTED

    WORK.mkdir(exist_ok=True)
    scenario_path = workload.input_path(seed, WORK)
    if trace:
        import_s, _ = fresh_interpreter_s(None)
    else:
        _, setup_s = fresh_interpreter_s(scenario_path)
    t0 = time.perf_counter()
    sc = linkalloc.load_scenario(scenario_path)
    load_s = time.perf_counter() - t0

    outcomes = Outcomes()
    out = workload.run(sc, seconds, trace, outcomes)
    if trace:
        metrics = workload.per_layer(out, load_s, import_s)
        out["tracer"].write_csv(WORK / f"spans_{workload.name}_seed{seed}.csv")
    else:
        metrics = {"setup_s": (setup_s, "s"), **workload.end_to_end(out)}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "samples": workload.sample_note(out),
        "step_latencies_ms": [t * 1e3 for t in out["timed"].latencies],
        "failed_by_outcome": dict(outcomes.failed),
        "problems": out["problems"],
        "unpatched": sorted(out["tracer"].missing) if trace else [],
        "computed": {k: v for k, v in COMPUTED.items() if k in metrics},
        "result": {
            "correct": not out["problems"],
            "attempted": outcomes.attempted,
            "failed": outcomes.n_failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def report(details: dict) -> None:
    """Print the human-readable lines, save the details, print the result line."""
    res = details["result"]
    env = details["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {details['workload']} seed {details['seed']} "
          f"trace {details['trace']}: {details['samples']}")
    for name, m in res["metrics"].items():
        note = details["computed"].get(name)
        print(f"  {name} = {_fmt(m['value'])} {m['unit']}"
              + (f"  (computed: {note})" if note else ""))
    frac = res["failed"] / res["attempted"]
    by = ", ".join(f"{k} {v}" for k, v in details["failed_by_outcome"].items()) or "none"
    print(f"  failed_frac = {_fmt(frac)} ({res['failed']} of {res['attempted']} "
          f"operations; failures by outcome: {by})")
    for name in details["unpatched"]:
        print(f"trace: {name} not found; its spans read 0")
    for p in details["problems"]:
        print(f"check failed: {p}")
    print("check: " + ("ok" if res["correct"] else f"{len(details['problems'])} problems"))
    name = f"result_{details['workload']}_seed{details['seed']}_trace{details['trace']}.json"
    (WORK / name).write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(res), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linkalloc controller-loop benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linkalloc" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'linkalloc'}; run from a "
              "linkalloc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import linkalloc
    if Path(linkalloc.__file__).resolve().parent != SRC / "linkalloc":
        print(f"bench: imported linkalloc from {linkalloc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ["TMPDIR"] = str(WORK)   # keep any temporary file inside the checkout
    report(run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
