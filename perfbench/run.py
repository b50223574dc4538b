"""Benchmark of the evtensor pipeline: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ref --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout. The load comes from this one
process: it starts each run of the workload in a fresh interpreter
(perfbench/child.py), one at a time, with `src/` on the path, so that
setup_s includes `import evtensor` and peak_rss_mb belongs to that run.
No BLAS thread variable is set; the environment each run found is recorded.

--trace 0 repeats the pipeline until --seconds have passed (at least once),
adds set-up-only runs until there are MIN_SETUPS set-up samples, and reports
the medians of the end-to-end metrics. --trace 1 makes one untraced and one
traced run and reports the per-layer metrics, the trivial baselines and the
tracing overhead (traced minus untraced pipeline time); on ref it also times
the solve alone with OPENBLAS_NUM_THREADS=1.

Metric names and units come from BENCHMARK.json. The last line of standard
output is the JSON result; the lines before it are a readable table and the
environment. Every run's record is kept in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ref", "davis", "cli")
LIMIT_S = 170.0   # an invocation must end within 180 s
MIN_SETUPS = 3    # set-up samples per invocation, for the setup_s median
N_OPS = 6         # operations of one pipeline run: its stages or CLI subcommands
QUALITY = ("objects_auc", "noise_auc", "denoise_f1", "fit_rel_err")


class Runner:
    """Starts the child runs of one invocation and tallies their operations."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.count = 0
        self.longest = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def room_for_another(self) -> bool:
        return self.elapsed() + 1.5 * self.longest + 5.0 < LIMIT_S

    def child(self, mode: str, first: bool = False, env_extra=None) -> dict | None:
        a = self.args
        self.count += 1
        out = OUT / f"{a.workload}-seed{a.seed}-{mode}-{self.count}.json"
        out.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update(env_extra or {})
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--solver-seed", str(a.solver_seed),
               "--mode", mode, "--out", str(out)] + (["--first"] if first else [])
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, text=True,
                                  capture_output=True, timeout=max(LIMIT_S - self.elapsed(), 1.0))
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = None, "timed out"
        self.longest = max(self.longest, time.perf_counter() - t0)
        record = json.loads(out.read_text()) if code == 0 and out.exists() else None
        if record is not None and not record["evtensor"].startswith(str(ROOT / "src")):
            raise SystemExit(f"evtensor was imported from {record['evtensor']}, not from src/")
        if mode in ("setup", "solve1t"):
            self.attempted += 1
            if record is None:
                self.failures.append(f"{mode}: exit {code}: {err.strip()[-2000:]}")
            return record
        if record is None:
            self.attempted += N_OPS
            self.failures += [f"{mode}: exit {code}: {err.strip()[-2000:]}"] * N_OPS
            return None
        self.records.append(record)
        ops = record["ops"]
        self.attempted += ops["attempted"]
        self.failures += [f"{mode}: {name}: {why}" for name, why in ops["failed"].items()]
        return record if "quality" in record else None


def measure(runner: Runner) -> dict[str, float]:
    """End-to-end metrics: medians over the pipeline runs of --seconds."""
    runs = []
    while not runs or (runner.elapsed() < runner.args.seconds and runner.room_for_another()):
        runs.append(runner.child("run", first=not runs))
    runs = [r for r in runs if r is not None]
    setups = [r["setup_s"] for r in runs]
    while len(setups) < MIN_SETUPS and runner.room_for_another():
        record = runner.child("setup")
        if record is not None:
            setups.append(record["setup_s"])
    if not runs:
        return {}
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "converged": statistics.median(r["quality"]["converged"] for r in runs),
        "runs": len(runs),
        "setup_samples": len(setups),
    }
    for name in QUALITY:
        values[name] = statistics.median(r["quality"][name] for r in runs)
    return values


def trace(runner: Runner) -> dict[str, float]:
    """Per-layer metrics from one traced run next to one untraced run."""
    plain = runner.child("run", first=True)
    traced = runner.child("traced")
    if plain is None or traced is None:
        return {}
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
    values["solver.solve_1t_s"] = 0.0
    if runner.args.workload == "ref":
        single = runner.child("solve1t", env_extra={"OPENBLAS_NUM_THREADS": "1"})
        if single is None:
            return {}
        values["solver.solve_1t_s"] = single["solve_s"]
    return values


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark of the evtensor pipeline.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed, added to the seed of the workload's scene spec")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="repeat the pipeline until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--solver-seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.solver_seed < 0:
        p.error("seeds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "evtensor" / "__init__.py").is_file():
        print(f"no evtensor sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    runner = Runner(args)
    values = trace(runner) if args.trace else measure(runner)
    failed = len(runner.failures)
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not args.trace:
        rows += [("converged", values["converged"], "0/1"),
                 ("error_rate", failed / max(runner.attempted, 1), "1")]
        print(f"# {args.workload} seed {args.seed}: {values['runs']} pipeline runs, "
              f"{values['setup_samples']} set-up samples, {runner.elapsed():.1f} s")
    for name, value, unit in rows:
        print(f"{name:34s} {value:14.6g} {unit}")
    env = next((r["env"] for r in runner.records if "env" in r), None)
    print("# env " + json.dumps(env, sort_keys=True))

    result = {"correct": failed == 0, "attempted": max(runner.attempted, 1),
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "env": env, "failures": runner.failures,
                    "runs": runner.records}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
