"""One run of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py --workload ref --seed 0 --solver-seed 0 \
        --mode run --t0 <perf_counter> --out result.json [--first]

Modes:
  setup    import evtensor and generate the scene in memory, then stop
  run      set-up, the timed pipeline, then the correctness checks
  traced   as run, with the tracer installed before the scene is generated;
           adds the per-layer metrics and the trivial baselines
  solve1t  set-up, bin, then time the solve alone (run.py starts this mode
           with OPENBLAS_NUM_THREADS=1)

`--t0` is the parent's perf_counter just before it started this interpreter
(perf_counter reads CLOCK_MONOTONIC, which processes share on Linux), so
setup_s covers interpreter start, `import evtensor` and scene generation.
`--first` marks the first run of an invocation, which also checks the input
digest and, on the cli workload, the byte-identical rerun.

The program only receives the generated inputs: the scene comes from the
spec files in scenes/ with --seed added to their seed, and the solver seed
from --solver-seed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from baselines import neighbour_filter, signal_f1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "ref": {"scene": "ref.cfg", "s_max": 200},
    "davis": {"scene": "davis.cfg", "s_max": 15},
    "cli": {"scene": "davis.cfg", "s_max": 3},
}
STAGES = ("gen", "bin", "decompose", "classify_objects", "classify_noise", "denoise")
TASKS = ("objects", "noise")
# score_events against the dense f3tn_contract gathered at each event's cell;
# both sum the same f^3 float64 products in a different order.
SCORE_RTOL = 1e-10
SCORE_ATOL = 1e-12  # times the largest |reconstruction|


class Ops:
    """Pass/fail record of the operations: each stage call or CLI subcommand.
    An operation fails if it raises, exits non-zero or fails a check."""

    def __init__(self, names=STAGES):
        self.names = list(names)
        self.errors: dict[str, str] = {}
        self.current = self.names[0]

    def begin(self, name: str) -> None:
        self.current = name

    def abort(self, exc: BaseException) -> None:
        """The pipeline stopped: the current operation and every later one failed."""
        start = self.names.index(self.current)
        self.errors.setdefault(self.current, f"{type(exc).__name__}: {exc}")
        for name in self.names[start + 1:]:
            self.errors.setdefault(name, "not reached")

    def check(self, name: str, ok: bool, what: str) -> None:
        if not ok:
            self.errors.setdefault(name, f"check failed: {what}")

    def verify(self, name: str, predicate, what: str) -> None:
        try:
            ok = bool(predicate())
        except Exception as exc:  # a check that cannot run has failed
            ok, what = False, f"{what} ({type(exc).__name__}: {exc})"
        self.check(name, ok, what)

    def summary(self) -> dict:
        return {"attempted": len(self.names), "failed": self.errors}


def digest(stream) -> str:
    """sha256 of the generated (t, i, j, label) arrays as little-endian int64."""
    h = hashlib.sha256()
    for values in (stream.t, stream.i, stream.j, stream.labels):
        h.update(np.ascontiguousarray(values, dtype="<i8").tobytes())
    return h.hexdigest()


def scene_spec(ev, workload: str, seed: int):
    spec = ev.load_scene_spec(str(HERE / "scenes" / WORKLOADS[workload]["scene"]))
    return replace(spec, seed=spec.seed + seed)


def check_digest(ev, ops: Ops, workload: str, seed: int, stream) -> None:
    """The scene at --seed 0 must still hash to the recorded digest, so a
    change to synth that alters the events fails instead of shifting quality."""
    expected = json.loads((HERE / "digests.json").read_text())[WORKLOADS[workload]["scene"]]
    canonical = stream if seed == 0 else ev.generate(scene_spec(ev, workload, 0))
    ops.check("gen", digest(canonical) == expected, "input digest matches digests.json")


# ---------------------------------------------------------------------------
# the in-memory pipeline (ref, davis) and its checks


def classify(ev, stream, tensor, factors, task: str) -> float:
    from evtensor.evaluation import binary_task

    feats = ev.temporal_split(ev.extract_features(stream, tensor, factors))
    mask, y = binary_task(feats.labels, task)
    model = ev.train_svm(feats.features[mask & feats.is_train], y[feats.is_train[mask]])
    return ev.auc(model.decision_scores(feats.features[mask & ~feats.is_train]),
                  y[~feats.is_train[mask]])


def denoise(ev, stream, tensor, factors):
    scores = ev.score_events(stream, tensor, factors)
    return ev.filter_events(stream, scores, ev.quantile_threshold(scores))


def run_in_memory(ev, ops: Ops, stream, spec, cfg) -> dict:
    out = {"aucs": {}}
    start = time.perf_counter()
    ops.begin("bin")
    out["tensor"] = tensor = ev.bin_to_tensor(stream, spec.n_frames)
    ops.begin("decompose")
    out["factors"], out["state"] = factors, _ = ev.solve(tensor, cfg)
    for task in TASKS:
        ops.begin(f"classify_{task}")
        out["aucs"][task] = classify(ev, stream, tensor, factors, task)
    ops.begin("denoise")
    out["filtered"], out["report"] = denoise(ev, stream, tensor, factors)
    out["pipeline_s"] = time.perf_counter() - start
    return out


def check_factors(ev, ops: Ops, tensor, factors) -> None:
    ops.verify("decompose", lambda: factors.dims == tensor.dims and all(
        np.all(np.isfinite(g)) for g in (factors.g_i, factors.g_j, factors.g_n)),
        "factors have the tensor's dims and are finite")

    def round_trip():
        buf = io.StringIO()
        ev.save_checkpoint(factors, buf)
        buf.seek(0)
        back = ev.load_checkpoint(buf)
        return all(np.array_equal(getattr(back, g), getattr(factors, g))
                   for g in ("g_i", "g_j", "g_n"))

    ops.verify("decompose", round_trip, "save_checkpoint/load_checkpoint round trip is exact")


def check_scores(ops: Ops, recon, cells, scores) -> None:
    def same():
        dense = recon[cells]
        atol = SCORE_ATOL * float(np.max(np.abs(recon)))
        return np.allclose(scores, dense, rtol=SCORE_RTOL, atol=atol)

    ops.verify("denoise", same, "score_events equals the dense reconstruction at each cell")


def fit_rel_err(recon, tensor) -> float:
    """||R - E|| / ||E|| with E the observed binary tensor."""
    e = tensor.data.astype(np.float64)
    return float(np.linalg.norm(recon - e) / np.linalg.norm(e))


def cells_of(stream, tensor):
    from evtensor.events import bin_indices

    return stream.i, stream.j, bin_indices(stream.t, tensor.bin_edges)


def finish_in_memory(ev, ops: Ops, stream, out) -> dict:
    tensor, factors, report = out["tensor"], out["factors"], out["report"]
    check_factors(ev, ops, tensor, factors)
    recon = ev.f3tn_contract(factors)
    check_scores(ops, recon, cells_of(stream, tensor), report.scores)
    buf = io.StringIO()
    if out["filtered"] is not None:
        ev.write_events_csv(out["filtered"], buf)
    rows = max(buf.getvalue().count("\n") - 1, 0)
    ops.check("denoise", rows == report.n_kept, "the filtered CSV has n_kept rows")
    return {
        "objects_auc": out["aucs"]["objects"],
        "noise_auc": out["aucs"]["noise"],
        "denoise_f1": report.f1,
        "fit_rel_err": fit_rel_err(recon, tensor),
        "converged": int(out["state"].converged),
    }


# ---------------------------------------------------------------------------
# the cli workload: the same scene through evtensor.cli.main, in process

# Every output of a subcommand starts with one of its stems, so a byte
# difference on rerun can be charged to the subcommand that wrote the file.
CLI_STEMS = {
    "gen": ("events",), "bin": ("tensor",), "decompose": ("ckpt", "trace"),
    "classify_objects": ("objects",), "classify_noise": ("noise",),
    "denoise": ("filtered", "report"),
}


def cli_argvs(work: Path, spec, scene_seed: int, solver_seed: int) -> list[tuple[str, list[str]]]:
    p = {stem: str(work / f"{stem}.{ext}") for stem, ext in (
        ("events", "csv"), ("tensor", "txt"), ("ckpt", "txt"), ("trace", "csv"),
        ("objects", "txt"), ("noise", "txt"), ("filtered", "csv"), ("report", "csv"))}
    rows, cols = spec.geometry
    binning = ["--events", p["events"], "--geometry", f"{rows}x{cols}",
               "--frames", str(spec.n_frames)]
    fitted = ["--events", p["events"], "--checkpoint", p["ckpt"]]
    return [
        ("gen", ["gen", "--spec", str(HERE / "scenes" / WORKLOADS["cli"]["scene"]),
                 "--out", p["events"], "--seed", str(scene_seed)]),
        ("bin", ["bin", *binning, "--out", p["tensor"]]),
        ("decompose", ["decompose", *binning, "--checkpoint", p["ckpt"], "--trace", p["trace"],
                       "--seed", str(solver_seed), "--s-max", str(WORKLOADS["cli"]["s_max"])]),
        ("classify_objects", ["classify", *fitted, "--task", "objects", "--report", p["objects"]]),
        ("classify_noise", ["classify", *fitted, "--task", "noise", "--report", p["noise"]]),
        ("denoise", ["denoise", *fitted, "--out", p["filtered"], "--report", p["report"]]),
    ]


def _call(cli, argv) -> int:
    """Exit code of one subcommand; argparse exits on a bad flag."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_cli(cli, ops: Ops, argvs) -> float:
    codes = {}
    start = time.perf_counter()
    for name, argv in argvs:
        ops.begin(name)
        codes[name] = _call(cli, argv)
    elapsed = time.perf_counter() - start
    for name, code in codes.items():
        ops.check(name, code == 0, f"exit code {code}")
    return elapsed


def _auc_from_report(path: Path) -> float:
    for line in path.read_text().splitlines():
        if line.startswith("auc:"):
            return float(line.split(":", 1)[1])
    raise ValueError(f"no auc line in {path.name}")


def finish_cli(ev, ops: Ops, work: Path, spec, stream) -> tuple[dict, object]:
    parsed = ev.parse_events(str(work / "events.csv"), spec.geometry)
    ops.check("gen", digest(parsed) == digest(stream), "the event CSV holds the generated scene")
    tensor = ev.bin_to_tensor(parsed, spec.n_frames)
    factors = ev.load_checkpoint(str(work / "ckpt.txt"))
    check_factors(ev, ops, tensor, factors)
    recon = ev.f3tn_contract(factors)
    report = np.loadtxt(work / "report.csv", delimiter=",", skiprows=1, ndmin=2)
    check_scores(ops, recon, cells_of(parsed, tensor), report[:, 4])
    kept = report[:, 5] == 1
    with open(work / "filtered.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    ops.check("denoise", rows == int(kept.sum()), "the filtered CSV has n_kept rows")
    converged = "# converged: true" in (work / "trace.csv").read_text()
    quality = {
        "objects_auc": _auc_from_report(work / "objects.txt"),
        "noise_auc": _auc_from_report(work / "noise.txt"),
        "denoise_f1": signal_f1(kept, report[:, 3] != -1),
        "fit_rel_err": fit_rel_err(recon, tensor),
        "converged": int(converged),
    }
    return quality, tensor


def _hashes(work: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in work.iterdir()}


def check_rerun(cli, ops: Ops, work: Path, argvs) -> None:
    """The cli.py docstring promises byte-identical data files when a run is
    repeated with identical flags: rerun every subcommand and compare."""
    before = _hashes(work)
    for name, argv in argvs:
        rerun = f"rerun_{name}"
        ops.names.append(rerun)
        code = _call(cli, argv)
        ops.check(rerun, code == 0, f"exit code {code}")
    after = _hashes(work)
    for name, _ in argvs:
        changed = sorted(f for f in set(before) | set(after)
                         if f.split(".")[0] in CLI_STEMS[name] and before.get(f) != after.get(f))
        ops.check(f"rerun_{name}", not changed, f"byte-identical rerun ({', '.join(changed)})")


# ---------------------------------------------------------------------------
# baselines of the traced run


def random_factors(ev, dims, cfg):
    """Unfitted factors at f_max, drawn like the solver's start at its seed."""
    rng = np.random.default_rng(cfg.seed)
    ii, jj, nn = dims
    f, scale = cfg.f_max, cfg.init_scale
    return ev.FactorTriple(g_i=rng.uniform(0.0, scale, (ii, f, f)),
                           g_j=rng.uniform(0.0, scale, (f, jj, f)),
                           g_n=rng.uniform(0.0, scale, (f, f, nn)))


def baselines(ev, stream, tensor, cfg) -> dict[str, float]:
    factors = random_factors(ev, tensor.dims, cfg)
    _, report = denoise(ev, stream, tensor, factors)
    out = {f"baseline.random.{task}_auc": classify(ev, stream, tensor, factors, task)
           for task in TASKS}
    out["baseline.random.denoise_f1"] = report.f1
    i, j, n = cells_of(stream, tensor)
    out.update(neighbour_filter(tensor.data, i, j, n, stream.labels != -1))
    return out


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--solver-seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "traced", "solve1t"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--first", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import evtensor as ev

    if args.workload == "cli":
        import evtensor.cli as cli
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([m for name, m in sys.modules.items()
                        if name == "evtensor" or name.startswith("evtensor.")])
    spec = scene_spec(ev, args.workload, args.seed)
    stream = ev.generate(spec)
    result = {"mode": args.mode, "setup_s": time.perf_counter() - args.t0,
              "evtensor": ev.__file__}
    out_path = Path(args.out)
    if args.mode == "setup":
        out_path.write_text(json.dumps(result))
        return 0

    cfg = ev.SolverConfig(s_max=WORKLOADS[args.workload]["s_max"], seed=args.solver_seed)
    if args.mode == "solve1t":
        tensor = ev.bin_to_tensor(stream, spec.n_frames)
        start = time.perf_counter()
        ev.solve(tensor, cfg)
        result["solve_s"] = time.perf_counter() - start
        out_path.write_text(json.dumps(result))
        return 0

    ops = Ops()
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=out_path.parent)) \
        if args.workload == "cli" else None
    try:
        try:
            if work is not None:
                argvs = cli_argvs(work, spec, spec.seed, args.solver_seed)
                result["pipeline_s"] = run_cli(cli, ops, argvs)
            else:
                out = run_in_memory(ev, ops, stream, spec, cfg)
                result["pipeline_s"] = out["pipeline_s"]
        except Exception as exc:  # a failed stage is counted, not fatal to the benchmark
            ops.abort(exc)
        finally:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.uninstall()
        if "pipeline_s" in result:
            if work is not None:
                result["quality"], tensor = finish_cli(ev, ops, work, spec, stream)
                if args.first:
                    check_rerun(cli, ops, work, argvs)
            else:
                result["quality"] = finish_in_memory(ev, ops, stream, out)
                tensor = out["tensor"]
            if args.first:
                check_digest(ev, ops, args.workload, args.seed, stream)
                from envinfo import environment

                result["env"] = environment(ROOT, tensor.dims)
            if tracer is not None:
                from tracer import layer_metrics

                spans_path = out_path.with_name(out_path.stem + ".spans.json")
                spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))
                layers = layer_metrics(tracer.spans, math.prod(tensor.dims))
                result["layers"] = {k: v for k, (v, _) in layers.items()}
                result["layers"].update(baselines(ev, stream, tensor, cfg))
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    result["ops"] = ops.summary()
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
