"""The CLI end to end, and the path handling every reader and writer shares."""

import argparse
import dataclasses
import hashlib
import importlib
import io
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evtensor import cli, evaluation
from evtensor.denoise import filter_events, write_report_csv
from evtensor.evaluation import (
    SweepCell,
    save_model,
    train_svm,
    write_results_csv,
)
from evtensor.errors import ProtocolError
from evtensor.events import (
    EventStream,
    bin_to_tensor,
    parse_events,
    write_events_csv,
    write_tensor_dump,
)
from evtensor.solver import SolverConfig, load_checkpoint, save_checkpoint, solve, write_trace_csv
from evtensor.synth import generate, load_scene_spec, scene_spec_to_ini

from oracles import REF_SCENE, load_model, random_factors, read_tensor_dump

SMALL_SOLVE = ["--s-max", "4", "--f-max", "2"]


def run_pipeline(work: Path) -> dict[str, int]:
    """All six subcommands on the reference scene; returns each exit code."""
    p = {name: str(work / name) for name in (
        "events.csv", "tensor.txt", "ckpt.txt", "trace.csv", "objects.txt",
        "model.txt", "filtered.csv", "report.csv", "sweep.csv")}
    binning = ["--events", p["events.csv"], "--geometry", "64x48", "--frames", "60"]
    fitted = ["--events", p["events.csv"], "--checkpoint", p["ckpt.txt"]]
    argvs = {
        "gen": ["gen", "--spec", str(REF_SCENE), "--out", p["events.csv"]],
        "bin": ["bin", *binning, "--out", p["tensor.txt"]],
        "decompose": ["decompose", *binning, "--checkpoint", p["ckpt.txt"],
                      "--trace", p["trace.csv"], *SMALL_SOLVE],
        "classify": ["classify", *fitted, "--report", p["objects.txt"],
                     "--model", p["model.txt"]],
        "denoise": ["denoise", *fitted, "--out", p["filtered.csv"], "--report", p["report.csv"]],
        "sweep": ["sweep", *binning, "--lambda1-grid", "0,0.1", "--lambda2-grid", "0.1",
                  "--out", p["sweep.csv"], *SMALL_SOLVE],
    }
    return {name: cli.main(argv) for name, argv in argvs.items()}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    return work, run_pipeline(work)


def test_every_subcommand_runs_and_writes(pipeline_dir):
    work, codes = pipeline_dir
    assert codes == dict.fromkeys(codes, 0)
    for name in ("events.csv", "events.scene.cfg", "events.config.json", "tensor.txt",
                 "ckpt.txt", "trace.csv", "objects.txt", "model.txt", "filtered.csv",
                 "report.csv", "sweep.csv"):
        assert (work / name).stat().st_size > 0, name
    auc_lines = [line for line in (work / "objects.txt").read_text().splitlines()
                 if line.startswith("auc:")]
    assert len(auc_lines) == 1
    assert 0.0 <= float(auc_lines[0].split(":", 1)[1]) <= 1.0


def _without_seconds(text: str) -> list[str]:
    """The sweep CSV with its wall-clock seconds column dropped."""
    return [line if line.startswith("#") else line.rsplit(",", 1)[0]
            for line in text.splitlines()]


def test_rerun_is_byte_identical(pipeline_dir):
    work, _ = pipeline_dir

    def digests():
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in work.iterdir() if f.name != "sweep.csv"}

    before, sweep_before = digests(), (work / "sweep.csv").read_text()
    codes = run_pipeline(work)
    assert codes == dict.fromkeys(codes, 0)
    assert digests() == before
    assert _without_seconds((work / "sweep.csv").read_text()) == _without_seconds(sweep_before)


def test_decompose_prints_the_final_fit(pipeline_dir, tmp_path, capsys):
    work, _ = pipeline_dir
    binning = ["--events", str(work / "events.csv"), "--geometry", "64x48", "--frames", "60"]
    assert cli.main(["decompose", *binning, "--checkpoint", str(tmp_path / "ckpt.txt"),
                     "--trace", str(tmp_path / "trace.csv"), *SMALL_SOLVE]) == 0
    tensor = bin_to_tensor(parse_events(work / "events.csv", (64, 48)), 60)
    _, state = solve(tensor, SolverConfig(s_max=4, f_max=2))
    assert f"final fit: {state.trace[-1].fit:.6g}" in capsys.readouterr().out.splitlines()
    assert 0.0 < state.trace[-1].fit < 2.0


def test_classify_exits_1_when_the_task_empties_a_partition(tmp_path, caplog):
    # both objects fire only in the first half of the recording, so the
    # object task has no test events; noise spans the whole recording
    rng = np.random.default_rng(5)
    rows = [f"{t},{t % 8},{(t // 8) % 8},{t % 2}" for t in range(0, 400, 7)]
    rows += [f"{t},{rng.integers(8)},{rng.integers(8)},-1" for t in range(0, 1000, 13)]
    events = tmp_path / "events.csv"
    events.write_text("t,i,j,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    ckpt = str(tmp_path / "ckpt.txt")
    assert cli.main(["decompose", "--events", str(events), "--geometry", "8x8",
                     "--frames", "10", "--checkpoint", ckpt,
                     "--trace", str(tmp_path / "trace.csv"), *SMALL_SOLVE]) == 0
    report = tmp_path / "objects.txt"
    assert cli.main(["classify", "--events", str(events), "--checkpoint", ckpt,
                     "--task", "objects", "--report", str(report)]) == 1
    assert "task selection emptied a partition" in caplog.text
    assert not report.exists()


def test_classify_exits_1_on_an_unlabeled_stream(tmp_path, caplog):
    events = tmp_path / "events.csv"
    write_events_csv(EventStream(i=STREAM.i, j=STREAM.j, t=STREAM.t, geometry=STREAM.geometry),
                     events)
    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(random_factors(np.random.default_rng(1), (3, 2, 4), 2), ckpt)
    report = tmp_path / "objects.txt"
    argv = ["classify", "--events", str(events), "--checkpoint", str(ckpt),
            "--report", str(report)]
    assert cli.main(argv) == 1
    assert f"classification needs a label column in {events}" in caplog.text
    assert not report.exists()
    # the command raises; main is the one place that logs an error and exits 1
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ProtocolError, match="classification needs a label column"):
        args.func(args)


def test_denoise_that_keeps_no_event_writes_its_report_and_exits_1(pipeline_dir, tmp_path,
                                                                   capsys, caplog):
    work, _ = pipeline_dir
    binning = ["--events", str(work / "events.csv"), "--geometry", "64x48", "--frames", "60"]
    ckpt = str(tmp_path / "ckpt.txt")
    assert cli.main(["decompose", *binning, "--checkpoint", ckpt,
                     "--trace", str(tmp_path / "trace.csv"), "--s-max", "3"]) == 0
    capsys.readouterr()
    caplog.clear()
    out, report = tmp_path / "filtered.csv", tmp_path / "report.csv"
    argv = ["denoise", "--events", str(work / "events.csv"), "--checkpoint", ckpt,
            "--tau", "1e9", "--out", str(out), "--report", str(report)]
    assert cli.main(argv) == 1
    message = "threshold 1e+09 removed every event; no filtered CSV written"
    assert [(r.levelname, r.getMessage()) for r in caplog.records
            if r.levelno >= logging.WARNING] == [("ERROR", message)]
    summary = capsys.readouterr().out.splitlines()
    assert summary[0] == "threshold: 1e+09"
    assert summary[-1] == "warning: threshold removed every event"
    rows = report.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + len(parse_events(work / "events.csv", (64, 48)))
    assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"0"}
    assert (tmp_path / "report.config.json").stat().st_size > 0
    assert not out.exists()
    # the command raises; main is the one place that logs an error and exits 1
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ProtocolError, match=re.escape(message)):
        args.func(args)


def test_the_cli_runs_as_a_program(tmp_path):
    # python -m evtensor.cli in an interpreter of its own, with src/ on the path
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "evtensor.cli", *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, "evtensor 0.1.0\n")
    missing, out = tmp_path / "missing.csv", tmp_path / "tensor.txt"
    binning = ["bin", "--events", str(missing), "--geometry", "4x4", "--frames", "2",
               "--out", str(out)]
    unknown = run(*binning, "--no-such-flag")
    assert unknown.returncode == 2 and "unrecognized arguments: --no-such-flag" in unknown.stderr
    failed = run(*binning)
    assert (failed.returncode, failed.stdout) == (1, "")
    assert "No such file or directory" in failed.stderr and str(missing) in failed.stderr
    assert not out.exists()


# numpy 2.4 imports numpy.ma lazily, for np.unique's hash path and inside
# np.quantile: 9-12 ms and about 0.45 MB that no stage of a run needs. Each
# script runs in an interpreter of its own, on the reference scene
_IN_MEMORY = """
import sys
from evtensor import (SolverConfig, bin_to_tensor, filter_events, generate, load_scene_spec,
                      quantile_threshold, score_events, solve)
from evtensor.evaluation import classify_factors

spec = load_scene_spec(sys.argv[1])
stream = generate(spec)
tensor = bin_to_tensor(stream, spec.n_frames)
factors, _ = solve(tensor, SolverConfig(s_max=3))
for task in ("objects", "noise"):
    classify_factors(stream, tensor, factors, task)
scores = score_events(stream, tensor, factors)
filter_events(stream, scores, quantile_threshold(scores))
assert "numpy.ma" not in sys.modules
"""
_SUBCOMMANDS = """
import sys
from evtensor import cli

scene, work = sys.argv[1:]
events, ckpt = f"{work}/events.csv", f"{work}/ckpt.txt"
binning = ["--events", events, "--geometry", "64x48", "--frames", "60"]
fitted = ["--events", events, "--checkpoint", ckpt]
for argv in (["gen", "--spec", scene, "--out", events],
             ["bin", *binning, "--out", f"{work}/tensor.txt"],
             ["decompose", *binning, "--checkpoint", ckpt, "--trace", f"{work}/trace.csv",
              "--s-max", "3"],
             ["classify", *fitted, "--task", "objects", "--report", f"{work}/objects.txt"],
             ["classify", *fitted, "--task", "noise", "--report", f"{work}/noise.txt"],
             ["denoise", *fitted, "--out", f"{work}/filtered.csv", "--report", f"{work}/report.csv"],
             ["sweep", *binning, "--lambda1-grid", "0", "--lambda2-grid", "0.1", "--s-max", "3",
              "--out", f"{work}/sweep.csv"]):
    assert cli.main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv[0]
"""


@pytest.mark.parametrize("script", [_IN_MEMORY, _SUBCOMMANDS], ids=["in-memory", "subcommands"])
def test_no_stage_imports_numpy_ma(tmp_path, script):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", script, str(REF_SCENE), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# readers and writers: str paths, pathlib.Path and odd file names


STREAM = EventStream(i=[0, 1, 2], j=[0, 1, 0], t=[0, 50, 100], geometry=(3, 2),
                     labels=[0, 1, -1])
TENSOR = bin_to_tensor(STREAM, 4)
FACTORS = random_factors(np.random.default_rng(3), (4, 5, 6), 2)
MODEL = train_svm(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.2]]), np.array([0, 1, 1]))


def _text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _same_factors(a, b) -> bool:
    return all(np.array_equal(getattr(a, g), getattr(b, g)) for g in ("g_i", "g_j", "g_n"))


# artifact -> (write it to a path, read it back from a path, check what was read)
ARTIFACTS = {
    "events": (lambda p: write_events_csv(STREAM, p),
               lambda p: parse_events(p, STREAM.geometry),
               lambda got: np.array_equal(got.labels, STREAM.labels)),
    "dump": (lambda p: write_tensor_dump(TENSOR, p), read_tensor_dump,
             lambda got: np.array_equal(got, TENSOR.data)),
    "checkpoint": (lambda p: save_checkpoint(FACTORS, p), load_checkpoint,
                   lambda got: _same_factors(got, FACTORS)),
    "trace": (lambda p: write_trace_csv(solve(TENSOR, SolverConfig(f_max=1, s_max=2))[1], p,
                                        {"model": "ENTN"}),
              _text, lambda got: got.startswith("# model: ENTN\ns,f,objective,rel_change\n")),
    "results": (lambda p: write_results_csv([SweepCell(0.1, 0.1, 0.75, True, 3, 0.0)], p),
                _text, lambda got: got.startswith("lambda1,lambda2,auc,converged,iters,seconds\n"
                                                  "0.10000000000000001,0.10000000000000001,"
                                                  "0.75,true,3,0.000\n")),
    "model": (lambda p: save_model(MODEL, p), load_model,
              lambda got: np.array_equal(got.weights, MODEL.weights)),
    "report": (lambda p: write_report_csv(
                   STREAM, filter_events(STREAM, np.array([0.3, 0.2, 0.1]), 0.15)[1], p),
               _text, lambda got: got.splitlines()[1:] == ["0,0,0,0,0.29999999999999999,1",
                                                          "50,1,1,1,0.20000000000000001,1",
                                                          "100,2,0,-1,0.10000000000000001,0"]),
    "scene": (lambda p: Path(p).write_text(_text(REF_SCENE)),
              load_scene_spec, lambda got: got == load_scene_spec(REF_SCENE)),
}

# (function under test, artifact, which side of the round trip gets a pathlib.Path)
PATHLIB_CASES = [
    ("write_events_csv", "events", "write"), ("parse_events", "events", "read"),
    ("write_tensor_dump", "dump", "write"),
    ("save_checkpoint", "checkpoint", "write"), ("load_checkpoint", "checkpoint", "read"),
    ("write_trace_csv", "trace", "write"), ("write_results_csv", "results", "write"),
    ("save_model", "model", "write"),
    ("write_report_csv", "report", "write"), ("load_scene_spec", "scene", "read"),
]


@pytest.mark.parametrize("function, artifact, side", PATHLIB_CASES,
                         ids=[case[0] for case in PATHLIB_CASES])
def test_pathlib_path_accepted(tmp_path, function, artifact, side):
    write, read, check = ARTIFACTS[artifact]
    path = tmp_path / "artifact.txt"
    write(path if side == "write" else str(path))
    assert check(read(path if side == "read" else str(path)))


@pytest.mark.parametrize("as_path", [str, Path])
def test_parse_events_reads_a_file_name_with_a_comma(tmp_path, as_path):
    path = tmp_path / "run,1.csv"
    write_events_csv(STREAM, str(path))
    stream = parse_events(as_path(path), STREAM.geometry)
    np.testing.assert_array_equal(stream.t, STREAM.t)


def test_truncated_checkpoint_names_the_missing_line():
    factors = random_factors(np.random.default_rng(4), (30, 20, 10), 2)
    buf = io.StringIO()
    save_checkpoint(factors, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert len(lines) == 61
    with pytest.raises(ValueError, match=r"line 51 holds 0 of 4 values.* 60 factor rows"):
        load_checkpoint(io.StringIO("".join(lines[:50])))
    lines[7] = lines[7].rsplit(" ", 1)[0] + "\n"
    with pytest.raises(ValueError, match=r"line 8 holds 3 of 4 values.* 60 factor rows"):
        load_checkpoint(io.StringIO("".join(lines)))


def test_checkpoint_with_a_non_number_names_its_line():
    factors = random_factors(np.random.default_rng(4), (30, 20, 10), 2)
    buf = io.StringIO()
    save_checkpoint(factors, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    lines[7] = lines[7].rsplit(" ", 1)[0] + " x\n"
    with pytest.raises(ValueError, match=r"checkpoint line 8 holds a non-number .*'x'"):
        load_checkpoint(io.StringIO("".join(lines)))


def test_checkpoint_with_rows_past_the_header_is_rejected():
    # a header shrunk from 30 20 10 would otherwise split the rows wrongly:
    # g_j would start with g_i's last ten rows, and ten rows would be left over
    factors = random_factors(np.random.default_rng(4), (30, 20, 10), 2)
    buf = io.StringIO()
    save_checkpoint(factors, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    with pytest.raises(ValueError, match=r"line 52 follows the 50 factor rows the header promises"):
        load_checkpoint(io.StringIO("".join(["20 20 10 2\n"] + lines[1:])))
    with pytest.raises(ValueError, match=r"line 62 follows the 60 factor rows"):
        load_checkpoint(io.StringIO("".join(lines) + "\n"))


def test_checkpoint_without_rows_fails_at_line_2_whatever_the_header_promises():
    # the rows are checked as they are read, not after reading all the header promises
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"line 2 holds 0 of 4 values.* 300002 factor rows"):
            load_checkpoint(io.StringIO("300000 1 1 2\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("header", ["", "30 20 10\n", "30 20 10 two\n", "30 20 0 2\n"],
                         ids=["empty", "short", "non-integer", "zero"])
def test_unreadable_checkpoint_header_names_line_1(header):
    with pytest.raises(ValueError, match=r"line 1 must hold the positive integers I J N f"):
        load_checkpoint(io.StringIO(header + "0.5 0.5 0.5 0.5\n"))


# ---------------------------------------------------------------------------
# flags and their defaults


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


# sweep sets lambda1 and lambda2 from its grids, so it has flags for the rest
@pytest.mark.parametrize("command, flagged", [
    ("decompose", ["f_max", "lambda1", "lambda2", "s_max", "seed"]),
    ("sweep", ["f_max", "s_max", "seed"]),
], ids=["decompose", "sweep"])
def test_solver_flags_mirror_the_solver_config_fields(command, flagged):
    actions = _subparser(command)._actions
    config_fields = dataclasses.fields(SolverConfig)
    assert len(config_fields) == 5
    for field in config_fields:
        matching = [a for a in actions if a.dest == field.name]
        if field.name not in flagged:
            assert matching == []
            continue
        (action,) = matching
        assert action.option_strings == ["--" + field.name.replace("_", "-")]
        assert action.default == field.default
        assert action.type is type(field.default)
    argv = {"decompose": ["--checkpoint", "c", "--trace", "t"],
            "sweep": ["--lambda1-grid", "0", "--lambda2-grid", "0.1", "--out", "o"]}[command]
    args = cli.build_parser().parse_args(
        [command, "--events", "e", "--geometry", "2x2", "--frames", "1", *argv])
    assert cli._solver_config(args) == SolverConfig()


REMOVED_FLAGS = [(command, flag) for command in ("decompose", "sweep")
                 for flag in ("--grow-tol", "--conv-tol", "--init-scale")]
REMOVED_FLAGS += [("classify", "--svm-lambda"), ("classify", "--svm-epochs")]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_fixed_protocol_values_have_no_flag(capsys, command, flag):
    argv = {"decompose": ["--geometry", "2x2", "--frames", "1", "--checkpoint", "c",
                          "--trace", "t"],
            "sweep": ["--geometry", "2x2", "--frames", "1", "--lambda1-grid", "0",
                      "--lambda2-grid", "0.1", "--out", "o"],
            "classify": ["--checkpoint", "c", "--report", "r"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--events", "e", *argv, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose"])
def test_non_finite_solver_setting_exits_1(tmp_path, caplog, command):
    events = str(tmp_path / "events.csv")
    write_events_csv(STREAM, events)
    out = tmp_path / "out.txt"
    assert cli.main([command, "--events", events, "--geometry", "3x2", "--frames", "4",
                     "--checkpoint", str(out), "--trace", str(tmp_path / "trace.csv"),
                     "--lambda2", "nan"]) == 1
    assert "lambda2 must be finite" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("grids, named", [
    (["--lambda1-grid", "0.1", "--lambda2-grid", "0,0.1"], "lambda2 must be > 0"),
    (["--lambda1-grid", "nan", "--lambda2-grid", "0.1"], "lambda1 must be finite"),
], ids=["lambda2-0", "lambda1-nan"])
def test_sweep_refuses_a_bad_grid_point_before_the_first_solve(tmp_path, caplog, monkeypatch,
                                                               grids, named):
    # such a point once became a failed cell or a nan row, and the sweep exited 0
    events = str(tmp_path / "events.csv")
    write_events_csv(STREAM, events)
    solves = []
    monkeypatch.setattr(evaluation, "solve", lambda *args: solves.append(args))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--events", events, "--geometry", "3x2", "--frames", "4", *grids,
                     "--out", str(out)]) == 1
    assert named in caplog.text
    assert solves == [] and not out.exists()


@pytest.mark.parametrize("flag, value", [("--lambda1", "5"), ("--lambda2", "5"),
                                         ("--lambda2", "nan")],
                         ids=["lambda1-5", "lambda2-5", "lambda2-nan"])
def test_sweep_takes_its_lambdas_from_its_grids_alone(tmp_path, capsys, flag, value):
    # a lambda flag beside the grids would be checked, then overridden by each grid point
    events = str(tmp_path / "events.csv")
    write_events_csv(STREAM, events)
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--events", events, "--geometry", "3x2", "--frames", "4",
                  "--lambda1-grid", "0.1", "--lambda2-grid", "0.1", "--out", str(out),
                  flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


# each subcommand's full argv, and a flag's prefix to add to it
PREFIXES = {
    "gen": (["--spec", "s", "--out", "o"], "--sp", "s"),
    "bin": (["--events", "e", "--geometry", "2x2", "--frames", "1", "--out", "o"],
            "--geom", "64x48"),
    "decompose": (["--events", "e", "--geometry", "2x2", "--frames", "1", "--checkpoint", "c",
                   "--trace", "t"], "--check", "c"),
    "classify": (["--events", "e", "--checkpoint", "c", "--report", "r"], "--rep", "r"),
    "denoise": (["--events", "e", "--checkpoint", "c", "--out", "o", "--report", "r"],
                "--quant", "0.3"),
    "sweep": (["--events", "e", "--geometry", "2x2", "--frames", "1", "--lambda1-grid", "0",
               "--lambda2-grid", "0.1", "--out", "o"], "--lambda1", "5"),
}


@pytest.mark.parametrize("command", list(PREFIXES))
def test_no_flag_answers_to_a_prefix_of_its_name(capsys, command):
    argv, prefix, value = PREFIXES[command]
    assert cli.build_parser().parse_args([command, *argv]).command == command
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, *argv, prefix, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {prefix} {value}" in capsys.readouterr().err


def test_verbosity_takes_effect_on_every_main_call_in_one_process(tmp_path, caplog):
    # basicConfig does nothing once the root logger has a handler, as it has
    # after a first call (and under pytest), so its level= held for no later call
    argv = ["gen", "--spec", str(REF_SCENE), "--out", str(tmp_path / "events.csv")]
    evtensor_logger = logging.getLogger("evtensor")
    level = evtensor_logger.level
    try:
        for verbose, info in ([], False), (["-vv"], True), ([], False), (["-v"], True):
            caplog.clear()
            assert cli.main([*verbose, *argv]) == 0
            assert any(r.levelno == logging.INFO and r.getMessage().startswith("wrote ")
                       for r in caplog.records) == info, verbose
    finally:
        evtensor_logger.setLevel(level)


def test_the_top_parser_takes_no_prefix_and_counts_repeated_v(capsys):
    argv = ["gen", *PREFIXES["gen"][0]]
    assert cli.build_parser().parse_args(["-vv", *argv]).verbose == 2
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--verb", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verb" in capsys.readouterr().err


def test_denoise_takes_one_threshold_rule(tmp_path, capsys):
    out, report = tmp_path / "filtered.csv", tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["denoise", "--events", "e", "--checkpoint", "c", "--out", str(out),
                  "--report", str(report), "--tau", "0.1", "--quantile", "0.3"])
    assert exc.value.code == 2
    assert "argument --quantile: not allowed with argument --tau" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_the_trace_echoes_every_solver_setting(pipeline_dir):
    work, _ = pipeline_dir
    header = [line for line in (work / "trace.csv").read_text().splitlines()
              if line.startswith("# ")]
    echoed = dict(line[2:].split(": ", 1) for line in header)
    assert len(echoed) == len(header)
    assert echoed.pop("converged") in ("true", "false")
    cfg = SolverConfig(s_max=4, f_max=2)
    assert echoed == {**{f.name: str(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)},
                      "model": "ENTN"}


@pytest.mark.parametrize("geometry", ["0x48", "-3x5", "64x0", "64", "64x48x2", "ax4", ""])
def test_geometry_must_be_two_positive_integers(capsys, geometry):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["bin", "--events", "e", f"--geometry={geometry}",
                                       "--frames", "1", "--out", "o"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --geometry: geometry must be two positive integers, rows x cols" in err
    assert cli._parse_geometry("260x346") == (260, 346)


@pytest.mark.parametrize("grid", ["0,a", "x", "0.1;0.2"])
def test_a_grid_that_is_not_numbers_exits_2_naming_it(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--events", "e", "--geometry", "3x2", "--frames", "4",
                  "--lambda1-grid", "0.1", f"--lambda2-grid={grid}", "--out", "o"])
    assert exc.value.code == 2
    assert (f"argument --lambda2-grid: grid must be comma-separated numbers, got {grid!r}"
            in capsys.readouterr().err)


def test_gen_seed_overrides_the_scene_seed(tmp_path):
    spec = load_scene_spec(REF_SCENE)
    seeded = dataclasses.replace(spec, seed=spec.seed + 5)
    out, own = tmp_path / "seeded.csv", tmp_path / "own.csv"
    assert cli.main(["gen", "--spec", str(REF_SCENE), "--out", str(out),
                     "--seed", str(seeded.seed)]) == 0
    assert cli.main(["gen", "--spec", str(REF_SCENE), "--out", str(own)]) == 0
    expected = io.StringIO()
    write_events_csv(generate(seeded), expected)
    assert out.read_text(encoding="utf-8") == expected.getvalue()
    assert out.read_bytes() != own.read_bytes()
    assert out.with_suffix(".scene.cfg").read_text(encoding="utf-8") == scene_spec_to_ini(seeded)


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, as under ``evtensor bin ... | head -0``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_pipe_exits_0(tmp_path, monkeypatch, caplog):
    events, out = str(tmp_path / "events.csv"), tmp_path / "tensor.txt"
    write_events_csv(STREAM, events)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["bin", "--events", events, "--geometry", "3x2", "--frames", "4",
                     "--out", str(out)]) == 0
    assert out.exists() and not caplog.records


def test_the_project_script_is_the_cli_main():
    # tomllib is not in Python 3.10, the oldest supported
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (target,) = re.findall(r'^evtensor = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
    assert target == ("evtensor.cli", "main")
    assert callable(getattr(importlib.import_module(target[0]), target[1]))
