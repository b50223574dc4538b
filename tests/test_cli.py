"""The CLI end to end, and the path handling every reader and writer shares."""

import argparse
import dataclasses
import hashlib
import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evtensor import cli
from evtensor.denoise import filter_events, write_report_csv
from evtensor.evaluation import (
    SweepCell,
    SweepResult,
    load_model,
    save_model,
    train_svm,
    write_results_csv,
)
from evtensor.events import (
    EventStream,
    bin_to_tensor,
    parse_events,
    read_tensor_dump,
    write_events_csv,
    write_tensor_dump,
)
from evtensor.solver import SolverConfig, load_checkpoint, save_checkpoint, solve, write_trace_csv
from evtensor.synth import load_scene_spec, scene_spec_to_ini, two_object_scene

from oracles import random_factors

SMALL_SOLVE = ["--s-max", "4", "--f-max", "2"]


def run_pipeline(work: Path) -> dict[str, int]:
    """All six subcommands on the reference scene; returns each exit code."""
    p = {name: str(work / name) for name in (
        "scene.cfg", "events.csv", "tensor.txt", "ckpt.txt", "trace.csv", "objects.txt",
        "model.txt", "filtered.csv", "report.csv", "sweep.csv")}
    binning = ["--events", p["events.csv"], "--geometry", "64x48", "--frames", "60"]
    fitted = ["--events", p["events.csv"], "--checkpoint", p["ckpt.txt"]]
    Path(p["scene.cfg"]).write_text(scene_spec_to_ini(two_object_scene()), encoding="utf-8")
    argvs = {
        "gen": ["gen", "--spec", p["scene.cfg"], "--out", p["events.csv"]],
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
    assert cli.main(["classify", "--events", str(events), "--checkpoint", str(ckpt),
                     "--report", str(report)]) == 1
    assert f"classification needs a label column in {events}" in caplog.text
    assert not report.exists()


# ---------------------------------------------------------------------------
# readers and writers: str paths, pathlib.Path and odd file names


STREAM = EventStream(i=[0, 1, 2], j=[0, 1, 0], t=[0, 50, 100], geometry=(3, 2),
                     labels=[0, 1, -1])
TENSOR = bin_to_tensor(STREAM, 4)
FACTORS = random_factors(np.random.default_rng(3), (4, 5, 6), 2)
MODEL = train_svm(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.2]]), np.array([0, 1, 1]),
                  epochs=3)


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
    "results": (lambda p: write_results_csv(SweepResult([SweepCell(0.1, 0.1, 0.75, True, 3, 0.0)]),
                                            p),
                _text, lambda got: got.startswith("lambda1,lambda2,auc,converged,iters,seconds\n"
                                                  "0.1,0.1,0.75,true,3,0.000\n")),
    "model": (lambda p: save_model(MODEL, p), load_model,
              lambda got: np.array_equal(got.weights, MODEL.weights)),
    "report": (lambda p: write_report_csv(
                   STREAM, filter_events(STREAM, np.array([0.3, 0.2, 0.1]), 0.15)[1], p),
               _text, lambda got: got.splitlines()[1:] == ["0,0,0,0,0.29999999999999999,1",
                                                          "50,1,1,1,0.20000000000000001,1",
                                                          "100,2,0,-1,0.10000000000000001,0"]),
    "scene": (lambda p: Path(p).write_text(scene_spec_to_ini(two_object_scene())),
              load_scene_spec, lambda got: got == two_object_scene()),
}

# (function under test, artifact, which side of the round trip gets a pathlib.Path)
PATHLIB_CASES = [
    ("write_events_csv", "events", "write"), ("parse_events", "events", "read"),
    ("write_tensor_dump", "dump", "write"), ("read_tensor_dump", "dump", "read"),
    ("save_checkpoint", "checkpoint", "write"), ("load_checkpoint", "checkpoint", "read"),
    ("write_trace_csv", "trace", "write"), ("write_results_csv", "results", "write"),
    ("save_model", "model", "write"), ("load_model", "model", "read"),
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


@pytest.mark.parametrize("command", ["decompose", "sweep"])
def test_solver_flags_mirror_the_solver_config_fields(command):
    actions = _subparser(command)._actions
    config_fields = dataclasses.fields(SolverConfig)
    assert len(config_fields) == 5
    for field in config_fields:
        (action,) = [a for a in actions if a.dest == field.name]
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


@pytest.mark.parametrize("command", ["decompose", "sweep"])
def test_non_finite_solver_setting_exits_1(tmp_path, caplog, command):
    events = str(tmp_path / "events.csv")
    write_events_csv(STREAM, events)
    out = tmp_path / "out.txt"
    argv = {"decompose": ["--checkpoint", str(out), "--trace", str(tmp_path / "trace.csv")],
            "sweep": ["--lambda1-grid", "0", "--lambda2-grid", "0.1", "--out", str(out)]}[command]
    assert cli.main([command, "--events", events, "--geometry", "3x2", "--frames", "4",
                     *argv, "--lambda2", "nan"]) == 1
    assert "lambda2 must be finite" in caplog.text
    assert not out.exists()
