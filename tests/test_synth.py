import io
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evtensor.events import NOISE_LABEL, bin_to_tensor, tensor_density, write_events_csv
from evtensor.synth import (
    ObjectSpec,
    SceneSpec,
    describe,
    generate,
    load_scene_spec,
    scene_spec_to_ini,
    two_object_scene,
)

from oracles import generate_loop

DAVIS_SCENE = Path(__file__).resolve().parents[1] / "perfbench" / "scenes" / "davis.cfg"


def static_object(prob=1.0, footprint=0, start=(5.0, 5.0)):
    return ObjectSpec(kind="linear", start=start, velocity=(0.0, 0.0),
                      footprint=footprint, prob=prob)


def test_static_single_pixel_object_emits_one_event_per_frame():
    spec = SceneSpec(geometry=(16, 16), n_frames=10, duration_us=10_000,
                     objects=(static_object(),), noise_per_frame=0.0, seed=1)
    stream = generate(spec)
    assert len(stream) == 10
    assert set(stream.i.tolist()) == {5} and set(stream.j.tolist()) == {5}
    assert set(stream.labels.tolist()) == {0}


def test_no_noise_means_only_object_labels():
    spec = SceneSpec(geometry=(16, 16), n_frames=20, duration_us=20_000,
                     objects=(static_object(prob=0.5, footprint=1),),
                     noise_per_frame=0.0, seed=2)
    stream = generate(spec)
    assert (stream.labels >= 0).all()


def test_scene_with_nothing_to_emit_rejected():
    with pytest.raises(ValueError):
        SceneSpec(geometry=(8, 8), n_frames=5, duration_us=5000)


@pytest.mark.parametrize("geometry", [(0, 4), (4, -1), (0, 0)])
def test_scene_without_a_row_or_column_rejected(geometry):
    # numpy's "high <= 0" from inside generate named no geometry
    with pytest.raises(ValueError, match=re.escape(f"geometry {geometry}")):
        SceneSpec(geometry=geometry, n_frames=5, duration_us=5000,
                  objects=(static_object(),))
    rows, cols = geometry
    text = f"[scene]\nrows = {rows}\ncols = {cols}\nframes = 5\n\n[object.0]\nstart = 1, 1\n"
    with pytest.raises(ValueError, match=re.escape(f"geometry {geometry}")):
        load_scene_spec(io.StringIO(text))


def test_zero_probability_scene_raises_on_empty_output():
    spec = SceneSpec(geometry=(8, 8), n_frames=5, duration_us=5000,
                     objects=(static_object(prob=0.0),), seed=0)
    with pytest.raises(ValueError):
        generate(spec)


def test_generation_is_byte_deterministic():
    spec = two_object_scene(noise_fraction=0.2, seed=9)
    a, b = io.StringIO(), io.StringIO()
    write_events_csv(generate(spec), a)
    write_events_csv(generate(spec), b)
    assert a.getvalue() == b.getvalue()
    c = io.StringIO()
    write_events_csv(generate(replace(spec, seed=10)), c)
    assert a.getvalue() != c.getvalue()


def test_every_event_labeled_and_object_events_near_trajectory():
    spec = SceneSpec(
        geometry=(32, 32), n_frames=12, duration_us=12_000,
        objects=(ObjectSpec(kind="linear", start=(4.0, 4.0), velocity=(1.0, 1.0),
                            footprint=1, prob=0.9),),
        noise_per_frame=2.0, seed=4,
    )
    stream = generate(spec)
    assert stream.has_labels
    assert set(np.unique(stream.labels)) <= {NOISE_LABEL, 0}
    # map each event back to its frame and check footprint distance
    frame_width = spec.duration_us / spec.n_frames
    obj = spec.objects[0]
    for k in np.flatnonzero(stream.labels == 0):
        n = min(int(stream.t[k] // frame_width), spec.n_frames - 1)
        pi, pj = obj.position(n + 0.5)
        assert abs(stream.i[k] - round(pi)) <= obj.footprint
        assert abs(stream.j[k] - round(pj)) <= obj.footprint


def test_out_of_bounds_trajectory_clips_and_warns(caplog):
    spec = SceneSpec(
        geometry=(16, 16), n_frames=8, duration_us=8000,
        objects=(ObjectSpec(kind="circular", start=(8.0, 8.0), radius=9.0,
                            freq=0.125, footprint=1, prob=1.0),),
        seed=3,
    )
    with caplog.at_level("WARNING", logger="evtensor.synth"):
        stream = generate(spec)
    assert any("clipping" in rec.message for rec in caplog.records)
    assert stream.i.min() >= 0 and stream.i.max() < 16
    assert stream.j.min() >= 0 and stream.j.max() < 16


def test_describe_closed_forms():
    spec = SceneSpec(geometry=(16, 16), n_frames=10, duration_us=10_000,
                     objects=(static_object(),), noise_per_frame=0.0, seed=1)
    assert describe(spec).expected_events == pytest.approx(10.0)

    noisy = SceneSpec(geometry=(16, 16), n_frames=10, duration_us=10_000,
                      noise_per_frame=2.5, seed=1)
    assert describe(noisy).expected_events == pytest.approx(25.0)


def test_describe_matches_monte_carlo_mean():
    spec = SceneSpec(
        geometry=(16, 12), n_frames=20, duration_us=20_000,
        objects=(
            ObjectSpec(kind="linear", start=(3.0, 2.0), velocity=(0.2, 0.4),
                       footprint=1, prob=0.6),
            ObjectSpec(kind="sinusoidal", start=(10.0, 6.0), velocity=(0.0, 0.1),
                       radius=2.0, freq=0.1, footprint=0, prob=0.9),
        ),
        noise_per_frame=1.5, seed=0,
    )
    counts = []
    densities = []
    for seed in range(50):
        stream = generate(replace(spec, seed=seed))
        counts.append(len(stream))
        densities.append(tensor_density(bin_to_tensor(stream, spec.n_frames)))
    summary = describe(spec)
    sem_count = np.std(counts) / math.sqrt(len(counts))
    sem_dens = np.std(densities) / math.sqrt(len(densities))
    assert abs(np.mean(counts) - summary.expected_events) <= 3 * sem_count
    assert abs(np.mean(densities) - summary.expected_density) <= 3 * sem_dens


def test_reference_scene_density_in_band():
    spec = two_object_scene(noise_fraction=0.2, seed=7)
    stream = generate(spec)
    density = tensor_density(bin_to_tensor(stream, spec.n_frames))
    assert 0.004 <= density <= 0.008


def test_reference_scene_noise_fraction_tracks_request():
    spec = two_object_scene(noise_fraction=0.3, seed=1)
    stream = generate(spec)
    frac = float((stream.labels == NOISE_LABEL).mean())
    assert 0.2 <= frac <= 0.4


def test_scene_ini_roundtrip():
    spec = two_object_scene(noise_fraction=0.25, seed=11)
    text = scene_spec_to_ini(spec)
    loaded = load_scene_spec(io.StringIO(text))
    assert loaded.geometry == spec.geometry
    assert loaded.n_frames == spec.n_frames
    assert loaded.seed == spec.seed
    assert loaded.noise_per_frame == pytest.approx(spec.noise_per_frame)
    assert len(loaded.objects) == len(spec.objects)
    for a, b in zip(loaded.objects, spec.objects):
        assert a.kind == b.kind
        assert a.start == b.start
        assert a.prob == b.prob


def test_scene_file_errors():
    with pytest.raises(ValueError):
        load_scene_spec(io.StringIO("[scene]\nrows = 4\n"))  # missing keys
    with pytest.raises(ValueError):
        load_scene_spec(io.StringIO("[other]\nx = 1\n"))  # no [scene]
    bad_obj = "[scene]\nrows=8\ncols=8\nframes=4\nduration_us=4000\n" \
              "[object.0]\nkind=linear\nprob=0.5\n"
    with pytest.raises(ValueError) as err:
        load_scene_spec(io.StringIO(bad_obj))
    assert "start" in str(err.value)


def test_object_spec_validation():
    with pytest.raises(ValueError):
        ObjectSpec(kind="warp", start=(0, 0))
    with pytest.raises(ValueError):
        ObjectSpec(kind="linear", start=(0, 0), prob=1.5)
    with pytest.raises(ValueError):
        ObjectSpec(kind="linear", start=(0, 0), footprint=-1)


def test_trajectory_positions():
    lin = ObjectSpec(kind="linear", start=(2.0, 3.0), velocity=(1.0, -0.5))
    assert lin.position(4.0) == (6.0, 1.0)
    circ = ObjectSpec(kind="circular", start=(10.0, 10.0), radius=5.0, freq=0.25)
    pi, pj = circ.position(0.0)
    assert pi == pytest.approx(15.0) and pj == pytest.approx(10.0)
    pi, pj = circ.position(1.0)  # quarter turn
    assert pi == pytest.approx(10.0, abs=1e-9) and pj == pytest.approx(15.0)
    sin = ObjectSpec(kind="sinusoidal", start=(0.0, 0.0), velocity=(1.0, 0.0),
                     radius=2.0, freq=0.25)
    pi, pj = sin.position(1.0)
    assert pi == pytest.approx(1.0) and pj == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the per-(frame, object) draws against the event-at-a-time oracle


CLIPPED_SCENE = SceneSpec(
    geometry=(16, 16), n_frames=8, duration_us=8000,
    objects=(ObjectSpec(kind="circular", start=(8.0, 8.0), radius=9.0,
                        freq=0.125, footprint=1, prob=1.0),
             ObjectSpec(kind="linear", start=(0.0, 15.0), velocity=(0.5, 0.0),
                        footprint=2, prob=0.7)),
    noise_per_frame=1.5, seed=3,
)
SINUSOIDAL_SCENE = SceneSpec(
    geometry=(24, 20), n_frames=15, duration_us=15_000,
    objects=(ObjectSpec(kind="sinusoidal", start=(4.0, 10.0), velocity=(1.1, 0.0),
                        radius=4.0, freq=0.2, phase=0.3, footprint=1, prob=0.6),),
    noise_per_frame=0.7, seed=12,
)


@pytest.mark.parametrize("scene", ["two_objects", "davis", "clipped", "sinusoidal"])
def test_generate_equals_the_event_loop_oracle(scene):
    spec = {"two_objects": two_object_scene,
            "davis": lambda: load_scene_spec(DAVIS_SCENE),
            "clipped": lambda: CLIPPED_SCENE,
            "sinusoidal": lambda: SINUSOIDAL_SCENE}[scene]()
    got, expected = generate(spec), generate_loop(spec)
    for name in ("t", "i", "j", "labels"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
        assert getattr(got, name).dtype == np.int64
    assert (got.t_min, got.t_max) == (expected.t_min, expected.t_max)


def test_clipping_warns_once_per_object(caplog):
    with caplog.at_level("WARNING", logger="evtensor.synth"):
        generate(CLIPPED_SCENE)
    warnings = [rec.getMessage() for rec in caplog.records if "clipping" in rec.getMessage()]
    assert len(warnings) == 2
    assert {w.split()[1] for w in warnings} == {"0", "1"}
