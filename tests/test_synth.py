import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evtensor.events import NOISE_LABEL, bin_to_tensor, tensor_density, write_events_csv
from evtensor.synth import (
    ObjectSpec,
    SceneSpec,
    describe,
    generate,
    load_scene_spec,
    scene_spec_to_ini,
)

from oracles import REF_SCENE, SCENES, generate_loop

DAVIS_SCENE = SCENES / "davis.cfg"


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
    spec = replace(load_scene_spec(REF_SCENE), seed=9)
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


def describe_bruteforce(spec):
    """Expected events and density by testing every pixel of every frame
    against every object's L-inf footprint, centred on its rounded position."""
    rows, cols = spec.geometry
    n_pix = rows * cols
    p_noise = 1.0 - math.exp(-spec.noise_per_frame / n_pix)
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    events = spec.noise_per_frame * spec.n_frames
    active = 0.0
    for n in range(spec.n_frames):
        miss = np.ones((rows, cols))
        for obj in spec.objects:
            ci, cj = (round(x) for x in obj.position(n + 0.5))
            covered = (abs(ii - ci) <= obj.footprint) & (abs(jj - cj) <= obj.footprint)
            events += obj.prob * covered.sum()
            miss = np.where(covered, miss * (1.0 - obj.prob), miss)
        active += (1.0 - miss * (1.0 - p_noise)).sum()
    return events, active / (n_pix * spec.n_frames)


def random_scene(rng):
    """A small scene: up to four objects of any kind, placed so that they
    overlap and leave the sensor, or none and noise alone."""
    rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
    objects = []
    for _ in range(int(rng.integers(0, 5))):
        objects.append(ObjectSpec(
            kind=str(rng.choice(["linear", "circular", "sinusoidal"])),
            start=(float(rng.uniform(-3, rows + 3)), float(rng.uniform(-3, cols + 3))),
            velocity=(float(rng.normal(0, 1.5)), float(rng.normal(0, 1.5))),
            radius=float(rng.uniform(0, 6)), freq=float(rng.uniform(0, 0.3)),
            phase=float(rng.uniform(0, 6.3)), footprint=int(rng.integers(0, 4)),
            prob=float(rng.choice([0.0, 1.0, rng.uniform()]))))
    noise = float(rng.choice([0.0, rng.uniform(0.1, 20.0)])) if objects else 3.0
    return SceneSpec(geometry=(rows, cols), n_frames=int(rng.integers(1, 7)),
                     duration_us=1000, objects=tuple(objects), noise_per_frame=noise)


def _clipped(obj, spec, n):
    """Whether the object's footprint leaves the sensor at frame n."""
    ci, cj = (round(x) for x in obj.position(n + 0.5))
    fp = obj.footprint
    return ci - fp < 0 or cj - fp < 0 or ci + fp >= spec.geometry[0] or cj + fp >= spec.geometry[1]


def test_describe_matches_a_per_pixel_brute_force():
    rng = np.random.default_rng(2024)
    kinds = {"overlap": 0, "clipped": 0, "noise_only": 0}
    for _ in range(300):
        spec = random_scene(rng)
        summary = describe(spec)
        events, density = describe_bruteforce(spec)
        assert summary.expected_events == pytest.approx(events, rel=1e-12, abs=1e-300)
        assert summary.expected_density == pytest.approx(density, rel=1e-12, abs=1e-300)
        assert type(summary.expected_density) is float
        kinds["noise_only"] += not spec.objects
        kinds["overlap"] += len(spec.objects) > 1
        kinds["clipped"] += any(
            any(_clipped(obj, spec, n) for obj in spec.objects) for n in range(spec.n_frames))
    assert min(kinds.values()) >= 20, kinds


def test_reference_scene_density_in_band():
    spec = load_scene_spec(REF_SCENE)
    stream = generate(spec)
    density = tensor_density(bin_to_tensor(stream, spec.n_frames))
    assert 0.004 <= density <= 0.008


def test_scene_ini_roundtrip():
    spec = replace(load_scene_spec(REF_SCENE), seed=11)
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
    assert loaded == spec


def test_a_key_left_out_takes_its_fields_default():
    # kind and duration_us, whose fields have no default, are linear and 1 s
    text = "[scene]\nrows = 8\ncols = 6\nframes = 3\n[object.0]\nstart = 4, 2\n"
    assert load_scene_spec(io.StringIO(text)) == SceneSpec(
        geometry=(8, 6), n_frames=3, duration_us=1_000_000,
        objects=(ObjectSpec(kind="linear", start=(4.0, 2.0)),))


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


@pytest.mark.parametrize("old, new, named", [
    ("\nnoise_per_frame =", "\nnoise_per_frme =", "'noise_per_frme' in [scene]"),
    ("\nvelocity =", "\nvelocty =", "'velocty' in [object.0]"),
    ("\n[object.1]", "\n[obect.1]", "[obect.1]"),
    ("\n[scene]", "\n[DEFAULT]\nprob = 0.5\n[scene]", "[DEFAULT]"),
], ids=["scene_key", "object_key", "section", "default_section"])
def test_an_unknown_scene_section_or_key_is_named(old, new, named):
    # unchecked, the misspellings drop the scene's noise, an object's motion
    # or an object, and [DEFAULT]'s keys land in every section
    text = (SCENES / "davis.cfg").read_text(encoding="utf-8")
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=re.escape(named)):
        load_scene_spec(io.StringIO(text.replace(old, new)))


@pytest.mark.parametrize("old, new, named", [
    ("\nradius = 80.0", "\nradius = abc", "key 'radius' in [object.1]: could not convert"),
    ("\nfootprint = 8\nprob = 0.8\n\n", "\nfootprint = 1.5\nprob = 0.8\n\n",
     "key 'footprint' in [object.0]: invalid literal for int()"),
    ("\nvelocity = 2.1, 3.0", "\nvelocity = a, b", "key 'velocity' in [object.0]: could not"),
    ("\nvelocity = 2.1, 3.0", "\nvelocity = 2.1", "key 'velocity' in [object.0]: needs 2 numbers"),
    ("\nseed = 7", "\nseed = 2.5", "key 'seed' in [scene]: invalid literal for int()"),
    ("\nframes = 100", "\nframes = 1e2", "key 'frames' in [scene]: invalid literal for int()"),
    ("\nnoise_per_frame = 115.6", "\nnoise_per_frame = 20%",
     "key 'noise_per_frame' in [scene]: could not convert string to float: '20%'"),
], ids=["radius", "footprint", "velocity", "velocity_count", "seed", "frames", "percent"])
def test_an_unreadable_scene_value_is_named(old, new, named):
    # each key is read as its field's type; a refused value once raised
    # numpy's or int()'s message alone, with no key or section, and a '%'
    # configparser's InterpolationSyntaxError, not even a ValueError
    text = (SCENES / "davis.cfg").read_text(encoding="utf-8")
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=re.escape(named)):
        load_scene_spec(io.StringIO(text.replace(old, new)))


@pytest.mark.parametrize("old, new, named", [
    ("\nprob = 0.8\n\n", "\nprob = 1.5\n\n", "[object.0]: emission probability must be in [0, 1]"),
    ("\nkind = circular", "\nkind = zig", "[object.1]: unknown trajectory kind 'zig'"),
    ("\nframes = 100", "\nframes = 0", "[scene]: a scene needs at least one frame"),
    ("\nseed = 7", "\nseed = -7", "[scene]: seed must be >= 0"),
], ids=["prob", "kind", "frames", "seed"])
def test_a_value_the_spec_refuses_is_named_with_its_section(old, new, named):
    # the spec's own message once came alone, naming neither section nor key
    text = (SCENES / "davis.cfg").read_text(encoding="utf-8")
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=re.escape(named)):
        load_scene_spec(io.StringIO(text.replace(old, new)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["start", "velocity", "radius", "freq", "phase",
                                  "noise_per_frame"])
def test_a_non_finite_scene_number_is_named(name, value):
    # unchecked, velocity = inf fails inside generate as an OverflowError, a
    # NaN start as int()'s unnamed error, a NaN noise rate as "lam is NaN"
    number = (value, 1.0) if name in ("start", "velocity") else value
    match = f"{name} must be finite"
    with pytest.raises(ValueError, match=match):
        if name == "noise_per_frame":
            SceneSpec(geometry=(8, 8), n_frames=3, duration_us=30, objects=(static_object(),),
                      noise_per_frame=number)
        else:
            ObjectSpec(kind="sinusoidal", **{"start": (4.0, 4.0), name: number})
    line = f"{name} = {value}" + (", 1.0" if name in ("start", "velocity") else "")
    text = ("[scene]\nrows = 8\ncols = 8\nframes = 3\nduration_us = 30\n"
            + (line if name == "noise_per_frame" else "") + "\n[object.0]\nkind = sinusoidal\n"
            + ("" if name == "noise_per_frame" else line + "\n")
            + ("" if name == "start" else "start = 4, 4\n"))
    with pytest.raises(ValueError, match=match):
        load_scene_spec(io.StringIO(text))


@pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2.0), True, "2"],
                         ids=["fraction", "whole_float", "numpy_float", "bool", "str"])
@pytest.mark.parametrize("name", ["footprint", "n_frames", "duration_us"])
def test_a_non_integer_scene_count_is_named(name, value):
    # unchecked, footprint = 1.5 generated a scene and n_frames = 2.5 failed
    # inside generate as "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        if name == "footprint":
            ObjectSpec(kind="linear", start=(1.0, 1.0), footprint=value)
        else:
            SceneSpec(**{"geometry": (8, 8), "n_frames": 2, "duration_us": 20,
                         "objects": (static_object(),), name: value})


def test_numpy_integer_scene_counts_are_accepted():
    obj = ObjectSpec(kind="linear", start=(1.0, 1.0), footprint=np.int64(1))
    spec = SceneSpec(geometry=(8, 8), n_frames=np.int32(2), duration_us=np.int64(20),
                     objects=(obj,))
    assert len(generate(spec)) > 0


OBJ = ObjectSpec(kind="linear", start=(1.0, 1.0))


@pytest.mark.parametrize("make, named", [
    (lambda: SceneSpec(geometry=(8, 8), n_frames=2, duration_us=20, objects=(OBJ,), seed=2.5),
     "seed must be an integer, got 2.5"),
    (lambda: SceneSpec(geometry=(8, 8), n_frames=2, duration_us=20, objects=(OBJ,), seed=True),
     "seed must be an integer, got True"),
    (lambda: SceneSpec(geometry=(8, 8), n_frames=2, duration_us=20, objects=(OBJ,), seed=-1),
     "seed must be >= 0"),
    (lambda: SceneSpec(geometry=(64.5, 48), n_frames=2, duration_us=20, objects=(OBJ,)),
     "geometry must be integers, got (64.5, 48)"),
    (lambda: SceneSpec(geometry=(64,), n_frames=2, duration_us=20, objects=(OBJ,)),
     "geometry must hold 2 entries, got (64,)"),
    (lambda: ObjectSpec(kind="linear", start=(1.0,)), "start must hold 2 entries, got (1.0,)"),
    (lambda: ObjectSpec(kind="linear", start=(1.0, 1.0), velocity=(1.0, 0.0, 2.0)),
     "velocity must hold 2 entries, got (1.0, 0.0, 2.0)"),
], ids=["seed_fraction", "seed_bool", "seed_negative", "geometry_fraction", "geometry_one",
        "start_one", "velocity_three"])
def test_a_spec_value_that_failed_later_is_named(make, named):
    # each was accepted: a fractional, bool or negative seed then failed in
    # SeedSequence or ran as seed 1, a 64.5-row scene was truncated to 64 rows
    # when binned, and a short geometry, start or a long velocity failed
    # while unpacking inside generate
    with pytest.raises(ValueError, match=re.escape(named)):
        make()


@pytest.mark.parametrize("footprint", [10 ** 7, np.int64(10 ** 12)], ids=["1e7", "numpy_1e12"])
def test_a_footprint_beyond_the_sensor_is_the_sensor(footprint, caplog):
    # the whole L-inf ball of a 10**7 footprint took 2.8 PiB of offsets (a
    # MemoryError) before it was clipped; only its part on the sensor is made
    def scene(radius):
        moving = ObjectSpec(kind="linear", start=(1.0, 6.0), velocity=(2.5, -1.0),
                            footprint=radius, prob=0.4)
        return SceneSpec(geometry=(8, 6), n_frames=3, duration_us=30, noise_per_frame=2.0,
                         objects=(moving, static_object(prob=0.5, footprint=1, start=(3.0, 2.0))))
    # a radius of 13 covers the sensor from every centre the object passes
    big, covering = scene(footprint), scene(13)
    with caplog.at_level("WARNING", logger="evtensor.synth"):
        a = generate(big)
    assert "object 0 footprint leaves the sensor" in caplog.text
    b = generate(covering)
    for name in ("t", "i", "j", "labels"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert describe(big) == describe(covering)


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


def position_three_branches(obj, midpoint):
    """Each trajectory kind's formula written out on its own."""
    i0, j0 = obj.start
    if obj.kind == "linear":
        return (i0 + obj.velocity[0] * midpoint, j0 + obj.velocity[1] * midpoint)
    if obj.kind == "circular":
        angle = 2.0 * math.pi * obj.freq * midpoint + obj.phase
        return (i0 + obj.radius * math.cos(angle), j0 + obj.radius * math.sin(angle))
    return (i0 + obj.velocity[0] * midpoint,
            j0 + obj.velocity[1] * midpoint
            + obj.radius * math.sin(2.0 * math.pi * obj.freq * midpoint + obj.phase))


# signed zeros among them, so that a drift can come out as -0.0
_coord = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@given(kind=st.sampled_from(["linear", "circular", "sinusoidal"]),
       start=st.tuples(_coord, _coord), velocity=st.tuples(_coord, _coord),
       radius=_coord, freq=_coord, phase=_coord,
       midpoint=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0, 1e4)))
def test_position_is_bit_identical_to_the_three_branch_formula(kind, start, velocity, radius,
                                                              freq, phase, midpoint):
    obj = ObjectSpec(kind=kind, start=start, velocity=velocity, radius=radius, freq=freq,
                     phase=phase)
    got, want = obj.position(midpoint), position_three_branches(obj, midpoint)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("kind", ["linear", "sinusoidal"])
def test_a_drift_of_minus_zero_is_the_three_branch_formulas(kind):
    # a linear drift stays -0.0; adding a 0.0 wobble to it would give +0.0
    obj = ObjectSpec(kind=kind, start=(-0.0, -0.0), velocity=(-0.0, -0.0))
    got = obj.position(0.5)
    assert [x.hex() for x in got] == [x.hex() for x in position_three_branches(obj, 0.5)]
    assert math.copysign(1.0, got[1]) == (-1.0 if kind == "linear" else 1.0)


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
    spec = {"two_objects": lambda: load_scene_spec(REF_SCENE),
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
