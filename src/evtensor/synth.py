"""Synthetic labeled DVS-like scenes: moving objects plus background noise.

A scene is a frame-by-frame emission process. Per frame, each object sits at
its trajectory position (evaluated at the frame midpoint) and every pixel of
its square footprint fires independently with the object's emission
probability; background noise adds a Poisson number of events uniform over
the whole sensor. Object events carry the object's id as label, noise events
carry -1. Timestamps are drawn uniformly inside the frame's time interval,
and each frame uses its own RNG substream so output does not depend on
evaluation order.

Trajectory kinds (positions in (row, col) = (i, j) pixels, frame index m at
the midpoint n + 0.5):

  linear:     start + velocity * m
  circular:   start is the orbit center; position = center +
              radius * (cos(2*pi*freq*m + phase), sin(2*pi*freq*m + phase))
  sinusoidal: row drifts linearly (start_i + velocity_i * m), column
              oscillates: start_j + velocity_j * m + radius * sin(2*pi*freq*m + phase)

Scene files are INI-style: a [scene] section, one [object.<id>] section per
object, see `load_scene_spec`.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .events import NOISE_LABEL, EventStream, compute_bin_edges, open_text

logger = logging.getLogger(__name__)

TRAJECTORY_KINDS = ("linear", "circular", "sinusoidal")


@dataclass(frozen=True)
class ObjectSpec:
    kind: str
    start: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0            # orbit radius (circular) / oscillation amplitude (sinusoidal)
    freq: float = 0.0              # cycles per frame
    phase: float = 0.0
    footprint: int = 1             # L-inf radius; square side 2*footprint+1
    prob: float = 0.8              # per-frame emission probability per footprint pixel

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("emission probability must be in [0, 1]")
        if self.footprint < 0:
            raise ValueError("footprint radius must be >= 0")

    def position(self, midpoint: float) -> tuple[float, float]:
        i0, j0 = self.start
        if self.kind == "linear":
            return (i0 + self.velocity[0] * midpoint, j0 + self.velocity[1] * midpoint)
        if self.kind == "circular":
            angle = 2.0 * math.pi * self.freq * midpoint + self.phase
            return (i0 + self.radius * math.cos(angle), j0 + self.radius * math.sin(angle))
        return (
            i0 + self.velocity[0] * midpoint,
            j0 + self.velocity[1] * midpoint
            + self.radius * math.sin(2.0 * math.pi * self.freq * midpoint + self.phase),
        )


@dataclass(frozen=True)
class SceneSpec:
    geometry: tuple[int, int]
    n_frames: int
    duration_us: int
    objects: tuple[ObjectSpec, ...] = field(default_factory=tuple)
    noise_per_frame: float = 0.0   # expected background events per frame
    seed: int = 0

    def __post_init__(self):
        if min(self.geometry) < 1:
            raise ValueError(f"geometry {self.geometry} needs at least one row and one column")
        if self.n_frames < 1:
            raise ValueError("a scene needs at least one frame")
        if self.duration_us < self.n_frames:
            raise ValueError("duration too short for the frame count")
        if self.noise_per_frame < 0:
            raise ValueError("noise rate must be >= 0")
        if not self.objects and self.noise_per_frame == 0:
            raise ValueError("a scene with no objects and no noise would be empty")


def _footprint_offsets(footprint):
    """(di, dj) offsets of the L-inf ball of radius `footprint`, di outer and
    dj inner."""
    r = np.arange(-footprint, footprint + 1)
    return np.repeat(r, r.size), np.tile(r, r.size)


def _footprint_pixels(pos, offsets, geometry):
    """Pixels of the footprint around pos that lie on the sensor, as row and
    column arrays in offset order, and the count clipped away."""
    rows, cols = geometry
    i = int(round(pos[0])) + offsets[0]
    j = int(round(pos[1])) + offsets[1]
    inside = (i >= 0) & (i < rows) & (j >= 0) & (j < cols)
    return i[inside], j[inside], inside.size - int(np.count_nonzero(inside))


def generate(spec: SceneSpec) -> EventStream:
    """Emit the scene as a labeled, time-sorted stream. Fully deterministic
    given the spec (per-frame substreams spawned from the scene seed).

    Per frame and object, one draw decides which footprint pixels fire and one
    draws the fired events' timestamps, in pixel order."""
    edges = compute_bin_edges(0, spec.duration_us, spec.n_frames)
    frame_rngs = [np.random.default_rng(s) for s in
                  np.random.SeedSequence(spec.seed).spawn(spec.n_frames)]
    rows, cols = spec.geometry
    offsets = [_footprint_offsets(obj.footprint) for obj in spec.objects]
    ev_i, ev_j, ev_t, ev_label = [], [], [], []
    warned = set()

    for n in range(spec.n_frames):
        rng = frame_rngs[n]
        lo, hi = int(edges[n]), int(edges[n + 1])
        midpoint = n + 0.5
        for obj_id, obj in enumerate(spec.objects):
            pix_i, pix_j, clipped = _footprint_pixels(obj.position(midpoint), offsets[obj_id],
                                                      spec.geometry)
            if clipped and obj_id not in warned:
                warned.add(obj_id)
                logger.warning(
                    "object %d footprint leaves the sensor at frame %d; clipping",
                    obj_id, n,
                )
            if not pix_i.size:
                continue
            fires = rng.random(pix_i.size) < obj.prob
            n_fired = int(np.count_nonzero(fires))
            if n_fired:
                ev_i.append(pix_i[fires])
                ev_j.append(pix_j[fires])
                ev_t.append(rng.integers(lo, hi, size=n_fired))
                ev_label.append(np.full(n_fired, obj_id))
        n_noise = int(rng.poisson(spec.noise_per_frame))
        if n_noise:
            ev_i.append(rng.integers(0, rows, size=n_noise))
            ev_j.append(rng.integers(0, cols, size=n_noise))
            ev_t.append(rng.integers(lo, hi, size=n_noise))
            ev_label.append(np.full(n_noise, NOISE_LABEL))

    if not ev_t:
        raise ValueError("scene produced zero events; raise probabilities or noise rate")
    return EventStream(
        i=np.concatenate(ev_i), j=np.concatenate(ev_j), t=np.concatenate(ev_t),
        geometry=spec.geometry, labels=np.concatenate(ev_label),
        t_min=0, t_max=spec.duration_us,
    )


@dataclass(frozen=True)
class SceneSummary:
    expected_events: float
    expected_density: float


def describe(spec: SceneSpec) -> SceneSummary:
    """Closed-form expectations: total emitted events, and the expected
    fraction of distinct (i, j, frame) cells activated (duplicates collapse
    under binarization, so density is below the raw event rate)."""
    rows, cols = spec.geometry
    n_pix = rows * cols
    # probability a given pixel sees >= 1 noise event in one frame
    p_noise = 1.0 - math.exp(-spec.noise_per_frame / n_pix) if n_pix else 0.0

    expected_events = spec.noise_per_frame * spec.n_frames
    expected_active = 0.0
    for n in range(spec.n_frames):
        midpoint = n + 0.5
        obj_prob: dict[tuple[int, int], float] = {}
        for obj in spec.objects:
            pix_i, pix_j, _ = _footprint_pixels(obj.position(midpoint),
                                                _footprint_offsets(obj.footprint), spec.geometry)
            expected_events += obj.prob * pix_i.size
            for p in zip(pix_i.tolist(), pix_j.tolist()):
                keep = obj_prob.get(p, 1.0)
                obj_prob[p] = keep * (1.0 - obj.prob)
        # footprint cells: miss if all covering objects miss and noise misses
        quiet = 1.0 - p_noise
        for p, miss in obj_prob.items():
            expected_active += 1.0 - miss * quiet
        expected_active += (n_pix - len(obj_prob)) * p_noise
    return SceneSummary(
        expected_events=expected_events,
        expected_density=expected_active / (n_pix * spec.n_frames),
    )


# ---------------------------------------------------------------------------
# scene file I/O and the frozen reference scene


def load_scene_spec(path_or_fh) -> SceneSpec:
    """Read an INI scene file.

    ::

        [scene]
        rows = 64
        cols = 48
        frames = 60
        duration_us = 1000000
        noise_per_frame = 3.5
        seed = 7

        [object.0]
        kind = linear
        start = 16, 6
        velocity = 0.0, 0.6
        footprint = 1
        prob = 0.8
    """
    parser = configparser.ConfigParser()
    with open_text(path_or_fh) as fh:
        parser.read_file(fh)
    if "scene" not in parser:
        raise ValueError("scene file lacks a [scene] section")
    sc = parser["scene"]
    for key in ("rows", "cols", "frames"):
        if key not in sc:
            raise ValueError(f"missing key {key!r} in [scene]")

    def pair(section, key, default=None):
        if key not in section:
            if default is None:
                raise ValueError(f"missing key {key!r} in [{section.name}]")
            return default
        parts = [float(v) for v in section[key].replace(",", " ").split()]
        if len(parts) != 2:
            raise ValueError(f"key {key!r} in [{section.name}] needs two numbers")
        return (parts[0], parts[1])

    objects = []
    for name in parser.sections():
        if not name.startswith("object"):
            continue
        sec = parser[name]
        objects.append(ObjectSpec(
            kind=sec.get("kind", "linear"),
            start=pair(sec, "start"),
            velocity=pair(sec, "velocity", (0.0, 0.0)),
            radius=sec.getfloat("radius", 0.0),
            freq=sec.getfloat("freq", 0.0),
            phase=sec.getfloat("phase", 0.0),
            footprint=sec.getint("footprint", 1),
            prob=sec.getfloat("prob", 0.8),
        ))
    return SceneSpec(
        geometry=(sc.getint("rows"), sc.getint("cols")),
        n_frames=sc.getint("frames"),
        duration_us=sc.getint("duration_us", 1_000_000),
        objects=tuple(objects),
        noise_per_frame=sc.getfloat("noise_per_frame", 0.0),
        seed=sc.getint("seed", 0),
    )


def scene_spec_to_ini(spec: SceneSpec) -> str:
    """Render a spec back to the INI format (the `gen` command's spec echo)."""
    lines = [
        "[scene]",
        f"rows = {spec.geometry[0]}",
        f"cols = {spec.geometry[1]}",
        f"frames = {spec.n_frames}",
        f"duration_us = {spec.duration_us}",
        f"noise_per_frame = {spec.noise_per_frame}",
        f"seed = {spec.seed}",
    ]
    for k, obj in enumerate(spec.objects):
        lines += [
            "",
            f"[object.{k}]",
            f"kind = {obj.kind}",
            f"start = {obj.start[0]}, {obj.start[1]}",
            f"velocity = {obj.velocity[0]}, {obj.velocity[1]}",
            f"radius = {obj.radius}",
            f"freq = {obj.freq}",
            f"phase = {obj.phase}",
            f"footprint = {obj.footprint}",
            f"prob = {obj.prob}",
        ]
    return "\n".join(lines) + "\n"


def two_object_scene(noise_fraction: float = 0.2, seed: int = 7) -> SceneSpec:
    """The desk-scale reference scene: 64x48 sensor, 60 frames, one object
    sweeping along a row and one orbiting in the lower half, with background
    noise sized to the requested fraction of total events. Emission parameters
    were tuned once so the binned density lands near 0.6%."""
    if not 0.0 <= noise_fraction < 1.0:
        raise ValueError("noise fraction must be in [0, 1)")
    objects = (
        ObjectSpec(kind="linear", start=(14.0, 6.0), velocity=(0.05, 0.58),
                   footprint=1, prob=0.8),
        ObjectSpec(kind="circular", start=(44.0, 24.0), radius=10.0,
                   freq=1.0 / 60.0, phase=0.0, footprint=1, prob=0.8),
    )
    object_rate = sum(o.prob * (2 * o.footprint + 1) ** 2 for o in objects)
    noise_rate = noise_fraction / (1.0 - noise_fraction) * object_rate
    return SceneSpec(
        geometry=(64, 48), n_frames=60, duration_us=1_000_000,
        objects=objects, noise_per_frame=noise_rate, seed=seed,
    )
