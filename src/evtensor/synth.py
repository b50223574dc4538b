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
import dataclasses
import logging
import math
import typing
from dataclasses import MISSING, dataclass, field

import numpy as np

from .errors import check_fields
from .events import NOISE_LABEL, EventStream, _check_geometry, compute_bin_edges, open_text

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
        """Kind, types by check_fields (a NaN or a one-entry start fails inside
        generate, a fractional footprint generates), then ranges."""
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        check_fields(self, integers=("footprint",),
                     finite=("start", "velocity", "radius", "freq", "phase"))
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("emission probability must be in [0, 1]")
        if self.footprint < 0:
            raise ValueError("footprint radius must be >= 0")

    def position(self, midpoint: float) -> tuple[float, float]:
        i0, j0 = self.start
        angle = 2.0 * math.pi * self.freq * midpoint + self.phase
        if self.kind == "circular":
            return (i0 + self.radius * math.cos(angle), j0 + self.radius * math.sin(angle))
        j = j0 + self.velocity[1] * midpoint
        if self.kind == "sinusoidal":
            j += self.radius * math.sin(angle)
        return (i0 + self.velocity[0] * midpoint, j)


@dataclass(frozen=True)
class SceneSpec:
    geometry: tuple[int, int]
    n_frames: int
    duration_us: int
    objects: tuple[ObjectSpec, ...] = field(default_factory=tuple)
    noise_per_frame: float = 0.0   # expected background events per frame
    seed: int = 0

    def __post_init__(self):
        """The geometry by the events module's one rule, the other types by
        check_fields (a fractional count generates, a bool seed fails inside
        generate), then ranges."""
        _check_geometry(self.geometry)
        check_fields(self, integers=("n_frames", "duration_us", "seed"), finite=("noise_per_frame",))
        if self.n_frames < 1:
            raise ValueError("a scene needs at least one frame")
        if self.duration_us < self.n_frames:
            raise ValueError("duration too short for the frame count")
        if self.noise_per_frame < 0:
            raise ValueError("noise rate must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.objects and self.noise_per_frame == 0:
            raise ValueError("a scene with no objects and no noise would be empty")


def _footprint_pixels(pos, footprint, geometry):
    """Pixels of the L-inf ball of radius `footprint` around pos that lie on
    the sensor, as row and column arrays (rows outer, columns inner), and
    the count clipped away. Only the part on the sensor is built."""
    rows, cols = geometry
    footprint, ci, cj = int(footprint), int(round(pos[0])), int(round(pos[1]))
    i = np.arange(max(ci - footprint, 0), min(ci + footprint + 1, rows))
    j = np.arange(max(cj - footprint, 0), min(cj + footprint + 1, cols))
    return np.repeat(i, j.size), np.tile(j, i.size), (2 * footprint + 1) ** 2 - i.size * j.size


def generate(spec: SceneSpec) -> EventStream:
    """Emit the scene as a labeled, time-sorted stream. Fully deterministic
    given the spec (per-frame substreams spawned from the scene seed).

    Per frame and object, one draw decides which footprint pixels fire and one
    draws the fired events' timestamps, in pixel order."""
    edges = compute_bin_edges(0, spec.duration_us, spec.n_frames)
    frame_rngs = [np.random.default_rng(s) for s in
                  np.random.SeedSequence(spec.seed).spawn(spec.n_frames)]
    rows, cols = spec.geometry
    ev_i, ev_j, ev_t, ev_label = [], [], [], []
    warned = set()

    for n in range(spec.n_frames):
        rng = frame_rngs[n]
        lo, hi = int(edges[n]), int(edges[n + 1])
        midpoint = n + 0.5
        for obj_id, obj in enumerate(spec.objects):
            pix_i, pix_j, clipped = _footprint_pixels(obj.position(midpoint), obj.footprint,
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


# ---------------------------------------------------------------------------
# scene file I/O


def _ini_keys(cls, defaults: dict, **keys) -> dict:
    """Key -> (type, default) of a scene file section for each field of the
    dataclass cls: `keys` names a field's key where it is not the field's
    name (None: no key), and `defaults` a field's default where it has none
    in cls. The default is MISSING where neither gives one."""
    hints = typing.get_type_hints(cls)
    return {keys.get(f.name, f.name): (hints[f.name], defaults.get(f.name, f.default))
            for f in dataclasses.fields(cls) if keys.get(f.name, f.name)}


# rows and cols are the geometry, and each object is a section of its own
_SCENE_KEYS = {"rows": (int, MISSING), "cols": (int, MISSING), **_ini_keys(
    SceneSpec, {"duration_us": 1_000_000}, geometry=None, n_frames="frames", objects=None)}
_OBJECT_KEYS = _ini_keys(ObjectSpec, {"kind": "linear"})


def _read_section(section, keys: dict, build):
    """build(**values), values the scene file section's keys, each read as its
    type in `keys`, a tuple from comma- or space-separated numbers, and a key
    the file leaves out at its default. A missing, unknown or unreadable key
    raises ValueError naming it and the section, and one that build raises is
    prefixed with the section."""
    required = {key for key, (_, default) in keys.items() if default is MISSING}
    for problem, names in (("unknown", set(section) - set(keys)), ("missing", required - set(section))):
        if names:
            raise ValueError(f"{problem} key {min(names)!r} in [{section.name}]")
    values = {key: default for key, (_, default) in keys.items() if key not in section}
    for key in section:
        hint, text = keys[key][0], section[key]
        types, parts = typing.get_args(hint), text.replace(",", " ").split()
        try:
            if types and len(parts) != len(types):
                raise ValueError(f"needs {len(types)} numbers, got {text!r}")
            values[key] = tuple(t(p) for t, p in zip(types, parts)) if types else hint(text)
        except ValueError as exc:
            raise ValueError(f"key {key!r} in [{section.name}]: {exc}") from None
    try:
        return build(**values)
    except ValueError as exc:
        raise ValueError(f"[{section.name}]: {exc}") from None


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

    An object may also set radius, freq and phase. Each key is read as the
    type of the spec field it sets. Any other section or key, and a value
    its type refuses, raises a ValueError naming it and its section, so that
    a misspelled one is not dropped; a value the spec refuses (prob = 1.5)
    raises the spec's ValueError prefixed with its section.
    """
    parser = configparser.ConfigParser(interpolation=None)  # a '%' is read as written
    with open_text(path_or_fh) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:  # a duplicate key or section, a line without '='
            raise ValueError(str(exc)) from None
    if "scene" not in parser:
        raise ValueError("scene file lacks a [scene] section")
    if parser.defaults():  # configparser would copy its keys into every section
        raise ValueError("unknown section [DEFAULT] in the scene file")
    objects = []
    for name in parser.sections():
        if name != "scene" and (not name.startswith("object.") or name == "object."):
            raise ValueError(f"unknown section [{name}] in the scene file")
        if name != "scene":
            objects.append(_read_section(parser[name], _OBJECT_KEYS, ObjectSpec))
    return _read_section(parser["scene"], _SCENE_KEYS, lambda rows, cols, frames, **v: SceneSpec(
        geometry=(rows, cols), n_frames=frames, objects=tuple(objects), **v))


def scene_spec_to_ini(spec: SceneSpec) -> str:
    """Render a spec back to the INI format (the `gen` command's spec echo),
    each section's keys as load_scene_spec reads them."""
    scene = {"rows": spec.geometry[0], "cols": spec.geometry[1], "frames": spec.n_frames}
    lines = []
    for name, keys, part in [("scene", _SCENE_KEYS, spec), *(
            (f"object.{k}", _OBJECT_KEYS, obj) for k, obj in enumerate(spec.objects))]:
        lines += ["", f"[{name}]"]
        for key, (hint, _) in keys.items():
            value = scene[key] if key in scene else getattr(part, key)
            text = ", ".join(f"{v}" for v in value) if typing.get_args(hint) else f"{value}"
            lines.append(f"{key} = {text}")
    return "\n".join(lines[1:]) + "\n"
