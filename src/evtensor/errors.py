"""Exception types shared across the toolkit, and the specs' one field check."""

import typing

import numpy as np


class EventParseError(ValueError):
    """A record in an event file could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class GeometryError(ValueError):
    """An event coordinate lies outside the declared sensor geometry."""


class EmptyStreamError(ValueError):
    """A stream with zero events cannot be binned or processed."""


class ShapeError(ValueError):
    """Tensor/factor dimensions are inconsistent."""


class NumericalError(RuntimeError):
    """A linear solve produced or received non-finite values. Carries the iteration index."""

    def __init__(self, iteration, message):
        self.iteration = iteration
        super().__init__(f"iteration {iteration}: {message}")


class ProtocolError(ValueError):
    """The evaluation protocol cannot proceed (empty split, single class, missing labels)."""


class ConsistencyError(ValueError):
    """Event coordinates do not match the factor/tensor dimensions they are paired with."""


def is_integer(value) -> bool:
    """The package's integer rule: an int or np.integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fields(spec, integers=(), finite=(), **values):
    """Raise a ValueError naming the first field of the dataclass `spec` that
    breaks its rule: in `integers`, :func:`is_integer`; in
    `finite`, neither inf nor NaN. A field typed ``tuple[int, int]`` must
    hold two entries, each held to the rule. A field named in `values` is
    checked at that value, so `spec` may be the dataclass, before one is built."""
    hints = typing.get_type_hints(spec if isinstance(spec, type) else type(spec))
    for name in (*integers, *finite):
        value = values[name] if name in values else getattr(spec, name)
        size = len(typing.get_args(hints[name]))
        entries = value if size and isinstance(value, (tuple, list)) else (value,)
        if size and len(entries) != size:
            raise ValueError(f"{name} must hold {size} entries, got {value!r}")
        if name in integers and not all(map(is_integer, entries)):
            raise ValueError(f"{name} must be {'integers' if size else 'an integer'}, got {value!r}")
        if name in finite and not np.all(np.isfinite(entries)):
            raise ValueError(f"{name} must be finite, got {value}")
