"""Event stream parsing, validation, and binning into binary 3rd-order tensors.

An event is a (i, j, t) triple: row pixel, column pixel, microsecond
timestamp, optionally tagged with a small-integer class label (objects get
ids 0, 1, ...; background noise is labeled -1). A recording over an I x J
sensor becomes a binary (I, J, N) tensor by cutting the recording's time
range into N near-equal integer-width bins and setting entry (i, j, n) to 1
when at least one event hit pixel (i, j) during bin n. An EventTensor holds
only those 1-cells, as sorted flat indices: events are sparse in space, and
at DAVIS scale the 57.8k cells stand for 9 million entries. Its dense array
is built only when `EventTensor.data` is read: by no function here, but by
perfbench/child.py's ``fit_rel_err`` and neighbour baseline.
It is the one form of E that the solver and :func:`write_tensor_dump` take.

Canonical interchange format is CSV with header ``t,i,j[,label][,polarity]``
(decimal integers, one event per line); a trailing polarity column is
accepted and ignored. The CSV does not carry the recording window, so a
parsed stream bins over its first to last timestamp, which may be narrower
than the window its events were made in. :func:`parse_events` reads the
body as its UTF-8 bytes. With every digit, sign and blank (space, tab,
carriage return) deleted, they must be n lines of the header's commas: that
skeleton proves the line structure and counts the events. ``np.fromstring``
then fills one (n, columns) int64 array a block of whole lines at a time,
and its columns, as views, make the :class:`EventStream`: its checks are the
one statement of the event rules. Input that this decode or those checks
refuse is read line by line instead: any malformed, negative-time or
out-of-geometry record; a field that fromstring reads otherwise than
``int()`` (blanks or a sign alone, a sign apart from its digits, a value at
or beyond an int64 bound); and also blank lines, spellings that only
``int()`` takes (``1_000``) and a polarity field that is not an integer,
which that path accepts. Only then is the body decoded back to text and
split into lines, as ``readlines()`` splits it, so the line numbers it
reports are the file's.

Each data table -- the event CSV, the checkpoint, the trace and the denoise
report -- is one :func:`write_rows` call: it opens the file, writes the
table's header, then its rows a :func:`tensor_ops.row_blocks` block at a
time, so no writer holds event-sized text. The model file, the sweep CSV,
the classify report and the echoes, none of them event-sized, are formatted
with ``%`` or f-strings. A block is one (units, rows) uint16 array whose
two-byte units are each written for all rows at once from tables of digit
pairs: an integer field is as many units as its widest ``%d``, a ``%.17g``
field 23 (a head of sign and ``0.000``, 18 digits each with a slot for a
point, an exponent), a separator one; the 0 bytes a field leaves are dropped
as the rows are read out. The tensor dump is a template of ``0`` digits with
``1`` written at each frame's cells.

Every reader and writer in the package takes a path (``str`` or any
``os.PathLike``), opened as UTF-8 text, or an already open text stream, which
is used as is; :func:`open_text` is that one rule. Inline CSV text is read by
wrapping it in ``io.StringIO``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConsistencyError, EmptyStreamError, EventParseError, GeometryError,
                     check_fields, is_integer)
from .tensor_ops import CooPlan, row_blocks

NOISE_LABEL = -1

_KNOWN_COLUMNS = ("t", "i", "j", "label", "polarity")

# bytes a cell takes while write_rows writes it, its text included (measured:
# 20-60 for an integer, 140-170 for a float)
_INT_CELL_BYTES = 32
_FLOAT_CELL_BYTES = 160
# body text parse_events decodes per np.fromstring call: its peak is the raw
# text, the (n, columns) body and a few copies of one block
_DECODE_BLOCK_BYTES = 1 << 15
_INT64 = np.iinfo(np.int64)


@contextlib.contextmanager
def open_text(path_or_fh, mode: str = "r"):
    """Open a ``str``/``os.PathLike`` path as UTF-8 text (closed on exit);
    pass any other object through as an already open text stream."""
    if isinstance(path_or_fh, (str, os.PathLike)):
        with open(path_or_fh, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield path_or_fh


def _int_array(name: str, values) -> np.ndarray:
    """`values` as int64; a non-empty array of a kind other than signed or
    unsigned integer (bool too), which the cast would truncate, is refused."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got {values.dtype} values")
    return values.astype(np.int64, copy=False)


def _header_ints(fh, names: str) -> list[int]:
    """Line 1 of a text artifact: one positive integer per name in `names`."""
    line = fh.readline()
    values = [int(v) if v.isdecimal() else 0 for v in line.split()]
    if len(values) != len(names.split()) or 0 in values:
        raise ValueError(f"line 1 must hold the positive integers {names}, got {line.strip()!r}")
    return values


@dataclass
class EventStream:
    """A time-sorted event recording over a fixed sensor geometry.

    `t_min`/`t_max` default to the event extremes but may be declared wider
    (the recording window can start before the first event and end after the
    last one).
    """

    i: np.ndarray
    j: np.ndarray
    t: np.ndarray
    geometry: tuple[int, int]
    labels: np.ndarray | None = None
    t_min: int = field(default=None)  # type: ignore[assignment]
    t_max: int = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.i, self.j, self.t = (_int_array(name, getattr(self, name)) for name in "ijt")
        if self.labels is not None:
            self.labels = _int_array("labels", self.labels)
            if self.labels.shape != self.t.shape:
                raise ValueError("labels must align with events")
        if not (self.i.shape == self.j.shape == self.t.shape):
            raise ValueError("i, j, t arrays must have equal length")
        if len(self.t) == 0:
            raise EmptyStreamError("a stream with zero events cannot be processed")
        _check_geometry(self.geometry)
        rows, cols = self.geometry
        if self.i.min() < 0 or self.i.max() >= rows:
            raise GeometryError(f"row index outside [0, {rows})")
        if self.j.min() < 0 or self.j.max() >= cols:
            raise GeometryError(f"column index outside [0, {cols})")
        if self.t.min() < 0:
            raise ValueError("timestamps must be non-negative")
        # enforce time ordering (stable, so equal timestamps keep input order);
        # sorted input, as every CSV the package writes is, skips the sort
        if not np.all(self.t[1:] >= self.t[:-1]):
            order = np.argsort(self.t, kind="stable")
            self.i = self.i[order]
            self.j = self.j[order]
            self.t = self.t[order]
            if self.labels is not None:
                self.labels = self.labels[order]
        check_fields(self, integers=[k for k in ("t_min", "t_max") if getattr(self, k) is not None])
        self.t_min = int(self.t[0] if self.t_min is None else self.t_min)
        self.t_max = int(self.t[-1] if self.t_max is None else self.t_max)
        if self.t_min > int(self.t[0]) or self.t_max < int(self.t[-1]):
            raise ValueError("declared [t_min, t_max] must cover all event timestamps")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def has_labels(self) -> bool:
        return self.labels is not None


def _check_geometry(geometry) -> None:
    """The one geometry rule, of EventStream, parse_events and synth.SceneSpec:
    two integers (EventStream's ``tuple[int, int]`` hint), each at least 1."""
    check_fields(EventStream, integers=("geometry",), geometry=geometry)
    if min(geometry) < 1:
        raise ValueError(f"geometry {geometry} needs at least one row and one column")


@dataclass
class EventTensor:
    """A binary (I, J, N) tensor held as its 1-cells, plus the bin edges that
    produced it. `cells` are the sorted, distinct C-order flat indices
    (i * J + j) * N + n of the cells that are 1."""

    cells: np.ndarray
    dims: tuple[int, int, int]
    bin_edges: np.ndarray

    def __post_init__(self):
        self.cells = _int_array("cells", self.cells)
        self.bin_edges = _int_array("bin_edges", self.bin_edges)
        check_fields(self, integers=("dims",))
        self.dims = tuple(int(d) for d in self.dims)
        cells = self.cells
        if cells.ndim != 1 or np.any(cells[1:] <= cells[:-1]) or (
                len(cells) and (cells[0] < 0 or cells[-1] >= math.prod(self.dims))):
            raise ValueError("cells must be ascending, distinct flat indices inside the tensor")
        if len(self.bin_edges) != self.dims[2] + 1:
            raise ValueError("bin_edges must have N+1 entries")
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing")

    @property
    def data(self) -> np.ndarray:
        """The dense uint8 (I, J, N) array, built anew on each read; no package
        code reads it, but perfbench/child.py's fit_rel_err and neighbour baseline do."""
        data = np.zeros(self.dims, dtype=np.uint8)
        data.reshape(-1)[self.cells] = 1
        return data


def parse_events(source, geometry: tuple[int, int]) -> EventStream:
    """Parse the canonical event CSV into a validated, time-sorted stream.

    `source` is a path or a text stream (wrap inline text in io.StringIO).
    Raises EventParseError with the offending line number on malformed
    records, GeometryError on out-of-bounds coordinates, EmptyStreamError
    when no events are present; a geometry EventStream refuses raises its
    ValueError before the source is read. t_min and t_max are the first and
    last timestamps, as the file holds no recording window.

    The body is read as its UTF-8 bytes and decoded by :func:`_decode_body`,
    so no list of lines is made; its columns make the EventStream. Where the
    decode (its line skeleton, a field it would read otherwise than ``int()``)
    or EventStream's checks refuse the body, :func:`_parse_lines` reads it
    line by line. That path is kept because it is the only one that runs on
    such input: it names the offending line, and it accepts the inputs the
    module docstring lists. Its lines are those ``readlines()`` gives, split
    at line endings only: ``str.splitlines`` would also split at a form feed
    or ``\\u2028`` and miscount the lines.
    """
    _check_geometry(geometry)
    with open_text(source) as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise EmptyStreamError("empty source: no header, no events")
        columns = [c.strip().lower() for c in header_line.strip().split(",")]
        for k, c in enumerate(columns):
            if c not in _KNOWN_COLUMNS:
                raise EventParseError(
                    1, f"unknown column {c!r} (expected t,i,j[,label][,polarity])")
            if c in columns[:k]:
                raise EventParseError(1, f"duplicate column {c!r}")
        for required in ("t", "i", "j"):
            if required not in columns:
                raise EventParseError(1, f"missing required column {required!r}")
        # UTF-8 bytes: a StringIO would hold the text as 4-byte code points.
        # A lone surrogate passes into them, and the decode refuses it
        raw = fh.read().encode("utf-8", "surrogatepass")

    try:
        fields = dict(zip(columns, _decode_body(raw, len(columns)).T))  # views of the body
        return EventStream(fields["i"], fields["j"], fields["t"], geometry, fields.get("label"))
    except (ValueError, DeprecationWarning):
        text = raw.decode("utf-8", "surrogatepass")
    return _parse_lines(io.StringIO(text).readlines(), columns, geometry)


def _decode_body(raw: bytes, ncols: int) -> np.ndarray:
    """The (n, ncols) int64 body of the CSV body `raw`, decoded by
    ``np.fromstring`` a block of whole lines at a time; ValueError (or, from
    older numpy, DeprecationWarning) where it is not n lines of `ncols`
    fields, each an optional sign straight before its digits, with spaces,
    tabs or carriage returns around it, as Python's ``int()`` reads it."""
    lines = raw.translate(None, b"0123456789+- \t\r")
    if not lines.endswith(b"\n"):
        lines += b"\n"  # a last line without its newline
    unit = b"," * (ncols - 1) + b"\n"
    n = len(lines) // len(unit)
    if lines != unit * n:  # also when n is 0: lines holds at least a newline
        raise ValueError("the body is not one record of integer fields per line")
    del lines
    body = np.empty((n, ncols), dtype=np.int64)
    flat = body.reshape(-1)
    done = start = 0
    with warnings.catch_warnings():
        # older numpy only warns where fromstring stops at unmatched text
        warnings.simplefilter("error", DeprecationWarning)
        while start < len(raw):
            end = raw.find(b"\n", start + _DECODE_BLOCK_BYTES) + 1 or len(raw)
            block = raw[start:end]
            values = np.fromstring(block.replace(b"\n", b","), dtype=np.int64, sep=",")
            # fromstring reads a field of blanks or a lone sign as 0, and a
            # sign apart from its digits as a number, where int() refuses
            # both: each value needs a run of digits, each sign a digit after it
            code = np.frombuffer(block, dtype=np.uint8)
            digit = code >= ord("0")  # the skeleton leaves no other byte above "0"
            sign = (code == ord("-")) | (code == ord("+"))
            if (np.count_nonzero(digit[1:] > digit[:-1]) + digit[0] != len(values)
                    or np.any(sign[:-1] > digit[1:]) or sign[-1]):
                raise ValueError("a field is not one integer")
            flat[done:done + len(values)] = values  # too many values raise
            done += len(values)
            start = end
    # an overflowing field reads as an int64 bound, whatever its sign
    if done != flat.size or flat.min() == _INT64.min or flat.max() == _INT64.max:
        raise ValueError("a field is missing or does not fit in int64")
    return body


def _parse_lines(lines, columns, geometry: tuple[int, int]) -> EventStream:
    """Line-by-line reading of the CSV body after its `columns` header: the
    first bad line, counted from the header's line 1, raises its typed error."""
    idx = {c: k for k, c in enumerate(columns)}
    want_label = "label" in idx
    rows, cols = geometry
    tt, ii, jj, labels = [], [], [], []
    for line_no, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise EventParseError(line_no, f"expected {len(columns)} fields, got {len(parts)}")
        try:
            t = int(parts[idx["t"]])
            i = int(parts[idx["i"]])
            j = int(parts[idx["j"]])
            label = int(parts[idx["label"]]) if want_label else None
        except ValueError as exc:
            raise EventParseError(line_no, f"non-integer field ({exc})") from None
        if t < 0:
            raise EventParseError(line_no, f"negative timestamp {t}")
        for name, value in (("t", t), ("label", label)):
            if value is not None and not -2 ** 63 <= value < 2 ** 63:
                raise EventParseError(line_no, f"{name}={value} does not fit in int64")
        if not (0 <= i < rows):
            raise GeometryError(f"line {line_no}: i={i} outside geometry rows [0, {rows})")
        if not (0 <= j < cols):
            raise GeometryError(f"line {line_no}: j={j} outside geometry cols [0, {cols})")
        tt.append(t)
        ii.append(i)
        jj.append(j)
        if want_label:
            labels.append(label)

    if not tt:
        raise EmptyStreamError("source contains a header but zero events")
    return EventStream(
        i=np.array(ii), j=np.array(jj), t=np.array(tt),
        geometry=geometry,
        labels=np.array(labels) if want_label else None,
    )


_PAIRS = [f"{k:02d}" for k in range(100)]
# an integer's two places as one uint16 unit by pair value k: both at k, at
# 100 + k without a leading zero, at 200 neither (0 bytes stay out of files)
_INT_PAIRS = np.frombuffer("".join(_PAIRS + [d if d >= "10" else "\0" + d[1] for d in _PAIRS])
                           .encode() + b"\0\0", np.uint16)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
# 10**k for k <= 22, each exact, and the halves of its Veltkamp split
_TEN = np.array([float(10 ** k) for k in range(23)])
_TEN_HI = _TEN * 134217729.0 - (_TEN * 134217729.0 - _TEN)
_TEN_LO = _TEN - _TEN_HI


def _float_tables():
    """Units of a field's head and exponent, `edges[:, kind + 26 sign]`, where
    kind is E + 6 for a decimal exponent E in [-6, 16], 23 for a value that
    Python's ``%`` writes, 24 for nan and 25 for inf; and of a digit pair of
    value k, `pairs[k + 100 s + 200 p]`: s tells that all later digits are 0
    (trailing zeros of a fraction go, and a point with nothing after it), p
    where the point falls: 0 before the pair, 1 inside it, 2 after it, 3
    further on. `at[m, kind]` is 200 p of pair m."""
    edges = [(s + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "") if e < 17 else
              ("", "nan", s + "inf")[e - 17]).ljust(6, "\0")
             + (f"e{e:+03d}" if e in (-6, -5) else "\0" * 4)
             for s in ("", "-") for e in range(-6, 20)]
    pairs = []
    for p in range(4):
        for s in (0, 1):
            for a, b in (d.rstrip("0").ljust(2, "\0") if s and p == 0 else d for d in _PAIRS):
                pairs.append(a + "\0\0\0" if s and p == 1 and b == "0" else
                             a + ".\0"[p != 1] + b + ".\0"[p != 2 or s])
    whole = [e + 1 if 0 <= e < 17 else int(e in (-6, -5)) for e in range(-6, 20)]
    at = [200 * min(max(w - 2 * m, 0), 3) for m in range(9) for w in whole]
    edges = "".join(e[u:u + 2] for u in range(0, 10, 2) for e in edges)
    return (np.frombuffer(edges.encode(), np.uint16).reshape(5, 52),
            np.frombuffer("".join(pairs).encode(), np.uint32), np.array(at).reshape(9, 26))


_FLOAT_EDGES, _FLOAT_PAIRS, _FLOAT_AT = _float_tables()


def _int_field(c, units) -> None:
    """``%d`` of each int64 in `c`, right-aligned in the (k, n) uint16 `units`,
    two places a unit; the sign goes just before the first digit."""
    neg = c < 0
    mag = np.abs(c).astype(np.uint64)  # |iinfo(int64).min| wraps to itself: 2**63 here
    for u in range(len(units) - 1, -1, -1):
        rest = mag // np.uint64(100)
        pair = (mag - rest * np.uint64(100)).astype(np.intp) + 100 * (rest == 0)
        units[u] = _INT_PAIRS[pair + 100 * ((mag == 0) & (u < len(units) - 1))]
        mag = rest
    at = 2 * len(units) - 1 - np.searchsorted(_POW10, np.abs(c[neg]).astype(np.uint64), "right")
    units.view(np.uint8)[at // 2, 2 * np.flatnonzero(neg) + at % 2] = ord("-")


def _float_field(x, units) -> None:
    """``'%.17g' % v`` of each double in `x`, in the (23, n) uint16 `units`.
    For 1e-6 < |v| < 1e17 the 17 digits D = round-half-even(|v| 10**(16 - E))
    are p + rint(err), where p + err is the exact product of |v| and
    10**(16 - E) (Dekker's two-product; p is an even integer). Zero, nan and
    inf are constants; any other value takes Python's own ``%``."""
    ax = np.abs(x)
    win = (ax > 1e-6) & (ax < 1e17)
    ax[~win] = 1.0
    exp = np.clip(np.floor(np.log10(ax)), -6, 16).astype(np.int64)
    while True:  # the exact product mends an estimate of E that is one off
        p, hi, lo = ax * _TEN[16 - exp], _TEN_HI[16 - exp], _TEN_LO[16 - exp]
        ah = ax * 134217729.0 - (ax * 134217729.0 - ax)
        err = ((ah * hi - p) + ah * lo + (ax - ah) * hi) + (ax - ah) * lo
        miss = ((p > 1e17) | (p == 1e17) & (err >= 0)).astype(np.int64)
        miss -= (p < 1e16) | (p == 1e16) & (err < 0)
        if not miss.any():
            break
        exp += miss
    # ten times D: 18 digits, the last a 0 that never shows. D never rounds up
    # to 10**17: no double lies within half a 17th digit below 1e-5 ... 1e17
    digits = 10 * (p.astype(np.int64) + np.rint(err).astype(np.int64)) * win
    kind = np.where(win, exp + 6,
                    np.where(x == 0, 6, np.where(np.isfinite(x), 23, 24 + np.isinf(x))))
    units[[0, 1, 2, 21, 22]] = np.take(_FLOAT_EDGES, kind + 26 * np.signbit(x), axis=1)
    kinds = np.bincount(kind, minlength=26) > 0  # a pair past every row's point needs no offset
    tail = np.full(len(x), 100)  # 100 while all later digits are 0
    for m in range(8, -1, -1):
        # floor division by a constant is vectorized, divmod is not
        rest = digits // 100
        pair = digits - 100 * rest
        index = pair + tail + (_FLOAT_AT[m][kind] if _FLOAT_AT[m, kinds].any() else 0)
        units[3 + 2 * m:5 + 2 * m] = _FLOAT_PAIRS[index].view(np.uint16).reshape(-1, 2).T
        tail *= pair == 0
        digits = rest
    rare = np.flatnonzero(kind == 23)
    text = np.array([b"%.17g" % v for v in x[rare].tolist()], dtype="S24")
    units[:12, rare] = text.view(np.uint16).reshape(-1, 12).T


def write_rows(path_or_fh, header: str, columns, sep: str = ",") -> None:
    """Write one data table: open `path_or_fh` by :func:`open_text`, write
    the text `header` as it is, then the rows of the equal-length arrays
    `columns`, `sep`-separated, each cell byte for byte ``%d`` of an integer
    or boolean and ``%.17g`` of a float, a :func:`tensor_ops.row_blocks`
    block at a time, as the module docstring tells."""
    floats = [c.dtype.kind == "f" for c in columns]
    row_bytes = sum(_FLOAT_CELL_BYTES if f else _INT_CELL_BYTES for f in floats)
    with open_text(path_or_fh, "w") as fh:
        fh.write(header)
        for rows in row_blocks(len(columns[0]), row_bytes):
            block = [c[rows].astype(np.float64 if f else np.int64) for c, f in zip(columns, floats)]
            sizes = [23 if f else (len(max(str(c.min(initial=0)), str(c.max(initial=0)), key=len)) + 1)
                     // 2 for c, f in zip(block, floats)]
            ends = np.cumsum(sizes) + np.arange(len(sizes))
            buf = np.empty((ends[-1] + 1, len(block[0])), dtype=np.uint16)
            for c, f, end, size in zip(block, floats, ends, sizes):
                (_float_field if f else _int_field)(c, buf[end - size:end])
            buf[ends] = ord(sep)
            buf[-1] = ord("\n")
            fh.write(buf.T.tobytes().translate(None, b"\0").decode("ascii"))


def write_events_csv(stream: EventStream, path_or_fh) -> None:
    """Write a stream in the canonical CSV format (label column when present)."""
    labels = (stream.labels,) if stream.has_labels else ()
    write_rows(path_or_fh, "t,i,j,label\n" if labels else "t,i,j\n",
               (stream.t, stream.i, stream.j, *labels))


def compute_bin_edges(t_min: int, t_max: int, n_bins: int) -> np.ndarray:
    """N+1 strictly increasing integer edges cutting [t_min, t_max] into
    near-equal widths (remainder spread over the leading bins, widths within
    one time unit of each other)."""
    if not is_integer(n_bins) or n_bins <= 0:
        raise ValueError(f"segment count must be a positive integer, got {n_bins!r}")
    span = t_max - t_min
    if span < n_bins:
        raise ValueError(
            f"time range {span} is too narrow to cut {n_bins} positive-width bins"
        )
    width, rem = divmod(span, n_bins)
    k = np.arange(n_bins + 1, dtype=np.int64)
    return t_min + k * width + np.minimum(k, rem)


def bin_indices(t: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """Map timestamps to bins: half-open [edge_k, edge_{k+1}) with the last bin
    closed on the right so t_max lands in bin N-1."""
    t = np.asarray(t, dtype=np.int64)
    if t.min() < bin_edges[0] or t.max() > bin_edges[-1]:
        raise ValueError("timestamp outside the binned range")
    idx = np.searchsorted(bin_edges, t, side="right") - 1
    return np.minimum(idx, len(bin_edges) - 2)


def bin_to_tensor(stream: EventStream, n_bins: int) -> EventTensor:
    """Binarize a stream into an (I, J, N) tensor over [t_min, t_max]: the
    events' flat cell indices, sorted, each kept once."""
    edges = compute_bin_edges(stream.t_min, stream.t_max, n_bins)
    cols = stream.geometry[1]
    cells = (stream.i * cols + stream.j) * n_bins + bin_indices(stream.t, edges)
    # sort and drop repeats: np.unique takes a hash path in numpy 2.4 that
    # took 9.2 against 0.44 ms on the DAVIS scene
    cells.sort()
    first = np.ones(len(cells), dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    return EventTensor(cells[first], (*stream.geometry, n_bins), edges)


def tensor_density(tensor: EventTensor) -> float:
    """Fraction of 1-entries."""
    return len(tensor.cells) / math.prod(tensor.dims)


def event_frames(stream: EventStream, tensor: EventTensor, dims) -> np.ndarray:
    """Bin index of each event, after checking that the tensor and every event
    coordinate fit factors of the given (I, J, N) dims."""
    if tensor.dims != dims:
        raise ConsistencyError(f"factor dims {dims} disagree with tensor dims {tensor.dims}")
    frames = bin_indices(stream.t, tensor.bin_edges)
    if stream.i.max() >= dims[0] or stream.j.max() >= dims[1]:
        raise ConsistencyError("event coordinates exceed factor dimensions")
    return frames


def write_tensor_dump(tensor: EventTensor, path_or_fh) -> None:
    """Debug/oracle dump: header ``I J N`` then the 0/1 values in
    (n outer, i middle, j inner) order, one space-separated line per (n, i).
    Anything but an EventTensor raises TypeError before the file is opened.

    The text is built from the 1-cells, one frame at a time: a frame's text
    is an all-``0`` template with ``1`` written at that frame's cells, which
    are reset once it is written. The cells are grouped by frame with the
    solver's own mode-n sort plan (:meth:`tensor_ops.CooPlan.of`), so no
    pass reads the tensor a frame at a time across its strides."""
    if not isinstance(tensor, EventTensor):
        raise TypeError("write_tensor_dump takes an EventTensor(cells, dims, bin_edges), as "
                        f"bin_to_tensor makes it, not {type(tensor).__name__}")
    rows, cols, n_bins = tensor.dims
    # frame n's cells are plan.cols[bounds[n]:bounds[n + 1]], and a cell's
    # digit sits at byte 2 * (i * J + j), twice its column, of the frame's text
    plan = CooPlan.of(tensor.dims, tensor.cells, "n")
    bounds = np.append(plan.starts, len(plan.cols))[np.searchsorted(plan.rows, np.arange(n_bins + 1))]
    # one ASCII byte per character: digit, space, digit, ..., digit, newline
    text = np.full((rows, 2 * cols), ord(" "), dtype=np.uint8)
    text[:, 0::2] = ord("0")
    text[:, -1] = ord("\n")
    text = text.reshape(-1)
    with open_text(path_or_fh, "w") as fh:
        fh.write(f"{rows} {cols} {n_bins}\n")
        for n in range(n_bins):
            ones = 2 * plan.cols[bounds[n]:bounds[n + 1]]
            text[ones] = ord("1")
            fh.write(text.tobytes().decode("ascii"))
            text[ones] = ord("0")
