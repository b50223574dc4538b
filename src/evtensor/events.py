"""Event stream parsing, validation, and binning into binary 3rd-order tensors.

An event is a (i, j, t) triple: row pixel, column pixel, microsecond
timestamp, optionally tagged with a small-integer class label (objects get
ids 0, 1, ...; background noise is labeled -1). A recording over an I x J
sensor becomes a binary (I, J, N) tensor by cutting the recording's time
range into N near-equal integer-width bins and setting entry (i, j, n) to 1
when at least one event hit pixel (i, j) during bin n. An EventTensor holds
only those 1-cells, as sorted flat indices: events are sparse in space, and
at DAVIS scale the 57.8k cells stand for 9 million entries. Its dense array
is built only when `EventTensor.data` is read, which no function here does.

Canonical interchange format is CSV with header ``t,i,j[,label][,polarity]``
(decimal integers, one event per line); a trailing polarity column is
accepted and ignored. :func:`parse_events` reads the body as its UTF-8
bytes and decodes them with one ``np.loadtxt`` call into an int64 array,
checked column by column; the bytes and then that array are dropped as soon
as its columns are copied out. Input that this decode or these checks
refuse is read line by line instead: any malformed, negative-time or
out-of-geometry record, and also whitespace-only lines, spellings that only
Python's ``int()`` takes (``1_000``) and a polarity field that is not an
integer, which that path accepts. Only then is the body decoded back to text
and split into lines, as ``readlines()`` splits it, so the line numbers it
reports are the file's.

The writers hold no event-sized text: they format a block of rows at a
time, cut by :func:`tensor_ops.row_blocks` so that each block's transient
stays under about ``tensor_ops.BLOCK_BYTES``, and write each block as soon
as it is formatted. :func:`write_events_csv` writes each integer column as
decimal digit bytes from one ``divmod`` per place (:func:`format_int_rows`),
byte for byte what ``%d`` gives; the denoise report keeps one ``%``-format
per row (:func:`format_rows`) for its ``%.17g`` score. The tensor dump is a
template of ``0`` digits with ``1`` written at each frame's cells.

Every reader and writer in the package takes a path (``str`` or any
``os.PathLike``), opened as UTF-8 text, or an already open text stream, which
is used as is; :func:`open_text` is that one rule. Inline CSV text is read by
wrapping it in ``io.StringIO``.
"""

from __future__ import annotations

import contextlib
import io
import logging
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, EmptyStreamError, EventParseError, GeometryError
from .tensor_ops import row_blocks

logger = logging.getLogger(__name__)

NOISE_LABEL = -1

_KNOWN_COLUMNS = ("t", "i", "j", "label", "polarity")

# bytes a cell takes while format_int_rows writes it: its uint64 magnitude,
# the divmod results, the masks and its digit bytes (about 26 measured)
_DIGIT_CELL_BYTES = 32


@contextlib.contextmanager
def open_text(path_or_fh, mode: str = "r"):
    """Open a ``str``/``os.PathLike`` path as UTF-8 text (closed on exit);
    pass any other object through as an already open text stream."""
    if isinstance(path_or_fh, (str, os.PathLike)):
        with open(path_or_fh, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield path_or_fh


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
        self.i = np.asarray(self.i, dtype=np.int64)
        self.j = np.asarray(self.j, dtype=np.int64)
        self.t = np.asarray(self.t, dtype=np.int64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.t.shape:
                raise ValueError("labels must align with events")
        if not (self.i.shape == self.j.shape == self.t.shape):
            raise ValueError("i, j, t arrays must have equal length")
        if len(self.t) == 0:
            raise EmptyStreamError("a stream with zero events cannot be processed")
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
        if self.t_min is None:
            self.t_min = int(self.t[0])
        if self.t_max is None:
            self.t_max = int(self.t[-1])
        self.t_min = int(self.t_min)
        self.t_max = int(self.t_max)
        if self.t_min > int(self.t[0]) or self.t_max < int(self.t[-1]):
            raise ValueError("declared [t_min, t_max] must cover all event timestamps")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def has_labels(self) -> bool:
        return self.labels is not None


def _is_binary(data: np.ndarray) -> bool:
    """Every entry exactly 0 or 1. A bool array always is; an integer one when
    its min and max lie in [0, 1], two reductions and no temporary. Any other
    dtype compares counts: each nonzero entry (NaN included) must equal 1,
    which needs one bool temporary of data's size and rejects 0.5 and NaN."""
    kind = data.dtype.kind
    if kind == "b" or data.size == 0:
        return True
    if kind in "ui":
        return bool((kind == "u" or data.min() >= 0) and data.max() <= 1)
    return np.count_nonzero(data) == np.count_nonzero(data == 1)


@dataclass
class EventTensor:
    """A binary (I, J, N) tensor held as its 1-cells, plus the bin edges that
    produced it. `cells` are the sorted, distinct C-order flat indices
    (i * J + j) * N + n of the cells that are 1."""

    cells: np.ndarray
    dims: tuple[int, int, int]
    bin_edges: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.dims = tuple(int(d) for d in self.dims)
        self.bin_edges = np.asarray(self.bin_edges, dtype=np.int64)
        if len(self.dims) != 3:
            raise ValueError("event tensor must be 3rd-order")
        cells = self.cells
        if cells.ndim != 1 or np.any(cells[1:] <= cells[:-1]) or (
                len(cells) and (cells[0] < 0 or cells[-1] >= math.prod(self.dims))):
            raise ValueError("cells must be ascending, distinct flat indices inside the tensor")
        if len(self.bin_edges) != self.dims[2] + 1:
            raise ValueError("bin_edges must have N+1 entries")
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing")

    @classmethod
    def from_dense(cls, data, bin_edges) -> EventTensor:
        """The tensor of a dense (I, J, N) array whose entries are all 0 or 1."""
        data = np.asarray(data)
        if data.ndim != 3:
            raise ValueError("event tensor must be 3rd-order")
        if not _is_binary(data):
            raise ValueError("event tensor entries must be exactly 0 or 1")
        return cls(np.flatnonzero(data), data.shape, bin_edges)

    @property
    def data(self) -> np.ndarray:
        """The dense uint8 (I, J, N) array, built anew on each read; nothing
        in the package reads it."""
        data = np.zeros(self.dims, dtype=np.uint8)
        data.reshape(-1)[self.cells] = 1
        return data


def parse_events(source, geometry: tuple[int, int]) -> EventStream:
    """Parse the canonical event CSV into a validated, time-sorted stream.

    `source` is a path or a text stream (wrap inline text in io.StringIO).
    Raises EventParseError with the offending line number on malformed
    records, GeometryError on out-of-bounds coordinates, EmptyStreamError
    when no events are present.

    The body is read as its UTF-8 bytes and decoded with one ``np.loadtxt``
    call, so no list of lines is made.
    Where that decode or the column checks after it refuse the body,
    :func:`_parse_lines` reads it line by line. That path is kept because it
    is the only one that runs on such input: it names the offending line, and
    it accepts the inputs the module docstring lists. Its lines are those
    ``readlines()`` gives, split at line endings only: ``str.splitlines``
    would also split at a form feed or ``\\u2028`` and miscount the lines.
    """
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
        with warnings.catch_warnings():
            # a body without events is reported by _parse_lines as EmptyStreamError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # older numpy parses a float such as 1.5 into an int64 with only a
            # DeprecationWarning; the line-by-line path rejects it
            warnings.simplefilter("error", DeprecationWarning)
            body = np.loadtxt(io.BytesIO(raw), delimiter=",", dtype=np.int64, comments=None,
                              ndmin=2, encoding="utf-8")
    except (ValueError, DeprecationWarning):
        body = None
    if body is not None and body.shape[1] == len(columns):
        t, i, j = (body[:, columns.index(c)] for c in ("t", "i", "j"))
        rows, cols = geometry
        if t.min() >= 0 and i.min() >= 0 and i.max() < rows and j.min() >= 0 and j.max() < cols:
            # the text and then the body go as soon as the columns are copied out
            del raw, t, i, j
            fields = {c: body[:, k].copy() for k, c in enumerate(columns) if c != "polarity"}
            del body
            return EventStream(i=fields["i"], j=fields["j"], t=fields["t"], geometry=geometry,
                               labels=fields.get("label"))
    text = raw.decode("utf-8", "surrogatepass")
    return _parse_lines(io.StringIO(text).readlines(), columns, geometry)


def _parse_lines(lines, columns, geometry: tuple[int, int]) -> EventStream:
    """Line-by-line reading of the CSV body after its `columns` header: the
    first bad line, counted from the header's line 1, raises its typed error."""
    idx = {c: k for k, c in enumerate(columns)}
    want_label = "label" in idx
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
        rows, cols = geometry
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


def format_rows(row: str, columns) -> str:
    """Every row of the equal-length `columns` through the %-format `row`, as
    one string. The cells go to one ``%`` as Python objects, so integers stay
    exact and floats format as Python floats. That makes a Python number and
    four references per cell while it runs, so a writer passes it one block
    of rows at a time."""
    cells = np.column_stack([np.asarray(c).astype(object) for c in columns])
    return (row * len(cells)) % tuple(cells.ravel().tolist())


def format_int_rows(columns) -> str:
    """Every row of the equal-length int64 `columns`, comma-separated, one line
    per row: byte for byte ``format_rows("%d,...,%d\\n", columns)``, at array
    speed. Each column gets a field as wide as its widest number (sign
    included) in one (rows, width) uint8 buffer; one ``divmod`` per place
    writes its digits right-aligned and a negative number's sign before
    them. The places left of a number stay 0 bytes, which one mask drops."""
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    n = len(columns[0])
    fields = []
    for c in columns:
        neg = c < 0
        # magnitudes as uint64, exact for iinfo(int64).min too
        mag = c.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
        has_neg = bool(neg.any())
        width = (len(str(int(mag.max()))) if n else 1) + has_neg
        fields.append((mag, neg if has_neg else None, width))
    buf = np.zeros((n, sum(width + 1 for *_, width in fields)), dtype=np.uint8)
    end = -1
    for mag, neg, width in fields:
        end += width + 1
        buf[:, end] = ord(",")
        # a place holds a digit if it is a number's last or a nonzero rest remains
        live = np.ones(n, dtype=bool)
        for place in range(end - 1, end - 1 - width, -1):
            mag, digit = np.divmod(mag, np.uint64(10))
            np.add(digit, ord("0"), out=buf[:, place], where=live, casting="unsafe")
            more = mag > 0
            if neg is not None:
                buf[live & ~more & neg, place - 1] = ord("-")
            live = more
    buf[:, -1] = ord("\n")
    return buf[buf != 0].tobytes().decode("ascii")


def write_events_csv(stream: EventStream, path_or_fh) -> None:
    """Write a stream in the canonical CSV format (label column when present),
    one block of rows at a time."""
    columns = (stream.t, stream.i, stream.j) + ((stream.labels,) if stream.has_labels else ())
    with open_text(path_or_fh, "w") as fh:
        fh.write("t,i,j,label\n" if stream.has_labels else "t,i,j\n")
        for rows in row_blocks(len(stream), _DIGIT_CELL_BYTES * len(columns)):
            fh.write(format_int_rows([c[rows] for c in columns]))


def compute_bin_edges(t_min: int, t_max: int, n_bins: int) -> np.ndarray:
    """N+1 strictly increasing integer edges cutting [t_min, t_max] into
    near-equal widths (remainder spread over the leading bins, widths within
    one time unit of each other)."""
    if n_bins <= 0:
        raise ValueError(f"segment count must be positive, got {n_bins}")
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
    if stream.i.max() >= dims[0] or stream.j.max() >= dims[1] or frames.max() >= dims[2]:
        raise ConsistencyError("event coordinates exceed factor dimensions")
    return frames


def write_tensor_dump(tensor: EventTensor | np.ndarray, path_or_fh) -> None:
    """Debug/oracle dump: header ``I J N`` then the 0/1 values in
    (n outer, i middle, j inner) order, one space-separated line per (n, i).
    An array with any entry other than exactly 0 or 1 (0.5, NaN, 2) raises
    ValueError before anything is written.

    The text is built from the 1-cells, one frame at a time: a frame's text
    is an all-``0`` template with ``1`` written at that frame's cells, which
    are reset once it is written. The cells, C-order flat indices, are
    grouped by frame with one stable sort, so no pass reads the tensor a
    frame at a time across its strides."""
    if isinstance(tensor, EventTensor):
        flat, (rows, cols, n_bins) = tensor.cells, tensor.dims
    else:
        data = np.asarray(tensor)
        if not _is_binary(data):
            raise ValueError("a tensor dump holds only 0/1 entries")
        flat, (rows, cols, n_bins) = np.flatnonzero(data), data.shape
    frame = flat % n_bins
    # a stable sort on the narrowest dtype: numpy radix-sorts 8- and 16-bit keys
    order = np.argsort(frame.astype(np.min_scalar_type(n_bins)), kind="stable")
    # a cell's digit sits at byte 2 * (i * J + j) of its frame's text
    digits = 2 * (flat // n_bins)[order]
    # frame n's digits are digits[bounds[n]:bounds[n + 1]]
    bounds = np.zeros(n_bins + 1, dtype=np.intp)
    np.cumsum(np.bincount(frame, minlength=n_bins), out=bounds[1:])
    # one ASCII byte per character: digit, space, digit, ..., digit, newline
    text = np.full((rows, 2 * cols), ord(" "), dtype=np.uint8)
    text[:, 0::2] = ord("0")
    text[:, -1] = ord("\n")
    text = text.reshape(-1)
    with open_text(path_or_fh, "w") as fh:
        fh.write(f"{rows} {cols} {n_bins}\n")
        for n in range(n_bins):
            ones = digits[bounds[n]:bounds[n + 1]]
            text[ones] = ord("1")
            fh.write(text.tobytes().decode("ascii"))
            text[ones] = ord("0")


def read_tensor_dump(path_or_fh) -> np.ndarray:
    """Inverse of :func:`write_tensor_dump`; returns the uint8 data array.
    Each of the I*N body lines must be 2J bytes: a 0/1 digit and a space,
    J times, the last space a newline."""
    with open_text(path_or_fh) as fh:
        rows, cols, n_bins = _header_ints(fh, "I J N")
        body = np.frombuffer(fh.read().encode("ascii"), dtype=np.uint8)
    # the digits sit at the even columns of 2*cols-byte lines
    values = body[0::2] - np.uint8(ord("0"))
    if values.size != rows * cols * n_bins:
        raise ValueError(f"dump holds {values.size} values, expected {rows * cols * n_bins}")
    separators = np.full(cols, ord(" "), dtype=np.uint8)
    separators[-1] = ord("\n")
    if (body.size != 2 * values.size or values.max() > 1
            or np.any(body[1::2].reshape(rows * n_bins, cols) != separators)):
        raise ValueError("a tensor dump holds only 0/1 digits, one space apart")
    return np.ascontiguousarray(values.reshape(n_bins, rows, cols).transpose(1, 2, 0))
