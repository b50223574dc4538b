import io
import os
import re
import tempfile
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtensor import events, solver, tensor_ops
from evtensor.denoise import DenoiseReport, write_report_csv
from evtensor.errors import EmptyStreamError, EventParseError, GeometryError
from evtensor.events import (
    EventStream,
    EventTensor,
    bin_to_tensor,
    compute_bin_edges,
    parse_events,
    tensor_density,
    write_events_csv,
    write_rows,
    write_tensor_dump,
)

import oracles
from oracles import read_tensor_dump

DAVIS = (346, 260)


def test_parse_two_events():
    stream = parse_events(io.StringIO("t,i,j\n100,5,7\n200,5,8\n"), DAVIS)
    assert len(stream) == 2
    assert stream.t_min == 100 and stream.t_max == 200
    np.testing.assert_array_equal(stream.j, [7, 8])
    assert not stream.has_labels


def test_parse_empty_source():
    with pytest.raises(EmptyStreamError):
        parse_events(io.StringIO(""), DAVIS)
    with pytest.raises(EmptyStreamError):
        parse_events(io.StringIO("t,i,j\n"), DAVIS)


def test_parse_out_of_geometry():
    with pytest.raises(GeometryError):
        parse_events(io.StringIO("t,i,j\n100,400,7\n"), DAVIS)


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(EventParseError) as err:
        parse_events(io.StringIO("t,i,j\n100,5,7\n200,x,8\n"), DAVIS)
    assert err.value.line_no == 3


def test_parse_wrong_field_count():
    with pytest.raises(EventParseError):
        parse_events(io.StringIO("t,i,j\n100,5\n"), DAVIS)


def test_parse_unknown_column():
    with pytest.raises(EventParseError):
        parse_events(io.StringIO("t,i,q\n100,5,7\n"), DAVIS)


def test_parse_sorts_by_time():
    stream = parse_events(io.StringIO("t,i,j\n300,1,1\n100,2,2\n200,3,3\n"), DAVIS)
    np.testing.assert_array_equal(stream.t, [100, 200, 300])
    np.testing.assert_array_equal(stream.i, [2, 3, 1])


def test_parse_label_and_polarity_columns():
    stream = parse_events(io.StringIO("t,i,j,label,polarity\n10,1,2,0,1\n20,3,4,-1,0\n"), DAVIS)
    assert stream.has_labels
    np.testing.assert_array_equal(stream.labels, [0, -1])

    no_label = parse_events(io.StringIO("t,i,j,polarity\n10,1,2,1\n20,3,4,0\n"), DAVIS)
    assert not no_label.has_labels


def test_parse_duplicates_retained():
    stream = parse_events(io.StringIO("t,i,j\n100,5,7\n100,5,7\n"), DAVIS)
    assert len(stream) == 2


def test_csv_roundtrip():
    stream = parse_events(io.StringIO("t,i,j,label\n100,5,7,0\n200,5,8,-1\n"), DAVIS)
    buf = io.StringIO()
    write_events_csv(stream, buf)
    again = parse_events(io.StringIO(buf.getvalue()), DAVIS)
    np.testing.assert_array_equal(again.t, stream.t)
    np.testing.assert_array_equal(again.labels, stream.labels)


def test_parse_counts_line_numbers_across_blank_lines():
    with pytest.raises(EventParseError) as err:
        parse_events(io.StringIO("t,i,j\n1,2,3\n\n4,x,6\n"), DAVIS)
    assert err.value.line_no == 4


def test_parse_skips_whitespace_only_lines():
    stream = parse_events(io.StringIO("t,i,j\n1,2,3\n   \n\t\n4,5,6\n"), DAVIS)
    np.testing.assert_array_equal(stream.t, [1, 4])
    np.testing.assert_array_equal(stream.i, [2, 5])


def test_parse_accepts_spellings_that_int_takes():
    stream = parse_events(io.StringIO("t,i,j\n1_000,+5, 7 \n"), DAVIS)
    assert (stream.t[0], stream.i[0], stream.j[0]) == (1000, 5, 7)


@pytest.mark.parametrize("bad", ["-5", "1.5", "1e3", ""])
def test_parse_rejects_a_timestamp_with_its_line(bad):
    with pytest.raises(EventParseError) as err:
        parse_events(io.StringIO(f"t,i,j\n1,2,3\n{bad},2,3\n4,5,6\n"), DAVIS)
    assert err.value.line_no == 3


@pytest.mark.parametrize("as_file", [False, True], ids=["stream", "file"])
@pytest.mark.parametrize("value", [2 ** 63, 10 ** 23, -(2 ** 63) - 1], ids=["2^63", "1e23", "-2^63-1"])
@pytest.mark.parametrize("column", ["t", "label"])
def test_parse_rejects_a_field_beyond_int64_with_its_line(tmp_path, as_file, value, column):
    # int() takes any size; numpy's int64 column cannot, and its OverflowError
    # is no ValueError and names no line
    row = f"5,1,1,{value}" if column == "label" else f"{value},1,1,0"
    text = f"t,i,j,label\n1,2,3,0\n{row}\n4,5,6,0\n"
    if as_file:
        source = tmp_path / "big.csv"
        source.write_text(text, encoding="ascii")
    else:
        source = io.StringIO(text)
    with pytest.raises(EventParseError) as err:
        parse_events(source, DAVIS)
    assert err.value.line_no == 3
    if column == "label" or value > 0:
        assert f"{column}={value} does not fit in int64" in str(err.value)


def test_parse_keeps_fields_at_the_int64_bounds():
    top, bottom = 2 ** 63 - 1, -(2 ** 63)
    stream = parse_events(io.StringIO(f"t,i,j,label\n{top},1,1,{bottom}\n"), DAVIS)
    assert (stream.t[0], stream.labels[0]) == (top, bottom)


@pytest.mark.parametrize("row, message", [
    ("2,400,3", "line 3: i=400 outside geometry rows [0, 346)"),
    ("2,-1,3", "line 3: i=-1 outside geometry rows [0, 346)"),
    ("2,3,260", "line 3: j=260 outside geometry cols [0, 260)"),
])
def test_parse_geometry_error_names_the_line(row, message):
    with pytest.raises(GeometryError, match=re.escape(message)):
        parse_events(io.StringIO(f"t,i,j\n1,2,3\n{row}\n"), DAVIS)


def test_parse_rejects_one_extra_field_on_every_row():
    with pytest.raises(EventParseError) as err:
        parse_events(io.StringIO("t,i,j\n1,2,3,4\n5,6,7,8\n"), DAVIS)
    assert err.value.line_no == 2


@pytest.mark.parametrize("as_file", [False, True], ids=["stream", "file"])
def test_parse_crlf_and_a_last_line_without_newline(tmp_path, as_file):
    text = "t,i,j,label\r\n10,1,2,0\r\n20,3,4,-1"
    if as_file:
        source = tmp_path / "crlf.csv"
        source.write_bytes(text.encode("ascii"))
    else:
        source = io.StringIO(text)
    stream = parse_events(source, DAVIS)
    np.testing.assert_array_equal(stream.t, [10, 20])
    np.testing.assert_array_equal(stream.j, [2, 4])
    np.testing.assert_array_equal(stream.labels, [0, -1])


@pytest.mark.parametrize("as_file", [False, True], ids=["stream", "file"])
def test_parse_fallback_counts_lines_as_readlines_splits_them(tmp_path, as_file):
    # a form feed, \x1c and \u2028 are line breaks to str.splitlines, not to
    # readlines(); int() strips them, so these records are valid, and the bad
    # one is line 5 of the file
    text = "t,i,j\n1,2\x0c,3\n4,\u20285,6\x1c\n7,8,9\nx,1,2\n"
    if as_file:
        source = tmp_path / "odd.csv"
        source.write_text(text, encoding="utf-8")
    else:
        source = io.StringIO(text)
    with pytest.raises(EventParseError) as err:
        parse_events(source, DAVIS)
    assert err.value.line_no == 5 == len(io.StringIO(text).readlines())
    assert len(text.splitlines()) > 5


def test_parse_permuted_header_ignores_text_polarity():
    stream = parse_events(io.StringIO("j,label,t,i,polarity\n7,1,20,5,on\n8,-1,10,6,off\n"), DAVIS)
    np.testing.assert_array_equal(stream.t, [10, 20])
    np.testing.assert_array_equal(stream.i, [6, 5])
    np.testing.assert_array_equal(stream.j, [8, 7])
    np.testing.assert_array_equal(stream.labels, [-1, 1])


@pytest.mark.parametrize("header, column", [("t,i,j,i", "i"), ("t,t,i,j", "t")])
def test_parse_rejects_a_duplicate_column(header, column):
    # without the check the last copy wins: 5,1,2,3 under t,i,j,i reads i = 3
    with pytest.raises(EventParseError) as err:
        parse_events(io.StringIO(f"{header}\n5,1,2,3\n"), DAVIS)
    assert err.value.line_no == 1
    assert str(err.value) == f"line 1: duplicate column {column!r}"


@pytest.mark.parametrize("text", ["t,i,j\n", "t,i,j", "t,i,j\n\n\n", "t,i,j\n  \n"])
def test_parse_header_only_raises_without_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyStreamError):
            parse_events(io.StringIO(text), DAVIS)


@pytest.mark.parametrize("body, error, message", [
    ("1,2,3\n-4,2,3\n", EventParseError, "line 3: negative timestamp -4"),
    ("1,2,3\n4,346,3\n", GeometryError, "line 3: i=346 outside geometry rows [0, 346)"),
    ("1,2,3\n4,2,-1\n", GeometryError, "line 3: j=-1 outside geometry cols [0, 260)"),
    ("\n", EmptyStreamError, "source contains a header but zero events"),
], ids=["negative-t", "i-outside", "j-outside", "header-only"])
def test_a_body_event_stream_refuses_is_named_by_the_line_path(monkeypatch, body, error, message):
    # each body but the empty one decodes as int64, so the fast path hands its
    # columns to EventStream, whose checks refuse them; the empty body has no
    # record for the decode. The line path then names the line
    refusals = []
    post_init = EventStream.__post_init__

    def checked(stream):
        try:
            post_init(stream)
        except ValueError as exc:
            refusals.append(exc)
            raise

    monkeypatch.setattr(EventStream, "__post_init__", checked)
    with pytest.raises(error, match=re.escape(message)):
        parse_events(io.StringIO("t,i,j\n" + body), DAVIS)
    assert len(refusals) == (body != "\n")


SMALL = (8, 9)
# spellings of a decimal that int() reads and so must the block decode: the
# digits, perhaps with a sign and leading zeros, inside these blanks
_BLANKS = ["{}", " {} ", "\t{}", "{}\r", "{} \t"]
# 19-digit values a label or polarity field may hold on the decode's path
_WIDE = [10 ** 18, -(10 ** 18), 2 ** 63 - 2, -(2 ** 63) + 1]
# fields the decode must leave to the line path. np.fromstring reads the
# first group as numbers: a field of blanks or a lone sign as 0, a sign
# apart from its digits as signed, a field beyond int64 as one of its bounds
_MISREAD = [" ", "\t", "-", "+", " - ", "- 5", "+\t5", str(2 ** 63 - 1), str(-(2 ** 63)),
            str(2 ** 63), str(-(2 ** 63) - 1), str(10 ** 19)]
_REFUSED = ["", "1-2", "1 2", "--5", "+-5", "5-", "1.5", "1_0", "on", str(SMALL[0]), "-1"]


@st.composite
def csv_bodies(draw, perturb=True, blanks=tuple(_BLANKS)):
    """(columns, body, clean): rows of events inside SMALL, each field spelled
    as int() reads it, inside one of `blanks`, with CRLF or LF endings and
    perhaps no final newline; then, if `perturb`, perhaps one perturbation:
    an odd field, a blank line, or blanks after the last newline. A `clean`
    body has none, so the line path must not run on it."""
    columns = ["t", "i", "j"] + draw(st.sampled_from(
        [[], ["label"], ["polarity"], ["label", "polarity"]]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        fields = []
        for c in columns:
            value = draw({"t": st.integers(0, 10 ** 6), "i": st.integers(0, SMALL[0] - 1),
                          "j": st.integers(0, SMALL[1] - 1)}.get(c, st.integers(-2, 2)))
            if c in ("label", "polarity") and draw(st.integers(0, 4)) == 0:
                value = draw(st.sampled_from(_WIDE))
            sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
            digits = sign + "0" * draw(st.integers(0, 2)) + str(abs(value))
            fields.append(draw(st.sampled_from(blanks)).format(digits))
        rows.append(fields)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from([end, ""]))
    perturbation = draw(st.sampled_from(["", "", "field", "field", "field", "line", "tail"]
                                        if perturb else [""]))
    if perturbation == "field":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(columns) - 1))] = draw(st.sampled_from(_MISREAD * 2 + _REFUSED))
    lines = [",".join(row) for row in rows]
    if perturbation == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return columns, end.join(lines) + final + ("  " if perturbation == "tail" else ""), \
        not perturbation


def parse_outcome(parse):
    """The stream's arrays and window, or the type and text of the refusal."""
    try:
        stream = parse()
    except ValueError as exc:
        return type(exc), str(exc)
    labels = stream.labels.tolist() if stream.has_labels else None
    return stream.t.tolist(), stream.i.tolist(), stream.j.tolist(), labels, stream.t_min, stream.t_max


@given(csv_bodies())
@settings(max_examples=400, deadline=None)
def test_the_block_decode_reads_every_body_as_the_line_path_does(case):
    # the line path is the one statement of what a body means; the decode
    # must give its stream or its error (type, line number, text), and take
    # every clean body itself
    columns, body, clean = case
    expected = parse_outcome(
        lambda: events._parse_lines(io.StringIO(body).readlines(), columns, SMALL))
    with mock.patch.object(events, "_parse_lines", wraps=events._parse_lines) as line_path:
        got = parse_outcome(lambda: parse_events(io.StringIO(",".join(columns) + "\n" + body),
                                                 SMALL))
    assert got == expected
    assert not (clean and line_path.called)


@pytest.mark.parametrize("body", [
    "1, ,3\n", "1,2,\t\n", "1,-,3\n", "1,2, + \n", "1,- 2,3\n", "1,2,+\t3\n", "1,2,3\n4,5,",
    "1,2,3\n   ", f"1,2,3\n{2 ** 63},1,1\n", f"{-(2 ** 63) - 1},1,1\n",
], ids=["blank", "tab", "minus", "plus", "minus-blank", "plus-tab", "empty-last-field",
        "blanks-after-the-last-line", "2^63", "-2^63-1"])
def test_the_decode_leaves_what_fromstring_misreads_to_the_line_path(body):
    # np.fromstring reads a field of blanks or a lone sign as 0 and a sign
    # apart from its digits as signed, drops an empty last field, reads the
    # blanks after the last newline as one more 0, and an overflow as a bound
    expected = parse_outcome(
        lambda: events._parse_lines(io.StringIO(body).readlines(), ["t", "i", "j"], DAVIS))
    with mock.patch.object(events, "_parse_lines", wraps=events._parse_lines) as line_path:
        assert parse_outcome(lambda: parse_events(io.StringIO("t,i,j\n" + body), DAVIS)) == expected
    assert line_path.called


# read from a file, a carriage return that ends no "\r\n" ends a line
@given(csv_bodies(perturb=False, blanks=[b for b in _BLANKS if "\r" not in b]))
@settings(max_examples=100, deadline=None)
def test_a_clean_body_parses_as_readlines_and_loadtxt_read_it(case):
    columns, body, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n" + body)
        assert parse_outcome(lambda: parse_events(path, SMALL)) == parse_outcome(
            lambda: oracles.parse_events_readlines(path, SMALL))


@st.composite
def event_streams(draw):
    m = draw(st.integers(1, 30))
    ints = st.lists(st.integers(0, 2**40), min_size=m, max_size=m)
    labelled = draw(st.booleans())
    return EventStream(
        i=draw(st.lists(st.integers(0, DAVIS[0] - 1), min_size=m, max_size=m)),
        j=draw(st.lists(st.integers(0, DAVIS[1] - 1), min_size=m, max_size=m)),
        t=draw(ints),
        geometry=DAVIS,
        labels=draw(st.lists(st.integers(-1, 5), min_size=m, max_size=m)) if labelled else None,
    )


@given(event_streams())
@settings(max_examples=50, deadline=None)
def test_csv_write_parse_roundtrip(stream):
    buf = io.StringIO()
    write_events_csv(stream, buf)
    again = parse_events(io.StringIO(buf.getvalue()), DAVIS)
    for name in ("t", "i", "j"):
        np.testing.assert_array_equal(getattr(again, name), getattr(stream, name))
    assert again.has_labels == stream.has_labels
    if stream.has_labels:
        np.testing.assert_array_equal(again.labels, stream.labels)


@pytest.mark.parametrize("labels", [None, [0, 1, -1, -1, 0], [-7, -1, 2**40, 3, -(2**40)]],
                         ids=["unlabelled", "labelled", "negative-labels"])
def test_write_events_csv_bytes_equal_the_row_writer(labels):
    stream = EventStream(i=[0, 5, 345, 7, 7], j=[259, 0, 3, 3, 3], t=[0, 1, 2**45, 99, 99],
                         geometry=DAVIS, labels=labels)
    fast, rows = io.StringIO(), io.StringIO()
    write_events_csv(stream, fast)
    oracles.write_events_csv(stream, rows)
    assert fast.getvalue() == rows.getvalue()


def rows_text(columns, sep=","):
    buf = io.StringIO()
    write_rows(buf, "", columns, sep)
    return buf.getvalue()


INT64 = np.iinfo(np.int64)
_EXTREMES = [INT64.min, INT64.min + 1, -(10**18), -10, -9, -1, 0, 1, 9, 10, 10**18,
             INT64.max - 1, INT64.max]


@pytest.mark.parametrize("n_columns", [1, 2, 3, 4])
def test_int_rows_equal_percent_d_at_the_int64_extremes_in_every_column(n_columns):
    rng = np.random.default_rng(n_columns)
    columns = [rng.permutation(np.r_[_EXTREMES, rng.integers(INT64.min, INT64.max, 50) >>
                                     rng.integers(0, 64, 50)]) for _ in range(n_columns)]
    row = ",".join(["%d"] * n_columns) + "\n"
    assert rows_text(columns) == oracles.format_rows(row, columns)
    for k in (0, 1):
        one = [c[k:k + 1] for c in columns]
        assert rows_text(one) == oracles.format_rows(row, one)
    assert rows_text([c[:0] for c in columns]) == ""


def _float_edges() -> np.ndarray:
    """Doubles where a %.17g field can go wrong, each also one ulp either
    side: the subnormals, +-0, nan, +-inf, the 1e-6 and 1e17 edges of the
    two-product window, the powers of ten, integers near 2**53, and exact
    halves at the 17th digit (x * 10 or x * 100 ends in .5, both ways of
    rounding to even)."""
    edges = np.array([5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 0.0, 1e-6, 1e17,
                      2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 54,
                      1e15 + 0.25, 1e15 + 0.75, 1234567890123456.25, 1e14 + 0.125, 1e14 + 0.375,
                      0.5, 1.5, 2.5, 1.0, 100.0, 123.0, 1.0 / 3.0]
                     + [10.0 ** k for k in range(-8, 24)])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    edges = np.concatenate([edges, -edges])
    return np.concatenate([edges, [np.nan, -np.nan, np.inf, -np.inf]])


def test_float_field_is_percent_17g_over_random_bit_patterns_and_edges():
    # a million random bit patterns span the whole double range (nan, inf and
    # subnormals included); half a million more keep the exponent inside the
    # two-product window, where nearly every value in a data file lies
    rng = np.random.default_rng(20240115)
    anywhere = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64)
    mantissa = rng.integers(0, 2 ** 52, 5 * 10 ** 5, dtype=np.uint64)
    exponent = rng.integers(1023 - 20, 1023 + 57, 5 * 10 ** 5).astype(np.uint64)
    sign = rng.integers(0, 2, 5 * 10 ** 5, dtype=np.uint64)
    window = (sign << np.uint64(63) | exponent << np.uint64(52) | mantissa).view(np.float64)
    for values in (_float_edges(), anywhere, window):
        with np.errstate(all="raise"):
            fast = rows_text([values])
        want = ["%.17g\n" % v for v in values.tolist()]
        if fast != "".join(want):
            got = fast.splitlines(keepends=True)
            bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
            pytest.fail(f"{len(got)} lines for {len(want)} values; first mismatches {bad[:5]}")


@pytest.mark.parametrize("labels", [False, True], ids=["unlabelled", "labelled"])
def test_write_events_csv_writes_any_int64_as_the_row_writer(labels):
    # the writer formats whatever int64 a stream holds; the columns are set
    # after construction, past the stream's own range checks
    stream = EventStream(i=[0], j=[0], t=[0], geometry=DAVIS, labels=[0] if labels else None)
    rng = np.random.default_rng(3)
    for name in ("t", "i", "j") + (("labels",) if labels else ()):
        setattr(stream, name, rng.permutation(np.array(_EXTREMES, dtype=np.int64)))
    fast, rows = io.StringIO(), io.StringIO()
    write_events_csv(stream, fast)
    oracles.write_events_csv(stream, rows)
    assert fast.getvalue() == rows.getvalue()


def davis_like_stream(n, labels=True, seed=0):
    """n events over the DAVIS sensor in about a second of microseconds."""
    rng = np.random.default_rng(seed)
    return EventStream(i=rng.integers(0, DAVIS[0], n), j=rng.integers(0, DAVIS[1], n),
                       t=np.sort(rng.integers(0, 10**6, n)), geometry=DAVIS,
                       labels=rng.integers(-1, 3, n) if labels else None)


def spy_row_blocks(monkeypatch, module):
    """Every row_blocks call `module` makes, as (row_bytes, blocks)."""
    calls = []

    def spy(n, row_bytes):
        blocks = tensor_ops.row_blocks(n, row_bytes)
        calls.append((row_bytes, blocks))
        return blocks

    monkeypatch.setattr(module, "row_blocks", spy)
    return calls


def block_rows(row_bytes):
    """Rows in each full block that row_blocks cuts for `row_bytes`."""
    return tensor_ops.row_blocks(1 << 24, row_bytes)[0].stop


@pytest.mark.parametrize("labels", [False, True], ids=["unlabelled", "labelled"])
def test_write_events_csv_is_the_row_writer_at_block_boundaries(monkeypatch, labels):
    calls = spy_row_blocks(monkeypatch, events)
    write_events_csv(davis_like_stream(3, labels), io.StringIO())
    block = block_rows(calls[-1][0])
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        stream = davis_like_stream(n, labels, seed=n)
        if labels:
            stream.labels[::3] = -(2**40)  # negative, and wider than the others
        fast, rows = io.StringIO(), io.StringIO()
        write_events_csv(stream, fast)
        oracles.write_events_csv(stream, rows)
        assert fast.getvalue() == rows.getvalue(), n
        assert len(calls[-1][1]) == -(-n // block), n


def report_for(stream, seed=0):
    """A report over `stream` whose scores include nan, +-inf and -0.0."""
    scores = np.random.default_rng(seed).normal(size=len(stream))
    scores[::7] = -0.0
    scores[1::7] = np.nan
    scores[2::7] = np.inf
    scores[3::7] = -np.inf
    scores[4::7] *= 1e300
    return DenoiseReport(threshold=0.0, scores=scores, kept=scores >= 0.0)


@pytest.mark.parametrize("labels", [False, True], ids=["unlabelled", "labelled"])
def test_write_report_csv_is_one_format_rows_at_block_boundaries(monkeypatch, labels):
    # the report's rows go through events.write_rows, which cuts the blocks
    calls = spy_row_blocks(monkeypatch, events)
    write_report_csv(davis_like_stream(3, labels), report_for(davis_like_stream(3)), io.StringIO())
    block = block_rows(calls[-1][0])
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        stream = davis_like_stream(n, labels, seed=n)
        report = report_for(stream, seed=n)
        buf = io.StringIO()
        write_report_csv(stream, report, buf)
        label = (stream.labels,) if labels else ()
        whole = oracles.format_rows("%d," * (3 + len(label)) + "%.17g,%d\n",
                                    (stream.t, stream.i, stream.j, *label, report.scores,
                                     report.kept))
        header = "t,i,j,label,score,kept\n" if labels else "t,i,j,score,kept\n"
        assert buf.getvalue() == header + whole, n
        assert len(calls[-1][1]) == -(-n // block), n
    for cell in (",-0,", ",nan,", ",inf,", ",-inf,"):
        assert cell in buf.getvalue()


def test_each_data_table_is_one_row_writer_pass_per_file(monkeypatch, tmp_path):
    # the event CSV, the denoise report, the trace (also one with a header
    # and no rows) and the checkpoint each open their file once and cut
    # their rows into blocks once
    calls = spy_row_blocks(monkeypatch, events)
    stream = davis_like_stream(5)
    record = solver.TraceRecord(s=0, f=1, objective=0.5, rel_change=1.0)
    factors = oracles.random_factors(np.random.default_rng(0), (4, 3, 2), 2)
    writes = {
        "events": (lambda p: write_events_csv(stream, p), 5),
        "report": (lambda p: write_report_csv(stream, report_for(stream), p), 5),
        "trace": (lambda p: solver.write_trace_csv(SimpleNamespace(trace=[record] * 3), p,
                                                   metadata={"seed": 0}), 3),
        "empty_trace": (lambda p: solver.write_trace_csv(SimpleNamespace(trace=[]), p), 0),
        "checkpoint": (lambda p: solver.save_checkpoint(factors, p), 4 + 3 + 2),
    }
    for name, (write, rows) in writes.items():
        del calls[:]
        with mock.patch("builtins.open", wraps=open) as opened:
            write(tmp_path / name)
        assert opened.call_count == 1, name
        assert len(calls) == 1 and sum(len(range(rows)[b]) for b in calls[0][1]) == rows, name
    text = (tmp_path / "empty_trace").read_text()
    assert text == "s,f,objective,rel_change\n"


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scale", [1, 4])
def test_csv_io_peak_memory_is_a_block_not_the_stream(tmp_path, scale):
    # the DAVIS scene's 57,843 events, and four times as many: each writer
    # holds one block of formatted rows, the reader no list of lines
    stream = davis_like_stream(57_843 * scale)
    path = tmp_path / "events.csv"
    assert peak_bytes(lambda: write_events_csv(stream, path)) < (
        2 * tensor_ops.BLOCK_BYTES + (1 << 20))
    report = report_for(stream)
    assert peak_bytes(lambda: write_report_csv(stream, report, tmp_path / "report.csv")) < (
        2 * tensor_ops.BLOCK_BYTES + (1 << 20))
    parsed = peak_bytes(lambda: parse_events(path, DAVIS))
    assert parsed < peak_bytes(lambda: oracles.parse_events_readlines(path, DAVIS))
    # at its peak the parse holds the text and the decoded (n, 4) body, whose
    # columns the stream keeps as views
    assert parsed < 2 * 8 * 4 * len(stream) + (1 << 16)
    again = parse_events(path, DAVIS)
    for name in ("t", "i", "j", "labels"):
        np.testing.assert_array_equal(getattr(again, name), getattr(stream, name))


def test_a_clean_davis_sized_csv_parses_as_readlines_into_views_of_one_body(tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(davis_like_stream(57_843), path)
    parsed, oracle = parse_events(path, DAVIS), oracles.parse_events_readlines(path, DAVIS)
    for name in ("t", "i", "j", "labels", "t_min", "t_max"):
        np.testing.assert_array_equal(getattr(parsed, name), getattr(oracle, name))
    # the stream's columns are the decoded body's, not copies out of it
    body = parsed.t.base
    assert body is not None and body.shape == (len(parsed), 4)
    assert all(getattr(parsed, name).base is body for name in ("i", "j", "labels"))


def test_bin_to_tensor_peak_memory_is_event_sized_not_sensor_sized():
    # the DAVIS scene's 57,843 events over 346 x 260 x 100 cells: a dense
    # uint8 scatter alone takes 9.0 MB, the sorted cells a few event-sized arrays
    stream = davis_like_stream(57_843)
    assert peak_bytes(lambda: bin_to_tensor(stream, 100)) < 4 * 8 * len(stream)


def test_single_event_with_declared_range():
    stream = EventStream(i=[2], j=[3], t=[50], geometry=(5, 5), t_min=0, t_max=100)
    tensor = bin_to_tensor(stream, 2)
    expected = np.zeros((5, 5, 2), dtype=np.uint8)
    expected[2, 3, 1] = 1
    np.testing.assert_array_equal(tensor.data, expected)


def test_declared_range_must_cover_events():
    with pytest.raises(ValueError):
        EventStream(i=[2], j=[3], t=[50], geometry=(5, 5), t_min=60, t_max=100)


@pytest.mark.parametrize("geometry", [(2.5, 3), (True, 3), (3,), (3, 3, 1)],
                         ids=["fractional", "bool", "one-entry", "three-entry"])
def test_a_geometry_that_is_not_two_integers_is_refused_at_construction(geometry):
    # unchecked, 2.5 rows failed later in bin_to_tensor, True was read as
    # one row, and a wrong entry count failed on tuple unpacking
    with pytest.raises(ValueError, match=r"^geometry must "):
        EventStream(i=[0], j=[0], t=[0], geometry=geometry)


@pytest.mark.parametrize("name,value", [
    ("i", [1.7, 2.2]), ("j", [0.0, 1.0]), ("t", [5.9, 3.1]), ("labels", [0.5, -1.0]),
    ("i", [True, False]), ("labels", [True, False]), ("t", ["5", "3"]),
], ids=["i-float", "j-float", "t-float", "labels-float", "i-bool", "labels-bool", "t-str"])
def test_an_event_array_that_is_not_integer_is_refused_by_name(name, value):
    # the cast to int64 truncated these: i = [1.7, 2.2] became [1, 2], and
    # t = [5.9, 3.1] sorted as [3, 5]
    fields = dict(i=[1, 2], j=[0, 1], t=[5, 3], geometry=(4, 4), labels=[0, -1])
    with pytest.raises(ValueError, match=f"^{name} must hold integers"):
        EventStream(**{**fields, name: value})


@pytest.mark.parametrize("name,value", [("t_min", 2.5), ("t_max", 9.0), ("t_max", np.float64(9)),
                                        ("t_min", True)],
                         ids=["t_min-fractional", "t_max-float", "t_max-np-float", "t_min-bool"])
def test_a_window_bound_that_is_not_an_integer_is_refused_by_name(name, value):
    # a t_min of 2.5 became 2, and True became 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        EventStream(i=[1, 2], j=[0, 1], t=[5, 3], geometry=(4, 4), **{name: value})


@pytest.mark.parametrize("values", [[], np.array([], dtype=np.float64)], ids=["list", "float64"])
def test_an_empty_stream_is_refused_as_empty_whatever_its_dtype(values):
    with pytest.raises(EmptyStreamError):
        EventStream(i=values, j=values, t=values, geometry=(4, 4), labels=values)


@pytest.mark.parametrize("name,value", [("cells", [0.9, 3.2]), ("cells", [False, True]),
                                        ("bin_edges", [0, 1.5, 2.7]), ("bin_edges", [0.0, 1.0, 2.0])],
                         ids=["cells-float", "cells-bool", "edges-fractional", "edges-float"])
def test_a_tensor_array_that_is_not_integer_is_refused_by_name(name, value):
    # cells [0.9, 3.2] became [0, 3], and edges [0, 1.5, 2.7] became [0, 1, 2]
    fields = dict(cells=[0, 3], dims=(2, 2, 2), bin_edges=[0, 1, 2])
    with pytest.raises(ValueError, match=f"^{name} must hold integers"):
        EventTensor(**{**fields, name: value})


@pytest.mark.parametrize("dims", [(2, 2, 2.5), (2, True, 2), (2, 2)],
                         ids=["fractional", "bool", "two-entry"])
def test_tensor_dims_that_are_not_three_integers_are_refused_by_name(dims):
    # (2, 2, 2.5) became (2, 2, 2)
    with pytest.raises(ValueError, match="^dims must "):
        EventTensor(cells=[0], dims=dims, bin_edges=[0, 1, 2])


@pytest.mark.parametrize("n_bins", [2.5, 2.0, True, np.float64(2)],
                         ids=["fractional", "float", "bool", "np-float"])
def test_a_segment_count_that_is_not_an_integer_is_refused_by_name(n_bins):
    # 2.5 failed on the cells with a message that did not name the count,
    # and True binned into one frame
    stream = EventStream(i=[1, 2], j=[0, 1], t=[5, 3], geometry=(4, 4))
    with pytest.raises(ValueError, match="^segment count must be a positive integer"):
        compute_bin_edges(0, 100, n_bins)
    with pytest.raises(ValueError, match="^segment count must be a positive integer"):
        bin_to_tensor(stream, n_bins)


@pytest.mark.parametrize("geometry", [(0, 3), (3, 0), (-2, 3)])
def test_a_geometry_side_below_1_is_refused_at_construction(geometry):
    # the geometry is named, not an event outside it
    with pytest.raises(ValueError, match=re.escape(
            f"geometry {geometry} needs at least one row and one column")):
        EventStream(i=[0], j=[0], t=[0], geometry=geometry)


@pytest.mark.parametrize("geometry, message", [
    ((3,), "geometry must hold 2 entries, got (3,)"),
    ((2.5, 3), "geometry must be integers, got (2.5, 3)"),
    ((0, 3), "geometry (0, 3) needs at least one row and one column"),
    ((-2, 3), "geometry (-2, 3) needs at least one row and one column"),
], ids=["one-entry", "fractional", "no-row", "negative"])
def test_parse_events_refuses_a_bad_geometry_before_it_reads_the_body(monkeypatch, geometry,
                                                                      message):
    # one was Python's bare "not enough values to unpack", the others were
    # named only after the line path had read every line of the body again,
    # a side below 1 as an event outside the geometry
    lines = []
    monkeypatch.setattr(events, "_parse_lines", lambda *args: lines.append(args))
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_events(io.StringIO("t,i,j\n0,0,0\n1,1,1\n"), geometry)
    assert lines == []


def test_a_time_sorted_stream_is_not_sorted_again(monkeypatch):
    i, j, t = (np.array(v, dtype=np.int64) for v in ([0, 1, 2, 1], [1, 0, 1, 1], [5, 5, 7, 9]))

    def refuse(*args, **kwargs):
        raise AssertionError("a time-sorted stream was sorted")

    monkeypatch.setattr(np, "argsort", refuse)
    stream = EventStream(i=i, j=j, t=t, geometry=(3, 2))
    assert stream.i is i and stream.j is j and stream.t is t


@pytest.mark.parametrize("seed", range(5))
def test_an_unsorted_stream_is_reordered_stably(seed):
    # many equal timestamps: they keep their input order
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 6, 40)
    i, j, labels = rng.integers(0, 3, 40), rng.integers(0, 2, 40), np.arange(40)
    stream = EventStream(i=i, j=j, t=t, geometry=(3, 2), labels=labels)
    order = np.argsort(t, kind="stable")
    for got, raw in ((stream.t, t), (stream.i, i), (stream.j, j), (stream.labels, labels)):
        np.testing.assert_array_equal(got, raw[order])


def test_binarization_same_pixel_same_bin():
    stream = EventStream(i=[1, 1], j=[1, 1], t=[10, 12], geometry=(3, 3),
                         t_min=0, t_max=100)
    tensor = bin_to_tensor(stream, 2)
    assert tensor.data[1, 1, 0] == 1
    assert tensor.data.sum() == 1


def test_t_max_lands_in_last_bin():
    stream = EventStream(i=[0, 0], j=[0, 0], t=[0, 100], geometry=(2, 2))
    tensor = bin_to_tensor(stream, 4)
    assert tensor.data[0, 0, 3] == 1


def test_bad_bin_count():
    stream = EventStream(i=[0], j=[0], t=[0], geometry=(2, 2), t_min=0, t_max=100)
    with pytest.raises(ValueError):
        bin_to_tensor(stream, 0)


def test_range_too_narrow_for_bins():
    stream = EventStream(i=[0, 1], j=[0, 0], t=[0, 3], geometry=(2, 2))
    with pytest.raises(ValueError):
        bin_to_tensor(stream, 10)


def test_empty_bins_allowed():
    # two distinct timestamps, plenty of range: most bins stay empty
    stream = EventStream(i=[0, 1], j=[0, 1], t=[0, 1000], geometry=(2, 2))
    tensor = bin_to_tensor(stream, 10)
    assert tensor.data.sum() == 2


def test_bin_edges_near_equal_widths():
    edges = compute_bin_edges(0, 103, 10)
    assert len(edges) == 11
    widths = np.diff(edges)
    assert widths.min() >= 1
    assert widths.max() - widths.min() <= 1
    assert edges[0] == 0 and edges[-1] == 103


def test_density():
    stream = EventStream(i=[0], j=[0], t=[0], geometry=(2, 2), t_min=0, t_max=10)
    tensor = bin_to_tensor(stream, 2)
    assert tensor_density(tensor) == pytest.approx(1 / 8)

    edges = tensor.bin_edges
    assert tensor_density(oracles.event_tensor(np.zeros((2, 2, 2)), edges)) == 0.0
    assert tensor_density(oracles.event_tensor(np.ones((2, 2, 2)), edges)) == 1.0


def test_davis_scale_density():
    # 56205 unique activations on 346x260x100 comes out near 0.62%
    rng = np.random.default_rng(0)
    rows, cols, frames = 346, 260, 100
    n_active = 56205
    flat = rng.choice(rows * cols * frames, size=n_active, replace=False)
    i, rem = np.divmod(flat, cols * frames)
    j, n = np.divmod(rem, frames)
    t = n * 1000 + rng.integers(0, 1000, size=n_active)
    stream = EventStream(i=i, j=j, t=t, geometry=(rows, cols), t_min=0, t_max=frames * 1000)
    tensor = bin_to_tensor(stream, frames)
    assert tensor.data.sum() == n_active
    assert tensor_density(tensor) == pytest.approx(0.0062, abs=2e-4)


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_binarization_idempotent_and_order_invariant(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    i = rng.integers(0, 6, size=m)
    j = rng.integers(0, 5, size=m)
    t = rng.integers(0, 1000, size=m)
    base = EventStream(i=i, j=j, t=t, geometry=(6, 5), t_min=0, t_max=1000)
    dup = EventStream(i=np.r_[i, i], j=np.r_[j, j], t=np.r_[t, t],
                      geometry=(6, 5), t_min=0, t_max=1000)
    perm = rng.permutation(m)
    shuffled = EventStream(i=i[perm], j=j[perm], t=t[perm],
                           geometry=(6, 5), t_min=0, t_max=1000)
    a = bin_to_tensor(base, 8).data
    np.testing.assert_array_equal(a, bin_to_tensor(dup, 8).data)
    np.testing.assert_array_equal(a, bin_to_tensor(shuffled, 8).data)
    # conservation: ones never exceed the event count
    assert a.sum() <= m


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_bin_to_tensor_cells_are_the_dense_scatter(seed):
    # every event twice, and frames past t = 400 of 0..1000 left empty
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 60))
    i, j, t = rng.integers(0, 5, m), rng.integers(0, 4, m), rng.integers(0, 400, m)
    stream = EventStream(i=np.r_[i, i], j=np.r_[j, j], t=np.r_[t, t], geometry=(5, 4),
                         t_min=0, t_max=1000)
    tensor = bin_to_tensor(stream, 9)
    dense = oracles.bin_to_tensor_dense(stream, 9)
    assert tensor.dims == dense.shape
    np.testing.assert_array_equal(tensor.cells, np.flatnonzero(dense))
    assert tensor.data.dtype == np.uint8
    np.testing.assert_array_equal(tensor.data, dense)


@pytest.mark.parametrize("cells", [[3, 1], [1, 1], [-1], [24]],
                         ids=["descending", "repeated", "negative", "past-the-end"])
def test_event_tensor_rejects_cells_that_are_not_ascending_distinct_and_inside(cells):
    with pytest.raises(ValueError, match="ascending, distinct flat indices"):
        EventTensor(cells=cells, dims=(2, 3, 4), bin_edges=np.arange(5))


def test_the_pipeline_never_builds_the_dense_tensor(monkeypatch, tmp_path):
    from evtensor.denoise import score_events
    from evtensor.evaluation import classify_factors
    from evtensor.solver import SolverConfig, solve
    from evtensor.synth import generate, load_scene_spec

    def refuse(self):
        raise AssertionError("EventTensor.data was read")

    monkeypatch.setattr(EventTensor, "data", property(refuse))
    spec = load_scene_spec(oracles.REF_SCENE)
    stream = generate(spec)
    tensor = bin_to_tensor(stream, spec.n_frames)
    factors, _ = solve(tensor, SolverConfig(s_max=5))
    for task in ("objects", "noise"):
        classify_factors(stream, tensor, factors, task)
    assert len(score_events(stream, tensor, factors)) == len(stream)
    write_tensor_dump(tensor, tmp_path / "dump.txt")
    assert 0 < tensor_density(tensor) < 1


def test_tensor_dump_roundtrip(tmp_path):
    stream = EventStream(i=[0, 1, 2], j=[0, 1, 0], t=[0, 50, 100], geometry=(3, 2))
    tensor = bin_to_tensor(stream, 4)
    path = str(tmp_path / "dump.txt")
    write_tensor_dump(tensor, path)
    with open(path) as fh:
        assert fh.readline().strip() == "3 2 4"
    np.testing.assert_array_equal(read_tensor_dump(path), tensor.data)


def test_tensor_dump_order_is_n_outer_i_middle_j_inner():
    data = np.zeros((2, 2, 2), dtype=np.uint8)
    data[1, 0, 0] = 1  # (i=1, j=0, n=0) -> position n*I*J + i*J + j = 2
    stream_buf = io.StringIO()
    write_tensor_dump(oracles.event_tensor(data), stream_buf)
    body = stream_buf.getvalue().split("\n", 1)[1].split()
    assert [int(v) for v in body] == [0, 0, 1, 0, 0, 0, 0, 0]


def _dump_text(data) -> str:
    buf = io.StringIO()
    write_tensor_dump(oracles.event_tensor(data), buf)
    return buf.getvalue()


def test_tensor_dump_roundtrip_random_tensor():
    data = np.random.default_rng(4).integers(0, 2, size=(5, 7, 3), dtype=np.uint8)
    got = read_tensor_dump(io.StringIO(_dump_text(data)))
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, data)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_tensor_dump_rejects_entries_other_than_0_and_1(tmp_path, bad):
    # only an EventTensor, which holds 1-cells and nothing else, is dumped: an
    # array is refused before the stream is written or the file is made
    data = np.zeros((2, 3, 4))
    data[1, 2, 3] = bad
    buf, path = io.StringIO(), tmp_path / "dump.txt"
    for target in (buf, path):
        with pytest.raises(TypeError, match=r"takes an EventTensor\(cells, dims, bin_edges\), "
                                            r"as bin_to_tensor makes it, not ndarray"):
            write_tensor_dump(data, target)
    assert buf.getvalue() == "" and not path.exists()


@pytest.mark.parametrize("cut", [2, 3, 16])
def test_truncated_tensor_dump_raises(cut):
    text = _dump_text(np.ones((3, 4, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="dump holds .* values, expected 24"):
        read_tensor_dump(io.StringIO(text[:-cut]))


def test_tensor_dump_with_a_foreign_character_raises():
    text = _dump_text(np.ones((2, 2, 2), dtype=np.uint8))
    header, body = text.split("\n", 1)
    with pytest.raises(ValueError, match="0/1 digits"):
        read_tensor_dump(io.StringIO(header + "\n" + body.replace("1", "7", 1)))


def _corrupt_separator(text: str, old: str, new: str) -> str:
    header, body = text.split("\n", 1)
    return header + "\n" + body.replace(old, new, 1)


@pytest.mark.parametrize("corrupt", [
    lambda text: _corrupt_separator(text, " ", "x"),
    lambda text: _corrupt_separator(text, " ", ","),
    lambda text: _corrupt_separator(text, " ", "\t"),
    lambda text: text[:-1],
    lambda text: _corrupt_separator(text, "\n", " "),
], ids=["x", "comma", "tab", "no-final-newline", "lines-joined-by-a-space"])
def test_tensor_dump_with_a_wrong_separator_raises(corrupt):
    text = _dump_text(np.random.default_rng(6).integers(0, 2, size=(3, 4, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="0/1 digits, one space apart"):
        read_tensor_dump(io.StringIO(corrupt(text)))


_ODD = list(oracles.odd_tensors())


@pytest.mark.parametrize("data", [d for _, d in _ODD], ids=[name for name, _ in _ODD])
def test_binary_check_agrees_with_the_count_check(data):
    # an array's nonzeros as cells give it back through .data exactly when
    # every entry is 0 or 1: the check oracles.event_tensor makes before a
    # test hands a dense array to the library
    tensor = EventTensor(np.flatnonzero(data), data.shape, np.arange(data.shape[2] + 1))
    assert tensor.data.dtype == np.uint8 and tensor.data.shape == data.shape
    assert np.array_equal(tensor.data, data) == oracles.is_binary(data)
    if not oracles.is_binary(data):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            oracles.event_tensor(data)


@pytest.mark.parametrize("data", [d for _, d in _ODD], ids=[name for name, _ in _ODD])
def test_tensor_dump_from_the_nonzeros_equals_the_per_frame_dump(data):
    # the dump of every 0/1 array's cells against the per-frame dump of its
    # dense data; no array itself is dumped, 0/1 or not
    fast, frames = io.StringIO(), io.StringIO()
    with pytest.raises(TypeError, match="takes an EventTensor"):
        write_tensor_dump(data, fast)
    assert fast.getvalue() == ""
    if oracles.is_binary(data):
        tensor = oracles.event_tensor(data)
        write_tensor_dump(tensor, fast)
        oracles.write_tensor_dump(tensor, frames)
        assert fast.getvalue() == frames.getvalue()


def test_tensor_dump_groups_by_the_solvers_mode_n_plan(monkeypatch):
    # a DAVIS-sized E (260 x 346 x 100, 0.64% dense) with empty frames first,
    # last and between: the dump's frames are the runs of the one sort plan
    # the solver makes for mode n, and its text is the per-frame dump's
    dims = (260, 346, 100)
    data = (np.random.default_rng(5).random(dims) < 0.0064).astype(np.uint8)
    data[:, :, [0, 1, 50, 99]] = 0
    tensor = oracles.event_tensor(data)
    made, of = [], tensor_ops.CooPlan.of

    def spy(dims, flat, mode):
        made.append(mode)
        return of(dims, flat, mode)

    monkeypatch.setattr(tensor_ops.CooPlan, "of", spy)
    fast, frames = io.StringIO(), io.StringIO()
    write_tensor_dump(tensor, fast)
    oracles.write_tensor_dump(tensor, frames)
    assert made == ["n"]
    assert fast.getvalue() == frames.getvalue()


@pytest.mark.parametrize("header", ["", "3 4\n", "3 4 x\n", "3 -4 2\n"],
                         ids=["empty", "short", "non-integer", "negative"])
def test_unreadable_tensor_dump_header_names_line_1(header):
    with pytest.raises(ValueError, match=r"line 1 must hold the positive integers I J N,"):
        read_tensor_dump(io.StringIO(header + "0 1 0 1\n"))
