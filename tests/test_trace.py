"""Trace data model and file format."""

import sys
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdiag import trace as trace_module
from netdiag.errors import BadHeader, EmptyTrace, MalformedRow
from netdiag.simulate import LinkParams, ClientParams, simulate_flow
from netdiag.trace import (
    DIRECTIONS,
    FIELDS,
    CapturePoint,
    Direction,
    TracePair,
    TraceRecord,
    TransferDirection,
    _bulk_table,
    _cell_table,
    _format_ts,
    read_pair,
    read_trace,
    write_pair,
    write_trace,
)
from packets import columns, ev, record

HEADER = "#capture=client,transfer=download,bytes=1000"
COLS = "ts,dir,seq,ack,len,syn,fin,rst,ack_flag,win,sack_cnt"


def write_lines(path, *rows):
    path.write_text("\n".join([HEADER, COLS, *rows]) + "\n", encoding="utf-8")


class TestRead:
    def test_three_rows(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(
            f,
            "0.000125,c2s,17,0,1448,0,0,0,1,65535,0",
            "0.000300,s2c,1,1465,0,0,0,0,1,32768,2",
            "0.000500,c2s,1465,1,1448,0,0,0,1,65535,0",
        )
        t = read_trace(f)
        assert len(t.events) == 3
        assert t.capture_point is CapturePoint.CLIENT
        assert t.direction_of_transfer is TransferDirection.DOWNLOAD
        assert t.declared_transfer_bytes == 1000
        assert t.events.payload_len[0] == 1448 and t.events.sack_cnt[1] == 2

    def test_rows_sorted_by_ts(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(
            f,
            "0.200000,c2s,0,0,10,0,0,0,0,100,0",
            "0.100000,c2s,1,0,10,0,0,0,0,100,0",
        )
        t = read_trace(f)
        assert t.events.ts.tolist() == [0.1, 0.2]
        assert t.events.seq[0] == 1

    def test_sort_is_stable_on_ties(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(
            f,
            "0.100000,c2s,7,0,10,0,0,0,0,100,0",
            "0.100000,c2s,8,0,10,0,0,0,0,100,0",
            "0.050000,c2s,9,0,10,0,0,0,0,100,0",
        )
        t = read_trace(f)
        assert t.events.seq.tolist() == [9, 7, 8]

    def test_bad_direction_is_malformed_row(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, "0.100000,X,0,0,10,0,0,0,0,100,0")
        with pytest.raises(MalformedRow) as err:
            read_trace(f)
        assert err.value.row_index == 1

    GOOD = "0.100000,c2s,0,0,10,0,0,0,0,100,0"

    @pytest.mark.parametrize(
        "rows, bad_row",
        [
            (["nan,c2s,0,0,10,0,0,0,0,100,0"], 1),
            ([GOOD, "inf,c2s,0,0,10,0,0,0,0,100,0"], 2),
            ([GOOD, "-0.5,c2s,0,0,10,0,0,0,0,100,0"], 2),
            ([GOOD, "0.1,c2s,4294967296,0,10,0,0,0,0,100,0"], 2),
            ([GOOD, "0.1,c2s,0,-1,10,0,0,0,0,100,0"], 2),
            ([GOOD, "0.1,c2s,0,0,-10,0,0,0,0,100,0"], 2),
            ([GOOD, "0.1,c2s,0,0,10,0,0,0,0,100,99999999999999999999"], 2),
            ([GOOD, "0.1,c2s,0,0,10,0,0,2,0,100,0"], 2),
            ([GOOD, "0.1,c2s,0,0,x,0,0,0,0,100,0"], 2),
            # the first bad row counts, whichever check finds it
            ([GOOD, GOOD, "0.1,c2s,0,0,10,0,0,0,0,100", "x,c2s,0,0,10,0,0,0,0,100,0"], 3),
            ([GOOD, "0.1,c2s,0,0,10,0,0,0,0,-1,0", "0.1,c2s,0,0,10,0,0,0,0,100"], 2),
            ([GOOD, "0.1,c2s,0,0,10,0,0,0,0,100,x", "0.1,X,0,0,10,0,0,0,0,100,0"], 2),
            # blank lines are skipped but counted
            ([GOOD, "", GOOD, "0.1,c2s,0,0,10,0,0,0,0,100,-2"], 4),
        ],
    )
    def test_first_bad_row_is_reported(self, tmp_path, rows, bad_row):
        f = tmp_path / "t.csv"
        write_lines(f, *rows)
        with pytest.raises(MalformedRow) as err:
            read_trace(f)
        assert err.value.row_index == bad_row

    def test_crlf_line_ends(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes("\r\n".join([HEADER, COLS, self.GOOD, self.GOOD, ""]).encode())
        assert len(read_trace(f).events) == 2

    def test_column_count_mismatch(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, "0.1,c2s,0,0,10,0,0,0,0,100")
        with pytest.raises(MalformedRow):
            read_trace(f)

    def test_empty_trace(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f)
        with pytest.raises(EmptyTrace):
            read_trace(f)

    def test_missing_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(COLS + "\n0.1,c2s,0,0,10,0,0,0,0,100,0\n", encoding="utf-8")
        with pytest.raises(BadHeader):
            read_trace(f)

    @pytest.mark.parametrize("declared", ["0", "-5"])
    def test_non_positive_bytes_is_bad_header(self, tmp_path, declared):
        f = tmp_path / "t.csv"
        f.write_text(f"#capture=client,transfer=download,bytes={declared}\n{COLS}\n{self.GOOD}\n")
        with pytest.raises(BadHeader) as err:
            read_trace(f)
        assert str(f) in str(err.value) and "bytes" in str(err.value)

    def test_bad_metadata_field(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("#capture=client,transfer=download\n" + COLS + "\n0.1,c2s,0,0,1,0,0,0,0,1,0\n")
        with pytest.raises(BadHeader):
            read_trace(f)

    def test_payload_on_syn_warns_but_reads(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, "0.100000,c2s,0,0,10,1,0,0,0,100,0")
        with pytest.warns(UserWarning):
            t = read_trace(f)
        assert t.events.syn[0] and t.events.payload_len[0] == 10

    def test_payload_warning_names_file_row_when_unsorted(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(
            f,
            "0.200000,c2s,0,0,0,0,0,0,1,100,0",
            "",
            "0.100000,c2s,0,0,10,1,0,0,0,100,0",
            "0.300000,s2c,0,0,5,0,1,0,1,100,0",
        )
        with pytest.warns(UserWarning) as record:
            t = read_trace(f)
        assert [str(w.message).split(": ", 1)[1] for w in record] == [
            "row 3 carries payload on a syn/fin/rst packet",
            "row 4 carries payload on a syn/fin/rst packet",
        ]
        assert t.events.ts.tolist() == [0.1, 0.2, 0.3]


class TestWrite:
    def test_refuses_empty(self, tmp_path):
        t = record([])
        with pytest.raises(EmptyTrace):
            write_trace(t, tmp_path / "x.csv")

    def test_ts_has_six_fraction_digits(self, tmp_path):
        t = record([ev(0.5, length=1)])
        f = tmp_path / "x.csv"
        write_trace(t, f)
        row = f.read_text().splitlines()[2]
        assert row.startswith("0.500000,")


row_strategy = st.builds(
    ev,
    ts=st.floats(min_value=0, max_value=1e4, allow_nan=False, allow_infinity=False),
    dir=st.sampled_from(list(Direction)),
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    ack=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=0, max_value=65535),
    syn=st.booleans(),
    fin=st.booleans(),
    rst=st.booleans(),
    ack_flag=st.booleans(),
    win=st.integers(min_value=0, max_value=2**20),
    sack_cnt=st.integers(min_value=0, max_value=4),
)


class TestRecordOrder:
    def test_events_out_of_ts_order_are_sorted_stably(self):
        t = record(ev(ts, seq=seq) for ts, seq in [(1.0, 1), (0.0, 2), (1.0, 3), (0.5, 4), (0.0, 5)])
        assert t.events.ts.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
        assert t.events.seq.tolist() == [2, 5, 4, 1, 3]

    def test_columns_in_order_are_kept(self):
        events = columns([ev(0.0)] * 2)
        assert TraceRecord(CapturePoint.CLIENT, TransferDirection.DOWNLOAD, events, 1000).events is events


class TestRoundTrip:
    @pytest.mark.filterwarnings("ignore:.*carries payload on a syn/fin/rst packet:UserWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(row_strategy, min_size=1, max_size=40),
        capture=st.sampled_from(list(CapturePoint)),
        transfer=st.sampled_from(list(TransferDirection)),
        declared=st.integers(min_value=1, max_value=2**48),
    )
    def test_read_write_identity(self, tmp_path_factory, rows, capture, transfer, declared):
        rows = sorted(rows, key=lambda r: r[0])
        trace = record(rows, capture, transfer, declared)
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_trace(trace, path)
        again = read_trace(path)
        assert again.capture_point == trace.capture_point
        assert again.direction_of_transfer == trace.direction_of_transfer
        assert again.declared_transfer_bytes == trace.declared_transfer_bytes
        assert again.events == trace.events

    def test_awkward_float_round_trips(self, tmp_path):
        ts = 0.1 + 0.2  # 0.30000000000000004
        trace = record([ev(ts, Direction.SERVER_TO_CLIENT, seq=1, ack=2, length=3)])
        f = tmp_path / "x.csv"
        write_trace(trace, f)
        assert read_trace(f).events.ts[0] == ts


class TestPairing:
    def test_pair_roles_enforced(self):
        down = record([ev(0.0, Direction.SERVER_TO_CLIENT, length=1)], CapturePoint.CLIENT, TransferDirection.DOWNLOAD)
        up = record([ev(0.0, Direction.CLIENT_TO_SERVER, length=1)], CapturePoint.SERVER, TransferDirection.UPLOAD)
        TracePair(download=down, upload=up)
        with pytest.raises(ValueError):
            TracePair(download=up, upload=down)


class TestColumns:
    def test_view_over_columns(self):
        rows = [
            ev(0.0, Direction.CLIENT_TO_SERVER, seq=1, syn=True, win=9),
            ev(0.5, Direction.SERVER_TO_CLIENT, seq=7, ack=2, length=3, ack_flag=True),
        ]
        cols = record(rows).events
        assert len(cols) == 2
        assert cols.dir.tolist() == [0, 1] and cols.payload_len.tolist() == [0, 3]
        assert cols.is_dir(Direction.CLIENT_TO_SERVER).tolist() == [True, False]
        assert cols.is_dir(Direction.SERVER_TO_CLIENT).tolist() == [False, True]
        with pytest.raises(ValueError):
            cols.seq[0] = 5
        with pytest.raises(AttributeError):
            cols.seq = np.zeros(2)


def format_ts_reference(ts: float) -> str:
    """The original writer: escalate precision until the string parses back."""
    for digits in range(6, 18):
        s = f"{ts:.{digits}f}"
        if float(s) == ts:
            return s
    return repr(ts)


ROW_FORMAT_REFERENCE = "%s,%s" + ",%d" * (len(FIELDS) - 2)


def write_trace_reference(trace: TraceRecord) -> str:
    """The original per-row writer: one `%` format per packet, with
    format_ts_reference (which TestFormatTs holds equal to _format_ts)
    for the timestamp."""
    ev = trace.events
    names = [d.value for d in DIRECTIONS]
    ints = [getattr(ev, name).astype(np.int64).tolist() for name in FIELDS[2:]]
    rows = zip(map(format_ts_reference, ev.ts.tolist()), [names[d] for d in ev.dir.tolist()], *ints)
    out = [
        f"#capture={trace.capture_point.value},transfer={trace.direction_of_transfer.value},"
        f"bytes={trace.declared_transfer_bytes}",
        COLS,
    ]
    out.extend(map(ROW_FORMAT_REFERENCE.__mod__, rows))
    return "\n".join(out) + "\n"


def _fixed(whole: int, digits: int, frac: int) -> float:
    return float(f"{whole}.{frac % 10**digits:0{digits}d}")


# floats whose repr is in fixed notation with 6-17 fraction digits
FIXED_FLOATS = st.builds(
    _fixed,
    st.one_of(st.integers(0, 100), st.integers(0, 10**15)),
    st.integers(6, 17),
    st.integers(0, 10**17 - 1),
)


class TestFormatTs:
    @settings(max_examples=2000, deadline=None)
    @given(ts=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0, max_value=1e-4),
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=1e15, max_value=1e20),
        FIXED_FLOATS,
    ))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(sys.float_info.min)
    @example(sys.float_info.min / 3)
    @example(9.99e-5)
    @example(1e-4)
    @example(0.1 + 0.2)
    @example(1e16)
    @example(sys.float_info.max)
    @example(2.0**-13)
    @example(0.1 + 0.7)
    def test_matches_precision_escalation(self, ts):
        assert _format_ts(ts) == format_ts_reference(ts)

    @settings(max_examples=3000, deadline=None)
    @given(ts=FIXED_FLOATS)
    def test_fixed_notation(self, ts):
        assert _format_ts(ts) == format_ts_reference(ts)


U32 = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(min_value=0, max_value=2**32 - 1))

# floats whose repr is in fixed notation with 1-5 fraction digits
SHORT_FLOATS = st.builds(
    _fixed,
    st.one_of(st.integers(0, 100), st.integers(0, 10**15)),
    st.integers(1, 5),
    st.integers(0, 10**5 - 1),
)

oracle_row_strategy = st.builds(
    ev,
    ts=st.one_of(
        st.just(0.0),
        SHORT_FLOATS,
        st.floats(min_value=0, max_value=1e-4),
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=1e4, max_value=1e16),
        st.floats(min_value=1e16, max_value=1e20),
        FIXED_FLOATS,
    ),
    dir=st.sampled_from(list(Direction)),
    seq=U32,
    ack=U32,
    length=U32,
    syn=st.booleans(),
    fin=st.booleans(),
    rst=st.booleans(),
    ack_flag=st.booleans(),
    win=U32,
    sack_cnt=U32,
)

# every flag combination in both directions, with extreme integers and
# timestamps on each side of the digit-search boundaries
EVERY_FLAG_COMBINATION = [
    ev(
        ts, d, seq=i, ack=2**32 - 1 - i, length=0 if i % 3 else 2**32 - 1,
        syn=bool(i & 8), fin=bool(i & 4), rst=bool(i & 2), ack_flag=bool(i & 1),
        win=2**32 - 1 if i % 2 else 0, sack_cnt=i,
    )
    for d in Direction
    for i, ts in enumerate([0.0, -0.0, 0.5, 1.25, 9.99e-5, 1e-4, 5e-324, 0.1 + 0.2, 3.00001, 2.0**-13,
                            9999.99999, 1e4, 12345.6, 1e16, 1e20, 3.374238691234896])
]


class TestWriterOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(oracle_row_strategy, min_size=1, max_size=40),
        capture=st.sampled_from(list(CapturePoint)),
        transfer=st.sampled_from(list(TransferDirection)),
        declared=st.integers(min_value=1, max_value=2**48),
    )
    @example(rows=EVERY_FLAG_COMBINATION, capture=CapturePoint.CLIENT,
             transfer=TransferDirection.DOWNLOAD, declared=1)
    def test_writes_reference_bytes(self, tmp_path_factory, rows, capture, transfer, declared):
        trace = record(rows, capture, transfer, declared)
        path = tmp_path_factory.mktemp("oracle") / "t.csv"
        write_trace(trace, path)
        assert path.read_bytes() == write_trace_reference(trace).encode("utf-8")


GOOD_CELLS = dict(zip(trace_module._COLUMNS, TestRead.GOOD.split(",")))


def row(**cells) -> str:
    """TestRead.GOOD with the named cells replaced."""
    return ",".join({**GOOD_CELLS, **cells}.values())


good_event = partial(ev, ts=0.1, length=10, win=100)
NOT_A_FLAG = "is not one of ('0', '1')"


# Warnings are errors here, so a numpy warning from the C reader fails.
@pytest.mark.filterwarnings("error")
class TestReaderPaths:
    """numpy's C reader and the per-cell conversion give identical columns."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(oracle_row_strategy, min_size=1, max_size=40))
    @example(rows=EVERY_FLAG_COMBINATION)
    def test_written_traces_parse_alike_on_both_paths(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("paths") / "t.csv"
        write_trace(record(rows), path)
        rows = path.read_text(encoding="utf-8").splitlines()[2:]
        bulk, bad = _bulk_table(rows), []
        cells = _cell_table(rows, bad)
        assert bulk is not None and not bad
        for field in ("ints", "ts", "words"):
            assert bulk[field].tobytes() == cells[field].tobytes()
        assert bulk["ts"].tobytes() == np.array([float(r.split(",")[0]) for r in rows]).tobytes()

    # Each case gives the parent's columns, or its MalformedRow row and reason.
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([row(syn=" 1")], (1, f"syn ' 1' {NOT_A_FLAG}")),
            ([row(fin="01")], (1, f"fin '01' {NOT_A_FLAG}")),
            ([row(ack_flag="+1")], (1, f"ack_flag '+1' {NOT_A_FLAG}")),
            ([row(dir="c2s\0")], (1, "dir 'c2s\\x00' is not one of ('c2s', 's2c')")),
            ([row(dir="c2sc2s")], (1, "dir 'c2sc2s' is not one of ('c2s', 's2c')")),
            ([row(seq="1_000")], [good_event(seq=1000)]),
            ([row(win="\u0663")], [good_event(win=3)]),
            ([row(seq=" +01 ")], [good_event(seq=1)]),
            ([row(ts="nan")], (1, "ts 'nan' is not finite and non-negative")),
            ([TestRead.GOOD, row(ts="inf")], (2, "ts 'inf' is not finite and non-negative")),
            ([row(ts="-0.0")], [good_event(ts=-0.0)]),
            ([row(ts="1_0.5")], [good_event(ts=10.5)]),
            ([row(ack="4294967296")], (1, "ack '4294967296' is outside [0, 2^32)")),
            ([row(win="4294967296")], (1, "win '4294967296' is outside [0, 2^32)")),
            ([row(sack_cnt="9" * 20)], (1, f"sack_cnt '{'9' * 20}' is not a 64-bit integer")),
            ([row(seq="1.0")], (1, "seq '1.0' is not a 64-bit integer")),
            ([row(ts="0.1#")], (1, "ts '0.1#' is not a 64-bit number")),
            ([row(dir="c2s#")], (1, "dir 'c2s#' is not one of ('c2s', 's2c')")),
            ([TestRead.GOOD, "#" + TestRead.GOOD], (2, "ts '#0.100000' is not a 64-bit number")),
            ([TestRead.GOOD + "\r", row(seq="7") + "\r"], [good_event(), good_event(seq=7)]),
            ([TestRead.GOOD, "", "\r", row(seq="5")], [good_event(), good_event(seq=5)]),
            ([TestRead.GOOD, "", row(seq="-1")], (3, "seq '-1' is outside [0, 2^32)")),
            ([row(ts="2.5", seq="5")], [good_event(ts=2.5, seq=5)]),
            # the first bad row sits before a cell only the per-cell path reads
            ([row(rst=" 1"), row(seq="1_000")], (1, f"rst ' 1' {NOT_A_FLAG}")),
            ([row(len="-1"), row(win="1_000")], (1, "len '-1' is outside [0, 2^32)")),
            ([row(syn="2"), TestRead.GOOD[:-2]], (1, f"syn '2' {NOT_A_FLAG}")),
            # the C reader drops the cells past the last column it reads
            ([row() + ","], (1, "expected 11 columns, got 12")),
            ([TestRead.GOOD, row() + ",0"], (2, "expected 11 columns, got 12")),
            ([row(sack_cnt="0,junk")], (1, "expected 11 columns, got 12")),
            # a number column that fails to convert still range-checks the cells before it
            ([row(seq="-1"), row(seq="x")], (1, "seq '-1' is outside [0, 2^32)")),
            ([row(ts="inf"), row(ts="y")], (1, "ts 'inf' is not finite and non-negative")),
        ],
    )
    @pytest.mark.parametrize("path", ["c_reader_first", "per_cell"])
    def test_edge_cells(self, tmp_path, monkeypatch, rows, expected, path):
        if path == "per_cell":
            monkeypatch.setattr(trace_module, "_bulk_table", lambda rows: None)
        f = tmp_path / "t.csv"
        f.write_bytes("\n".join([HEADER, COLS, *rows, ""]).encode("utf-8"))
        if isinstance(expected, tuple):
            with pytest.raises(MalformedRow) as err:
                read_trace(f)
            assert (err.value.row_index, err.value.reason) == (expected[0], f"{f}: {expected[1]}")
        else:
            events = read_trace(f).events
            want = columns(expected)
            assert all(getattr(events, n).tobytes() == getattr(want, n).tobytes() for n in FIELDS)

    def test_integer_read_through_float_takes_the_per_cell_path(self, tmp_path, monkeypatch):
        # numpy 1.23 reads seq=2.7 as 2 with only a DeprecationWarning,
        # which is ignored by default outside __main__.
        real = np.loadtxt

        def loadtxt(rows, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return real([r.replace("2.7", "2") for r in rows], **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        f = tmp_path / "t.csv"
        f.write_text("\n".join([HEADER, COLS, row(seq="2.7"), ""]))
        with warnings.catch_warnings(), pytest.raises(MalformedRow) as err:
            warnings.simplefilter("ignore", DeprecationWarning)
            read_trace(f)
        assert (err.value.row_index, err.value.reason) == (1, f"{f}: seq '2.7' is not a 64-bit integer")

    def test_simulated_trace_never_takes_the_per_cell_path(self, tmp_path, monkeypatch):
        def refuse(rows, bad):
            raise AssertionError("a written trace was converted cell by cell")

        monkeypatch.setattr(trace_module, "_cell_table", refuse)
        lossy = LinkParams(bandwidth=20e6, one_way_delay=0.03, loss_rate=0.02)
        pair = simulate_flow(lossy, ClientParams(seed=1), 256 * 1024, seed=1)
        down, up = tmp_path / "p.down.csv", tmp_path / "p.up.csv"
        write_pair(pair, down, up)
        assert read_pair(down, up) == pair
