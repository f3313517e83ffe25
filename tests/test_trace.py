"""Trace data model and file format."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdiag.errors import BadHeader, EmptyTrace, MalformedRow
from netdiag.trace import (
    CapturePoint,
    Direction,
    PacketEvent,
    TracePair,
    TraceRecord,
    TransferDirection,
    _format_ts,
    read_trace,
    write_trace,
)

HEADER = "#capture=client,transfer=download,bytes=1000"
COLS = "ts,dir,seq,ack,len,syn,fin,rst,ack_flag,win,sack_cnt"


def make_trace(events, capture=CapturePoint.CLIENT, transfer=TransferDirection.DOWNLOAD, bytes_=1000):
    return TraceRecord(
        capture_point=capture,
        direction_of_transfer=transfer,
        events=tuple(events),
        declared_transfer_bytes=bytes_,
    )


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
        assert t.events[0].payload_len == 1448 and t.events[1].sack_cnt == 2

    def test_rows_sorted_by_ts(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(
            f,
            "0.200000,c2s,0,0,10,0,0,0,0,100,0",
            "0.100000,c2s,1,0,10,0,0,0,0,100,0",
        )
        t = read_trace(f)
        assert [e.ts for e in t.events] == [0.1, 0.2]
        assert t.events[0].seq == 1

    def test_sort_is_stable_on_ties(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(
            f,
            "0.100000,c2s,7,0,10,0,0,0,0,100,0",
            "0.100000,c2s,8,0,10,0,0,0,0,100,0",
            "0.050000,c2s,9,0,10,0,0,0,0,100,0",
        )
        t = read_trace(f)
        assert [e.seq for e in t.events] == [9, 7, 8]

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
        assert t.events[0].syn and t.events[0].payload_len == 10

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
        t = make_trace([PacketEvent(ts=0.0, dir=Direction.CLIENT_TO_SERVER, seq=0, ack=0, payload_len=1)])
        t = TraceRecord(t.capture_point, t.direction_of_transfer, (), 1000)
        with pytest.raises(EmptyTrace):
            write_trace(t, tmp_path / "x.csv")

    def test_ts_has_six_fraction_digits(self, tmp_path):
        t = make_trace([PacketEvent(ts=0.5, dir=Direction.CLIENT_TO_SERVER, seq=0, ack=0, payload_len=1)])
        f = tmp_path / "x.csv"
        write_trace(t, f)
        row = f.read_text().splitlines()[2]
        assert row.startswith("0.500000,")


event_strategy = st.builds(
    PacketEvent,
    ts=st.floats(min_value=0, max_value=1e4, allow_nan=False, allow_infinity=False),
    dir=st.sampled_from(list(Direction)),
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    ack=st.integers(min_value=0, max_value=2**32 - 1),
    payload_len=st.integers(min_value=0, max_value=65535),
    syn=st.just(False),
    fin=st.just(False),
    rst=st.just(False),
    ack_flag=st.booleans(),
    win=st.integers(min_value=0, max_value=2**20),
    sack_cnt=st.integers(min_value=0, max_value=4),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(event_strategy, min_size=1, max_size=40),
        capture=st.sampled_from(list(CapturePoint)),
        transfer=st.sampled_from(list(TransferDirection)),
        declared=st.integers(min_value=1, max_value=2**48),
    )
    def test_read_write_identity(self, tmp_path_factory, events, capture, transfer, declared):
        events = sorted(events, key=lambda e: e.ts)
        trace = make_trace(events, capture, transfer, declared)
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_trace(trace, path)
        again = read_trace(path)
        assert again.capture_point == trace.capture_point
        assert again.direction_of_transfer == trace.direction_of_transfer
        assert again.declared_transfer_bytes == trace.declared_transfer_bytes
        assert again.events == trace.events

    def test_awkward_float_round_trips(self, tmp_path):
        ts = 0.1 + 0.2  # 0.30000000000000004
        trace = make_trace([PacketEvent(ts=ts, dir=Direction.SERVER_TO_CLIENT, seq=1, ack=2, payload_len=3)])
        f = tmp_path / "x.csv"
        write_trace(trace, f)
        assert read_trace(f).events[0].ts == ts


class TestPairing:
    def test_pair_roles_enforced(self):
        down = make_trace(
            [PacketEvent(ts=0.0, dir=Direction.SERVER_TO_CLIENT, seq=0, ack=0, payload_len=1)],
            CapturePoint.CLIENT,
            TransferDirection.DOWNLOAD,
        )
        up = make_trace(
            [PacketEvent(ts=0.0, dir=Direction.CLIENT_TO_SERVER, seq=0, ack=0, payload_len=1)],
            CapturePoint.SERVER,
            TransferDirection.UPLOAD,
        )
        TracePair(download=down, upload=up)
        with pytest.raises(ValueError):
            TracePair(download=up, upload=down)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            PacketEvent(ts=-1.0, dir=Direction.CLIENT_TO_SERVER, seq=0, ack=0, payload_len=0)
        with pytest.raises(ValueError):
            PacketEvent(ts=0.0, dir=Direction.CLIENT_TO_SERVER, seq=2**32, ack=0, payload_len=0)
        with pytest.raises(ValueError):
            PacketEvent(ts=float("nan"), dir=Direction.CLIENT_TO_SERVER, seq=0, ack=0, payload_len=0)
        with pytest.raises(ValueError):
            PacketEvent(ts=0.0, dir=Direction.CLIENT_TO_SERVER, seq=0, ack=0, payload_len=0, win=2**32)


class TestColumns:
    def test_view_over_columns(self):
        events = [
            PacketEvent(ts=0.0, dir=Direction.CLIENT_TO_SERVER, seq=1, ack=0, payload_len=0, syn=True, win=9),
            PacketEvent(ts=0.5, dir=Direction.SERVER_TO_CLIENT, seq=7, ack=2, payload_len=3, ack_flag=True),
        ]
        cols = make_trace(events).events
        assert len(cols) == 2
        assert cols[1] == events[1] and cols[-2] == events[0]
        assert list(cols) == events
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
