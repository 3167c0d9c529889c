"""The dataset reader: every way a file is read, refused or cut short.

``read_dataset`` and ``verify_dataset`` share one reader.  Its logical
lines and their numbers are those of ``str.splitlines()`` on the whole
text, so a form feed or a U+2028 ends a line as a newline does.
"""

import gc
import json
import sys
import tracemalloc
import warnings
from unittest import mock

import pytest

from nlsatgen import pipeline
from nlsatgen.pipeline import (
    DatasetError,
    generate_records,
    read_dataset,
    verify_dataset,
    write_dataset,
)
from nlsatgen.solver import BudgetExhaustedError

CONFIG = dict(fragment="grl", sizes=(5,), count_per_size=4, seed=42, strategy="naive")


@pytest.fixture(scope="module")
def lines(tmp_path_factory):
    """The header line and the four record lines of a clean grl dataset."""
    config = pipeline.DatasetConfig(**CONFIG)
    path = tmp_path_factory.mktemp("reader") / "clean.jsonl"
    write_dataset(path, config, generate_records(config))
    header, *records = path.read_text(encoding="utf-8").splitlines()
    assert len(records) == 4
    return header, records


def _lf(parts) -> bytes:
    return "".join(part + "\n" for part in parts).encode("utf-8")


def _header_of(header, **changes) -> str:
    return json.dumps(json.loads(header) | changes, sort_keys=True)


# name -> (file bytes from (header, records), records or the DatasetError text)
READER_CASES = {
    "missing": (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "empty": (lambda h, r: b"", "{path}: empty file"),
    "one newline": (
        lambda h, r: b"\n",
        "{path}: line 1 is not JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    "header not JSON": (
        lambda h, r: _lf(["header", *r]),
        "{path}: line 1 is not JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    "header not an object": (
        lambda h, r: _lf(["[1, 2]", *r]),
        "{path}: first line must be the header object",
    ),
    "wrong schema_version": (
        lambda h, r: _lf([_header_of(h, schema_version=2), *r]),
        "{path}: schema_version 2 unsupported",
    ),
    # both equal 1 in Python, but only the int 1 is version 1
    "schema_version true": (
        lambda h, r: _lf([_header_of(h, schema_version=True), *r]),
        "{path}: schema_version True unsupported",
    ),
    "schema_version 1.0": (
        lambda h, r: _lf([_header_of(h, schema_version=1.0), *r]),
        "{path}: schema_version 1.0 unsupported",
    ),
    "header only": (lambda h, r: _lf([h]), "{path}: no instance records"),
    "LF": (lambda h, r: _lf([h, *r]), 4),
    "CRLF": (lambda h, r: "".join(p + "\r\n" for p in [h, *r]).encode("utf-8"), 4),
    "CR": (lambda h, r: "\r".join([h, *r]).encode("utf-8"), 4),
    # a CRLF whose CR ends the first 8 KiB of the file and whose LF starts the next
    "CRLF across 8 KiB": (
        lambda h, r: "".join(p + "\r\n" for p in [h, " " * (8189 - len(h)), *r]).encode(),
        4,
    ),
    "no final newline": (lambda h, r: "\n".join([h, *r]).encode("utf-8"), 4),
    "blank lines": (
        lambda h, r: _lf([h, "", r[0], "   ", r[1], "\t \t", "", r[2], r[3], "", " "]),
        4,
    ),
    "form feed between records": (
        lambda h, r: _lf([h, r[0] + "\f" + r[1], r[2] + "\f", r[3]]),
        4,
    ),
    "raw U+2028 in a string": (
        lambda h, r: _lf([h, r[0], '{"text": "a\u2028b"}', *r[1:]]),
        "{path}: line 3 is not JSON: Unterminated string starting at: "
        "line 1 column 10 (char 9)",
    ),
    "malformed line 3": (
        lambda h, r: _lf([h, r[0], "oops", *r[1:]]),
        "{path}: line 3 is not JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    "line 3 not an object": (
        lambda h, r: _lf([h, r[0], "[1]", *r[1:]]),
        "{path}: line 3 is not a JSON object",
    ),
    "not UTF-8": (lambda h, r: b"\xff\xfe\n", "{path}: not UTF-8: invalid start byte"),
}


@pytest.mark.parametrize("case", READER_CASES)
def test_reader_cases_are_pinned(tmp_path, lines, case):
    make, expected = READER_CASES[case]
    path = tmp_path / "case.jsonl"
    if make is not None:
        path.write_bytes(make(*lines))
    if isinstance(expected, str):
        message = expected.format(path=path)
        with pytest.raises(DatasetError) as exc:
            read_dataset(path)
        assert str(exc.value) == message
        with pytest.raises(DatasetError) as exc:
            verify_dataset(path)
        assert str(exc.value) == message
        return
    header, records = read_dataset(path)
    assert header == json.loads(lines[0])
    assert records == [json.loads(rec) for rec in lines[1]]
    assert len(records) == expected
    checked = mock.Mock(wraps=pipeline._verify_record)
    with mock.patch.object(pipeline, "_verify_record", checked):
        assert verify_dataset(path) == []
    assert checked.call_count == expected


# ---------------------------------------------------------------------------
# Streaming: flat memory, closed files, and the one change in order
# ---------------------------------------------------------------------------


def _verify_peak(path) -> int:
    """The traced allocation peak of one clean ``verify_dataset`` pass."""
    tracemalloc.start()
    try:
        assert verify_dataset(path) == []
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_the_file(tmp_path):
    # Only the ids (about 90 bytes each) and per-size label counts are
    # kept: about 100 bytes of peak per extra record.  Holding the
    # records costs about 5.4 KB per extra record.  The bound is on the
    # growth, not the ratio of the peaks, so it does not loosen as the
    # per-text garbage of a pass shrinks.
    paths = []
    for per_size in (50, 400):  # 150 and 1,200 records
        config = pipeline.DatasetConfig(**CONFIG | dict(sizes=(12, 14, 16), count_per_size=per_size))
        paths.append(tmp_path / f"grl-{per_size}.jsonl")
        write_dataset(paths[-1], config, generate_records(config))
    small, big = paths
    verify_dataset(small)  # fill the vocabulary and table caches, untraced
    extra = 1200 - 150
    assert _verify_peak(big) - _verify_peak(small) < 150 * extra


@pytest.mark.parametrize("case", ["clean", "malformed line 3", "budget"])
def test_reader_leaves_no_file_open(tmp_path, lines, monkeypatch, case):
    header, records = lines
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(pipeline, "open", tracked_open, raising=False)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    path = tmp_path / "case.jsonl"
    body = [header, *records] if case == "clean" else [header, records[0], "oops", *records[1:]]
    path.write_bytes(_lf(body))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        if case == "clean":
            assert verify_dataset(path) == []
            assert len(read_dataset(path)[1]) == 4
        else:
            error = BudgetExhaustedError if case == "budget" else DatasetError
            with pytest.raises(error) as exc:
                verify_dataset(path, max_decisions=0 if case == "budget" else 10_000)
            with pytest.raises(DatasetError):
                read_dataset(path)
        # closed at once, not when the stream or the error is collected
        assert len(opened) == 2 and all(fh.closed for fh in opened)
        exc = None
        gc.collect()
    assert unraisable == []


def test_a_budget_stop_comes_before_a_later_malformed_line(tmp_path, lines):
    # Each record is checked as it is read, so record 1's solve runs out
    # before line 3 is reached; reading the whole file first gave the
    # DatasetError of line 3, which read_dataset still raises.
    header, records = lines
    path = tmp_path / "budget.jsonl"
    path.write_bytes(_lf([header, records[0], "oops", *records[1:]]))
    rid = json.loads(records[0])["id"]
    with pytest.raises(BudgetExhaustedError) as exc:
        verify_dataset(path, max_decisions=0)
    assert str(exc.value) == f"record {rid}: budget exhausted: more than 0 decisions needed"
    assert exc.value.issues == []
    with pytest.raises(DatasetError) as exc:
        read_dataset(path)
    assert str(exc.value) == (
        f"{path}: line 3 is not JSON: Expecting value: line 1 column 1 (char 0)"
    )
