"""CSV loading, Dataset validation, design construction."""

import dataclasses
import gc
import itertools
import os
import re
import threading
import weakref
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from medsens import (ColumnRoles, ConfigError, CovariateProfile, DataError,
                     Dataset, ModelSpec, RankError, covariate_stats,
                     exposure_design, exposure_terms, load_csv,
                     mediator_design, mediator_terms, outcome_design,
                     outcome_terms, validate_for_fit, write_csv)
from medsens import datamodel, probit
from medsens.datamodel import model_designs
from medsens.probit import fit_designs
from conftest import make_dataset, write_rows

FULL = ModelSpec()


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


ROLES = ColumnRoles(exposure="z", mediator="m", outcome="y", covariates=("age",))


class TestLoadCsv:
    def test_complete_case_drop_and_count(self, tmp_path):
        path = write(tmp_path,
                     "z,m,y,age\n1,0,1,35\n0,1,0,NA\n1,1,1,52\n0,0,0,41\n")
        res = load_csv(path, ROLES)
        assert res.dropped == 1
        assert res.dataset.n == 3
        assert res.dataset.z.tolist() == [1, 1, 0]
        assert res.dataset.x[:, 0].tolist() == [35.0, 52.0, 41.0]

    def test_empty_cell_counts_as_missing(self, tmp_path):
        path = write(tmp_path, "z,m,y,age\n1,0,1,35\n1,,1,40\n")
        res = load_csv(path, ROLES)
        assert res.dropped == 1
        assert res.dataset.n == 1

    def test_extra_unmapped_columns_ignored(self, tmp_path):
        path = write(tmp_path, "id,z,m,y,age,note\n7,1,0,1,35,ok\n8,0,1,0,41,x\n")
        res = load_csv(path, ROLES)
        assert res.dataset.n == 2
        assert res.dataset.covariate_names == ("age",)

    def test_missing_mapped_column_is_config_error(self, tmp_path):
        path = write(tmp_path, "z,m,y\n1,0,1\n")
        with pytest.raises(ConfigError, match="age"):
            load_csv(path, ROLES)

    def test_non_binary_outcome_names_row(self, tmp_path):
        path = write(tmp_path, "z,m,y,age\n1,0,2,35\n0,1,0,41\n")
        with pytest.raises(DataError, match="row 1.*y"):
            load_csv(path, ROLES)

    def test_non_numeric_covariate_names_row(self, tmp_path):
        path = write(tmp_path, "z,m,y,age\n1,0,1,old\n")
        with pytest.raises(DataError, match="row 1.*age"):
            load_csv(path, ROLES)

    def test_non_finite_covariate_names_cells(self, tmp_path):
        body = "".join(f"1,0,1,{v}\n" for v in ["35", "nan", "1e999", *["-inf"] * 10])
        path = write(tmp_path, "z,m,y,age\n" + body)
        with pytest.raises(DataError) as err:
            load_csv(path, ROLES)
        assert str(err.value) == (
            f"{path}: non-finite covariate values: row 2 age='nan', "
            "row 3 age='1e999', " + ", ".join(f"row {i} age='-inf'" for i in range(4, 12))
            + " (+2 more)")

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "z,m,y,age\n1,0,1\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path, ROLES)

    def test_all_rows_incomplete(self, tmp_path):
        path = write(tmp_path, "z,m,y,age\n1,0,1,NA\n,1,0,35\n")
        with pytest.raises(DataError, match="no complete rows"):
            load_csv(path, ROLES)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, ROLES)

    def test_float_encoded_binaries_accepted(self, tmp_path):
        path = write(tmp_path, "z,m,y,age\n1.0,0.0,1,35\n")
        res = load_csv(path, ROLES)
        assert res.dataset.z[0] == 1 and res.dataset.m[0] == 0

    def test_duplicated_mapped_column_rejected(self, tmp_path):
        path = write(tmp_path, "z,m,y,age,age\n1,0,1,35,70\n0,1,0,41,82\n")
        with pytest.raises(DataError, match=r"more than once.*\['age'\]"):
            load_csv(path, ROLES)

    def test_duplicated_unmapped_column_ignored(self, tmp_path):
        path = write(tmp_path, "z,m,y,age,w,w\n1,0,1,35,a,b\n")
        assert load_csv(path, ROLES).dataset.x.tolist() == [[35.0]]

    def test_semicolon_delimiter(self, tmp_path):
        path = write(tmp_path, "z;m;y;age\n1;0;1;35\n0;1;0;41\n")
        res = load_csv(path, ROLES, delimiter=";")
        assert res.dataset.n == 2

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfz,m,y,age\n1,0,1,35\n")
        res = load_csv(path, ROLES)
        assert res.dataset.z.tolist() == [1] and res.dataset.x.tolist() == [[35.0]]

    # float() reads "1_0" as 10.0 and digits of other scripts as numbers
    @pytest.mark.parametrize("row, bad", [
        ("1,0,1,1_0", "non-numeric covariate values: row 1 age='1_0'"),
        ("1,0,1,\u0663", "non-numeric covariate values: row 1 age='\u0663'"),
        ("1,0,1, 3_5 ", "non-numeric covariate values: row 1 age='3_5'"),
        ("\u0661,0,1,35", "non-binary exposure/mediator/outcome values: "
                          "row 1 z='\u0661'"),
        ("1,0_0,1,35", "non-binary exposure/mediator/outcome values: "
                       "row 1 m='0_0'"),
    ])
    def test_numbers_are_ascii_without_underscores(self, tmp_path, row, bad):
        path = write(tmp_path, f"z,m,y,age\n{row}\n0,1,0,2\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {bad}$"):
            load_csv(path, ROLES)


def _load_outcome(load, path, roles, delimiter):
    try:
        return load(path, roles, delimiter)
    except Exception as exc:  # compared by type and message
        return exc


def assert_same_load(got, expected):
    """Bitwise equal Datasets and dropped counts, or the same error."""
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert not isinstance(got, Exception), got
    assert got.dropped == expected.dropped
    assert got.dataset.covariate_names == expected.dataset.covariate_names
    for name in "zmyx":
        a, b = getattr(got.dataset, name), getattr(expected.dataset, name)
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()


def _row_loop_calls(monkeypatch) -> list:
    row_loop = datamodel._load_rows
    calls = []

    def counted(*args):
        calls.append(args)
        return row_loop(*args)
    monkeypatch.setattr(datamodel, "_load_rows", counted)
    return calls


H = "z,m,y,age\n"
# text, delimiter, whether numpy's reader decides the result
LOAD_CASES = {
    "padded cells": (H + " 1 ,0,\t1,35 \n0, 1 ,0, 41\n", ",", True),
    "quoted cells": (H + '"1",0," 1 ","35.5"\n', ",", True),
    "doubled quotes": (H + '1,0,1,"3""5"\n', ",", False),
    "quoted delimiter": (H + '1,0,1,"3,5"\n', ",", False),
    "NA cell": (H + "1,0,1,35\n0,NA,1,36\n", ",", False),
    "empty cell": (H + "1,0,1,35\n0,1,,36\n", ",", False),
    "float-coded binaries": (H + "1.0,+1,-0,35\n1e0,0,1,36\n", ",", True),
    "non-binary outcome": (H + "1,0,2,35\n", ",", False),
    "nan covariate": (H + "1,0,1,nan\n", ",", False),
    "inf covariate": (H + "1,0,1,-inf\n", ",", False),
    "underscore covariate": (H + "1,0,1,1_0\n0,1,0,2\n", ",", False),
    "unicode digit covariate": (H + "1,0,1,\u0661\n0,1,0,2\n", ",", False),
    "CRLF line ends": ("z,m,y,age\r\n1,0,1,35\r\n0,1,0,41\r\n", ",", True),
    "CR line ends": ("z,m,y,age\r1,0,1,35\r0,1,0,41\r", ",", True),
    "blank line in the middle": (H + "1,0,1,35\n\n0,1,0,41\n", ",", False),
    "blank line at the end": (H + "1,0,1,35\n\n", ",", False),
    "ragged row": (H + "1,0,1,35\n0,1,0\n", ",", False),
    "unterminated last line": (H + "1,0,1,35\n0,1,0,41", ",", True),
    "quoted line break": (H + '1,0,1,"35\n"\n', ",", False),
    "header only": (H, ",", False),
    "semicolon delimiter": ("z;m;y;age\n1;0;1;35,5\n0;1;0;41\n", ";", False),
    "semicolon numeric": ("z;m;y;age\n1;0;1;35.5\n0;1;0;41\n", ";", True),
    "quote as delimiter": ('z"m"y"age\n1"0"1"35\n', '"', False),
    "unmapped text column": ("z,m,y,age,note\n1,0,1,35,ok\n", ",", False),
    "unmapped numeric column": ("id,z,m,y,age\n7,1,0,1,35\n", ",", True),
    "byte-order mark": ("\ufeff" + H + "1,0,1,35\n", ",", True),
    # numpy reads the file by path past the header's lines
    "quoted header line break": ('z,m,y,age,"no\nte"\n1,0,1,35,7\n', ",", True),
    "quoted header line break, CR": ('z,m,y,age,"no\rte"\r1,0,1,35,7\r', ",", True),
    "quoted header line break, CRLF and BOM": (
        '\ufeffz,m,y,age,"no\r\nte"\r\n1,0,1,35,7\r\n0,1,0,4,2\r\n', ",", True),
    # quoted numbers padded with the delimiter
    "digit delimiter in quoted numbers": (
        'z1m1y1age\n"1"101"1"1"11"\n0101"1"1"3.5"\n', "1", True),
    "space delimiter in quoted numbers": ('z m y age\n1 0 1 "35  "\n0 1 0 "  4"\n', " ", True),
    "tab delimiter in quoted numbers": ('z\tm\ty\tage\n1\t0\t1\t"35\t\t"\n', "\t", True),
}


@pytest.mark.parametrize("text, delimiter, numeric", LOAD_CASES.values(),
                         ids=list(LOAD_CASES))
def test_load_csv_matches_row_loop(tmp_path, monkeypatch, text, delimiter, numeric):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _load_outcome(datamodel._load_rows, path, ROLES, delimiter)
    calls = _row_loop_calls(monkeypatch)
    assert_same_load(_load_outcome(load_csv, path, ROLES, delimiter), expected)
    assert (not calls) == numeric


@pytest.mark.parametrize("text, delimiter, numeric", LOAD_CASES.values(),
                         ids=list(LOAD_CASES))
def test_load_csv_scans_in_pieces_of_any_size(tmp_path, monkeypatch, text, delimiter,
                                               numeric):
    # three-byte reads cut "\r\n" pairs and lines in two
    monkeypatch.setattr(datamodel, "_SCAN_CHUNK", 3)
    test_load_csv_matches_row_loop(tmp_path, monkeypatch, text, delimiter, numeric)


@seed(35)
@settings(max_examples=300, deadline=None)
@given(data=st.lists(st.sampled_from([b"1", b",", b"\n", b"\r"]), max_size=24).map(
           b"".join),
       chunk=st.integers(1, 8))
@example(data=b"1\r\n1", chunk=2)  # "\r\n" cut, and the second chunk holds no "\r"
@example(data=b"1\r\n\n1\n", chunk=2)
@example(data=b"11\n1\r1", chunk=3)  # the first "\r" in a later chunk
@example(data=b"", chunk=1)  # an empty file
@example(data=b"1,1\n1", chunk=4)  # no line break after the last line
def test_line_count_matches_splitlines(tmp_path_factory, data, chunk):
    """bytes.splitlines splits at exactly "\n", "\r" and "\r\n"."""
    path = tmp_path_factory.mktemp("lines") / "lines.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datamodel, "_SCAN_CHUNK", chunk)
        assert datamodel._line_count(path) == len(data.splitlines())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("body", ["1,0,1,35\n0,1,0,41\n", "1,0,1,35\n0,NA,0,41\n"])
def test_load_csv_reads_a_named_pipe_once(tmp_path, body):
    """A pipe's bytes can be read only once; reading it again would find
    it empty (the feeder hands any later open an empty pipe)."""
    regular, pipe = tmp_path / "d.csv", tmp_path / "pipe"
    regular.write_text(H + body)
    os.mkfifo(pipe)
    done = threading.Event()

    def feed():
        with open(pipe, "w") as fh:
            fh.write(H + body)
        while not done.wait(0.05):
            try:
                os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader waiting
                pass
    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        got = _load_outcome(load_csv, pipe, ROLES, ",")
    finally:
        done.set()
        feeder.join(timeout=5)  # a feeder no reader opened stays blocked
    assert_same_load(got, load_csv(regular, ROLES))


def test_write_csv_round_trip_skips_the_row_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(3, 200))
    ds = make_dataset(*bits, rng.normal(size=(200, 2)) * 1e3, ("a", "b"))
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    roles = ColumnRoles("z", "m", "y", ("a", "b"))
    expected = datamodel._load_rows(path, roles, ",")
    calls = _row_loop_calls(monkeypatch)
    res = load_csv(path, roles)
    assert calls == []
    assert_same_load(res, expected)
    assert res.dataset.equals(ds)


def _bits_dataset(n, x, names, seed=3):
    bits = np.random.default_rng(seed).integers(0, 2, size=(3, n))
    return make_dataset(*bits, x, names)


CHUNK = datamodel._WRITE_CHUNK
WRITE_CASES = {
    "p=0": lambda: _bits_dataset(7, np.empty((7, 0)), ()),
    "edge values": lambda: _bits_dataset(
        4, np.array([[1e-05, 1e+16], [5e-324, -0.0], [-1e-05, 0.0],
                     [1.7976931348623157e308, 0.1]]), ("a", "b")),
    "n=1": lambda: _bits_dataset(1, [[2.5]], ("a",)),
    "one chunk": lambda: _bits_dataset(
        CHUNK, np.random.default_rng(1).normal(size=(CHUNK, 2)), ("a", "b")),
    "one chunk and a row": lambda: _bits_dataset(
        CHUNK + 1, np.random.default_rng(2).normal(size=(CHUNK + 1, 3)),
        ("a", "b", "c")),
    "quoted names": lambda: _bits_dataset(
        3, np.arange(9.0).reshape(3, 3) / 7,
        ("a,b", 'say "hi"', "line\nbreak")),
}


@pytest.mark.parametrize("make", WRITE_CASES.values(), ids=list(WRITE_CASES))
def test_write_csv_bytes_match_row_writer(tmp_path, make):
    ds = make()
    write_csv(ds, tmp_path / "chunked.csv")
    write_rows(ds, tmp_path / "rows.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-05, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, -2.5, 1e22, 123456.789]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_write_csv_bytes_match_row_writer_on_drawn_datasets(tmp_path_factory, data):
    """write_csv against one csv writerow per row: n on both sides of a
    chunk edge, and names csv must quote."""
    n = data.draw(st.sampled_from([1, 2, 9, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
                  label="n")
    p = data.draw(st.integers(0, 3), label="p")
    pool = data.draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(
        allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=8),
        label="floats")
    names = data.draw(st.lists(st.text(st.sampled_from(
        ["a", "0", "e", ",", ";", ".", "-", '"', " ", "\n", "\t"]), min_size=1, max_size=4),
        min_size=p, max_size=p, unique=True), label="names")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    bits = rng.integers(0, 2, size=(3, n))
    ds = make_dataset(*bits, np.array(pool)[rng.integers(0, len(pool), size=(n, p))],
                      names)
    path = tmp_path_factory.mktemp("write")
    write_csv(ds, path / "chunked.csv")
    write_rows(ds, path / "rows.csv")
    assert (path / "chunked.csv").read_bytes() == (path / "rows.csv").read_bytes()


@pytest.mark.parametrize("name", ["a\rb", "\r", "a\r\nb"])
def test_write_csv_refuses_a_carriage_return_name_before_opening(tmp_path, name):
    # csv.writer would leave the name unquoted and load_csv could not
    # read it back
    path = tmp_path / "d.csv"
    path.write_bytes(b"z,m,y\n1,0,1\n")
    with pytest.raises(DataError, match=re.escape(
            f"covariate name {name!r} must not hold a carriage return")):
        write_csv(_bits_dataset(2, [[0.5, 1.0], [1.5, 2.0]], ("x", name)), path)
    assert path.read_bytes() == b"z,m,y\n1,0,1\n"


def test_write_csv_round_trips_names_csv_must_quote(tmp_path):
    names = ("a,b", 'say "hi"', "line\nbreak")
    ds = _bits_dataset(3, np.arange(9.0).reshape(3, 3) / 7, names)
    write_csv(ds, tmp_path / "d.csv")
    roles = ColumnRoles("z", "m", "y", names)
    assert load_csv(tmp_path / "d.csv", roles).dataset.equals(ds)


# one cell grammar for load_csv against the row loop: files are drawn from
# cells numpy's reader parses as the row loop does, then given flaws it
# must leave to the row loop (cells from DIRTY, ragged rows, blank lines)
CLEAN = {"binary": ["0", "1", "1.0", "+1", "1e0", "-0", " 1 ", '"0"', '" 1 "', "\t0"],
         "covariate": ["35", "-1.5e3", "0.1", " 2.5 ", '"3"', "-0", "nan", "inf", "1e999"],
         "unmapped": ["7", "-2.5"]}
DIRTY = {"binary": ["NA", "", "2", "nan", "0.5", "x", "1_0", '"1,0"', '"1"""', ' "1"'],
         "covariate": ["NA", "", "old", "1_0", "\u0661", '"4"""', "0x1", "1;5", "1,5"],
         "unmapped": ["ok", '"a,b"', ""]}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_load_csv_matches_row_loop_on_cell_grammar(tmp_path_factory, data):
    names = [f"c{j}" for j in range(data.draw(st.integers(0, 2)))]
    columns = ["z", "m", "y", *names] + (["note"] if data.draw(st.booleans()) else [])
    columns = data.draw(st.permutations(columns))
    role = ["binary" if c in "zmy" else "unmapped" if c == "note" else "covariate"
            for c in columns]
    rows = [[data.draw(st.sampled_from(CLEAN[r])) for r in role]
            for _ in range(data.draw(st.integers(1, 5)))]
    flaws = data.draw(st.lists(st.sampled_from(["cell", "ragged", "blank", "no rows"]),
                               max_size=3), label="flaws")
    if "no rows" in flaws:
        rows = []
    for flaw in flaws:
        if flaw in ("cell", "ragged") and rows:
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            if flaw == "ragged":
                row.pop()
            elif row:
                j = data.draw(st.integers(0, len(row) - 1))
                row[j] = data.draw(st.sampled_from(DIRTY[role[j]]))
    delimiter = data.draw(st.sampled_from([",", ";"]))
    lines = [delimiter.join(row) for row in rows]
    for _ in range(flaws.count("blank")):
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = (eol.join([delimiter.join(columns), *lines])
            + (eol if data.draw(st.booleans(), label="terminated") else ""))
    path = tmp_path_factory.mktemp("grammar") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    roles = ColumnRoles("z", "m", "y", tuple(names))
    assert_same_load(_load_outcome(load_csv, path, roles, delimiter),
                     _load_outcome(datamodel._load_rows, path, roles, delimiter))


@settings(max_examples=25)
@given(st.data())
def test_write_then_load_roundtrip(tmp_path_factory, data):
    n = data.draw(st.integers(1, 12))
    p = data.draw(st.integers(0, 3))
    bits = arrays(np.int64, (n,), elements=st.integers(0, 1))
    z, m, y = data.draw(bits), data.draw(bits), data.draw(bits)
    x = data.draw(arrays(np.float64, (n, p),
                         elements=st.floats(-1e6, 1e6, allow_nan=False,
                                            width=64)))
    names = tuple(f"x{j}" for j in range(p))
    ds = make_dataset(z, m, y, x, names)
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    write_csv(ds, path)
    back = load_csv(path, ColumnRoles("z", "m", "y", names)).dataset
    assert back.equals(ds)


class TestDataset:
    def test_binary_validation(self):
        with pytest.raises(DataError, match="binary"):
            make_dataset([0, 2], [0, 1], [1, 0])

    @pytest.mark.parametrize("m,bad", [
        ([3, 0, 2, 3], "[np.int64(2), np.int64(3)]"),
        ([1, 0, 1, 3], "[np.int64(3)]"),
        ([1, 0, -1, 0], "[np.int64(-1)]"),
        ([1.0, 0.5, 1.0, 0.0], "[np.float64(0.5)]"),
        ([1.0, np.nan, 0.0, 1.0], "[np.float64(nan)]")])
    def test_binary_validation_lists_the_bad_values_in_order(self, m, bad):
        with pytest.raises(DataError, match=re.escape(
                f"column m must be binary 0/1, found values {bad}")):
            make_dataset([0, 1, 1, 0], m, [1, 0, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            make_dataset([0, 1], [0, 1, 1], [1, 0])

    def test_nonfinite_covariate(self):
        with pytest.raises(DataError, match="finite"):
            make_dataset([0, 1], [0, 1], [1, 0], [[np.nan], [0.0]], ("a",))

    def test_name_count_must_match(self):
        with pytest.raises(DataError, match="names"):
            make_dataset([0, 1], [0, 1], [1, 0], [[1.0], [0.0]], ())

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            make_dataset([], [], [])

    def test_arrays_are_read_only(self):
        ds = make_dataset([0, 1], [0, 1], [1, 0], [[1.0], [2.0]], ("a",))
        with pytest.raises(ValueError):
            ds.z[0] = 1
        with pytest.raises(ValueError):
            ds.x[0, 0] = 9.0

    def test_take_and_equals(self):
        ds = make_dataset([0, 1, 1], [0, 1, 0], [1, 0, 1],
                          [[1.0], [2.0], [3.0]], ("a",))
        sub = ds.take([2, 0])
        assert sub.n == 2
        assert sub.z.tolist() == [1, 0]
        assert sub.x[:, 0].tolist() == [3.0, 1.0]
        assert ds.equals(ds.take([0, 1, 2]))
        assert not ds.equals(sub.take([0, 1]))

    def test_zero_covariate_dataset(self):
        ds = make_dataset([0, 1], [1, 0], [1, 1])
        assert ds.p == 0
        assert ds.x.shape == (2, 0)
        # an empty 1-d x is read as no covariates
        flat = make_dataset([0, 1], [1, 0], [1, 1], x=np.array([]))
        assert flat.x.shape == (2, 0) and flat.equals(ds)

    @pytest.mark.parametrize("columns, message", [
        ({"z": [[0, 1]]}, "z, m, y must be one-dimensional"),
        ({"y": [[1], [1]]}, "z, m, y must be one-dimensional"),
        ({"x": [[1.0], [2.0], [3.0]], "names": ("a",)}, "x must be an (2, p) matrix"),
        ({"x": [1.0, 2.0], "names": ("a",)}, "x must be an (2, p) matrix"),
        ({"x": [[1.0, 2.0], [3.0, 4.0]], "names": ("a", "a")},
         "covariate names must be distinct, got ('a', 'a')")])
    def test_misshapen_columns_and_repeated_names_rejected(self, columns, message):
        args = {"z": [0, 1], "m": [1, 0], "y": [1, 1], **columns}
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            make_dataset(**args)


class TestModelSpec:
    def test_default_is_full(self):
        assert all(getattr(FULL, f) for f in FULL.__dataclass_fields__)

    def test_interaction_needs_main_effect(self):
        with pytest.raises(ConfigError):
            ModelSpec(mediator_x=False, mediator_zx=True)
        with pytest.raises(ConfigError):
            ModelSpec(outcome_x=False, outcome_zx=True, outcome_mx=False,
                      outcome_zmx=False)
        with pytest.raises(ConfigError):
            ModelSpec(outcome_zm=False, outcome_zmx=True)

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_flags_must_be_booleans(self, value):
        with pytest.raises(ConfigError,
                           match=rf"^exposure_x must be true or false, got {value!r}$"):
            ModelSpec(exposure_x=value)

    def test_numpy_boolean_flags_allowed(self):
        assert not ModelSpec(exposure_x=np.bool_(False)).exposure_x

    def test_reduced_spec_allowed(self):
        spec = ModelSpec(exposure_x=False, mediator_x=False, mediator_zx=False,
                         outcome_zm=False, outcome_x=False, outcome_zx=False,
                         outcome_mx=False, outcome_zmx=False)
        assert not spec.exposure_x


class TestDesigns:
    # one worked row, checked column by column against the fixed layout
    Z = np.array([1.0])
    M = np.array([0.0])
    X = np.array([[2.0, -1.0]])

    def test_exposure_layout(self):
        row = exposure_design(self.X, FULL)[0]
        assert row.tolist() == [1.0, 2.0, -1.0]

    def test_mediator_layout(self):
        row = mediator_design(self.Z, self.X, FULL)[0]
        assert row.tolist() == [1.0, 1.0, 2.0, -1.0, 2.0, -1.0]

    def test_outcome_layout(self):
        row = outcome_design(self.Z, self.M, self.X, FULL)[0]
        # 1, z, m, z*m, x (2), z*x (2), m*x (2), z*m*x (2)
        assert row.tolist() == [1.0, 1.0, 0.0, 0.0, 2.0, -1.0, 2.0, -1.0,
                                0.0, 0.0, 0.0, 0.0]

    def test_reduced_outcome_layout(self):
        spec = ModelSpec(outcome_zx=False, outcome_mx=False, outcome_zmx=False)
        row = outcome_design(self.Z, self.M, self.X, spec)[0]
        assert row.tolist() == [1.0, 1.0, 0.0, 0.0, 2.0, -1.0]

    SPECS = [
        FULL,
        ModelSpec(mediator_zx=False, outcome_zx=False, outcome_mx=False,
                  outcome_zmx=False),
        ModelSpec(exposure_x=False, mediator_x=False, mediator_zx=False,
                  outcome_zm=False, outcome_x=False, outcome_zx=False,
                  outcome_mx=False, outcome_zmx=False),
        ModelSpec(outcome_zmx=False),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_term_labels_match_design_width(self, spec):
        names = ("a", "b")
        z = np.array([0.0, 1.0, 1.0])
        m = np.array([1.0, 0.0, 1.0])
        x = np.array([[0.5, 1.0], [2.0, -2.0], [0.0, 3.0]])
        assert len(exposure_terms(spec, names)) == exposure_design(x, spec).shape[1]
        assert len(mediator_terms(spec, names)) == mediator_design(z, x, spec).shape[1]
        assert len(outcome_terms(spec, names)) == outcome_design(z, m, x, spec).shape[1]

    @pytest.mark.parametrize("p", [0, 3])
    @pytest.mark.parametrize("spec", SPECS)
    def test_builders_fill_one_fortran_array(self, spec, p):
        """Bitwise the column stack of the products, signed zeros included."""
        rng = np.random.default_rng(p)
        z, m = rng.integers(0, 2, (2, 50)).astype(float)
        x = rng.normal(size=(50, p))
        zc, mc = z[:, None], m[:, None]
        one = np.ones((50, 1))
        flags = dataclasses.asdict(spec)
        blocks = {
            "exposure": [one] + [x] * flags["exposure_x"],
            "mediator": [one, zc] + [x] * flags["mediator_x"]
                        + [zc * x] * flags["mediator_zx"],
            "outcome": [one, zc, mc] + [zc * mc] * flags["outcome_zm"]
                       + [x] * flags["outcome_x"] + [zc * x] * flags["outcome_zx"]
                       + [mc * x] * flags["outcome_mx"]
                       + [zc * mc * x] * flags["outcome_zmx"]}
        built = {"exposure": exposure_design(x, spec),
                 "mediator": mediator_design(z, x, spec),
                 "outcome": outcome_design(z, m, x, spec)}
        for model, design in built.items():
            assert design.flags.f_contiguous
            expected = np.asfortranarray(np.hstack(blocks[model]))
            assert design.shape == expected.shape
            assert design.tobytes(order="A") == expected.tobytes(order="A")


FLAGS = [f.name for f in dataclasses.fields(ModelSpec)]


def hand_kept_rules(flags: dict) -> bool:
    """The four rules ModelSpec once wrote out by hand, kept as the
    reference for the rule it now reads off the layout table."""
    return ((flags["mediator_x"] or not flags["mediator_zx"])
            and (flags["outcome_x"] or not flags["outcome_zx"])
            and (flags["outcome_x"] or not flags["outcome_mx"])
            and (flags["outcome_zm"] and flags["outcome_zx"] and flags["outcome_mx"]
                 or not flags["outcome_zmx"]))


def spelled_column(term: str, z, m, x, names) -> np.ndarray:
    """The product a term names, its factors multiplied left to right."""
    if term == "intercept":
        return np.ones(len(z))
    factors = [{"z": z, "m": m}[f] if f in ("z", "m") else x[:, names.index(f)]
               for f in term.split(":")]
    col = factors[0]
    for f in factors[1:]:
        col = col * f
    return col


def test_layout_table_over_every_flag_set():
    rng = np.random.default_rng(3)
    names = ("age", "edu")
    z, m = rng.integers(0, 2, (2, 40)).astype(float)
    x = rng.normal(size=(40, 2))
    x[::7] = -0.0  # signed zeros must survive the products
    accepted = 0
    for bits in itertools.product((False, True), repeat=len(FLAGS)):
        flags = dict(zip(FLAGS, bits))
        if not hand_kept_rules(flags):
            with pytest.raises(ConfigError, match="requires"):
                ModelSpec(**flags)
            continue
        spec = ModelSpec(**flags)
        accepted += 1
        f = {name: int(on) for name, on in flags.items()}
        for terms, design, width in (
                (exposure_terms(spec, names), exposure_design(x, spec),
                 1 + 2 * f["exposure_x"]),
                (mediator_terms(spec, names), mediator_design(z, x, spec),
                 2 + 2 * (f["mediator_x"] + f["mediator_zx"])),
                (outcome_terms(spec, names), outcome_design(z, m, x, spec),
                 3 + f["outcome_zm"] + 2 * (f["outcome_x"] + f["outcome_zx"]
                                            + f["outcome_mx"] + f["outcome_zmx"]))):
            assert design.flags.f_contiguous
            assert design.shape == (40, len(terms)) == (40, width)
            for j, term in enumerate(terms):
                assert design[:, j].tobytes() == spelled_column(
                    term, z, m, x, names).tobytes(), (flags, term)
    # flag sets each model admits: exposure 2, mediator 3, outcome 11
    assert accepted == 2 * 3 * 11


def reduced_design(model: str, spec: ModelSpec, x, **zm) -> np.ndarray:
    """The builders' former formula, kept as the reference: each block's
    product formed by reduce(mul, ...) and then copied into the design."""
    vals = {"x": np.asarray(x, dtype=float),
            **{key: np.asarray(v, dtype=float).reshape(-1, 1) for key, v in zm.items()}}
    n, p = vals["x"].shape
    blocks = datamodel._blocks(model, spec)
    out = np.empty((n, sum(p if "x" in f else 1 for f in blocks)), order="F")
    j = 0
    for factors in blocks:
        block = out[:, j:j + (p if "x" in factors else 1)]
        block[...] = reduce(mul, [vals[f] for f in factors]) if factors else 1.0
        j += block.shape[1]
    return out


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("p", [0, 3])
def test_builders_match_the_reduced_products_bitwise(order, p):
    rng = np.random.default_rng(p)
    z, m = rng.integers(0, 2, (2, 60))
    x = np.asarray(rng.normal(size=(60, p)), order=order)
    x[::5] = -0.0  # signed zeros must survive the products
    specs = 0
    for bits in itertools.product((False, True), repeat=len(FLAGS)):
        try:
            spec = ModelSpec(**dict(zip(FLAGS, bits)))
        except ConfigError:
            continue
        specs += 1
        for model, design, zm in (
                ("exposure", exposure_design(x, spec), {}),
                ("mediator", mediator_design(z, x, spec), {"z": z}),
                ("outcome", outcome_design(z, m, x, spec), {"z": z, "m": m})):
            expected = reduced_design(model, spec, x, **zm)
            assert np.array_equal(design, expected), (model, spec)
            assert design.tobytes(order="F") == expected.tobytes(order="F")
    assert specs == 2 * 3 * 11


def gathered(gather, left, weight, right) -> np.ndarray:
    """X_a'diag(w)X_b as the map gathers it from (w L)'X_b."""
    lcols = np.hstack([left[:, source] for source, _ in gather.runs])
    assert lcols.shape[1] == gather.width
    return ((lcols * weight[:, None]).T @ right).take(gather.index)


@pytest.mark.parametrize("p", [0, 3])
def test_hessian_maps_gather_every_product(p):
    # every model and every pair a constrained fit pairs, over every flag
    # set: the gather is X_a'diag(w)X_b up to the order of each sum, and a
    # model's own is exactly symmetric; L is the base block [1, x] wherever
    # the design holds every product of two of its columns
    from medsens.biprobit import PAIR_MODELS
    rng = np.random.default_rng(40 + p)
    n = 80
    z, m = rng.integers(0, 2, (2, n))
    x, weight = rng.normal(size=(n, p)), rng.uniform(0.1, 2.0, n)
    pairs = [(model, model) for model in ("exposure", "mediator", "outcome")]
    pairs += list(PAIR_MODELS.values())
    specs, widened = 0, 0
    for bits in itertools.product((False, True), repeat=len(FLAGS)):
        try:
            spec = ModelSpec(**dict(zip(FLAGS, bits)))
        except ConfigError:
            continue
        specs += 1
        designs = {model: design for model, (design, _) in model_designs(
            make_dataset(z, m, z, x, tuple(f"x{c}" for c in range(p))),
            spec).items()}
        for left, right in pairs:
            gather = datamodel._hessian_map(left, right, spec, p)
            got = gathered(gather, designs[left], weight, designs[right])
            want = designs[left].T @ (designs[right] * weight[:, None])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (
                left, right, spec)
            if left == right:
                assert np.array_equal(got, got.T)
                base = 1 + p * getattr(spec, f"{left}_x")
                widened += gather.width > base and left == "outcome"
    assert specs == 2 * 3 * 11
    # the outcome's L takes a column beyond [1, x] only where the design
    # lacks z*m, or lacks z*m*x beside z*x and m*x
    assert widened == (36 if p else 30)
    for spec in (FULL, ModelSpec(mediator_zx=False, outcome_zx=False,
                                 outcome_mx=False, outcome_zmx=False)):
        for model in ("exposure", "mediator", "outcome"):
            assert datamodel._hessian_map(model, model, spec, p).width == 1 + p


def test_a_design_of_no_known_layout_is_gathered_whole():
    rng = np.random.default_rng(41)
    design, weight = rng.normal(size=(50, 4)), rng.uniform(0.1, 2.0, 50)
    gather = datamodel._full_map(4)
    assert gather.width == 4 and len(gather.runs) == 1
    got = gathered(gather, design, weight, design)
    assert np.array_equal(got, got.T)
    np.testing.assert_allclose(got, design.T @ (design * weight[:, None]),
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("flags, message", [
    ({"mediator_x": False}, "mediator_zx requires mediator_x"),
    ({"outcome_x": False}, "outcome_zx requires outcome_x"),
    ({"outcome_zm": False, "outcome_mx": False},
     "outcome_zmx requires outcome_zm and outcome_mx"),
    ({"outcome_x": False, "outcome_zx": False, "outcome_mx": False},
     "outcome_zmx requires outcome_x and outcome_zx and outcome_mx"),
])
def test_spec_error_names_the_flags(flags, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ModelSpec(**flags)


def test_builders_reject_factors_of_unequal_length():
    x = np.zeros((5, 2))
    for build in (lambda v: mediator_design(v, x, FULL),
                  lambda v: outcome_design(np.zeros(5), v, x, FULL)):
        with pytest.raises(ValueError, match="must have 5 rows each"):
            build(np.ones(1))  # would broadcast down the whole column


def test_dataset_copies_the_callers_covariates():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    ds = make_dataset([0, 1], [1, 0], [1, 1], x, ("a", "b"))
    assert x.flags.writeable and not ds.x.flags.writeable
    x[0, 0] = 9.0
    assert x.tolist() == [[9.0, 2.0], [3.0, 4.0]]
    assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_covariate_profile_copies_the_callers_values():
    values = np.array([0.5, 1.0])
    prof = CovariateProfile(values)
    assert values.flags.writeable and not prof.values.flags.writeable
    values[0] = 7.0
    assert values.tolist() == [7.0, 1.0]
    assert prof.values.tolist() == [0.5, 1.0]


def test_covariate_profile_validation():
    prof = CovariateProfile(values=[1.0, 2.0], name="p")
    assert prof.values.tolist() == [1.0, 2.0]
    with pytest.raises(DataError):
        CovariateProfile(values=[np.inf])
    with pytest.raises(DataError, match="^profile name must be a string, got 3$"):
        CovariateProfile([0.0, 1.0], name=3)


@pytest.mark.parametrize("values", [
    True, np.array([True, False]), np.bool_(False), "1.5", ["1.5", "2"],
    np.array([b"1"]), [1.0, None], [1 + 2j]])
def test_covariate_profile_values_must_be_real_numbers(values):
    with pytest.raises(DataError, match="^profile 'p' values must be real numbers"):
        CovariateProfile(values=values, name="p")


@pytest.mark.parametrize("values", [3, [1, 2], np.array([0.5], dtype=np.float32),
                                    np.array([7], dtype=np.uint8)])
def test_covariate_profile_takes_integers_and_floats(values):
    prof = CovariateProfile(values=values)
    assert prof.values.dtype == float
    assert prof.values.tolist() == np.atleast_1d(values).astype(float).tolist()


@pytest.mark.parametrize("roles, match", [
    (("z", "m", "y", "xcont"), "^covariates must be a sequence of column names"),
    (("z", "m", "y", 5), "^covariates must be a sequence of column names"),
    (("z", "m", 3), r"^column names must be strings, got \[3\]"),
    ((None, "m", "y"), r"^column names must be strings, got \[None\]"),
    (("z", "m", "y", ["a", 1.5]), r"^column names must be strings, got \[1.5\]"),
    (("z", "m", "y", [["a"]]), r"^column names must be strings, got \[\['a'\]\]"),
    (("z", "m", "y", ["a", "m"]),
     r"^column roles must name distinct columns, got \['z', 'm', 'y', 'a', 'm'\]")])
def test_column_roles_must_be_strings(roles, match):
    with pytest.raises(ConfigError, match=match):
        ColumnRoles(*roles)


def test_column_roles_take_any_sequence_of_strings():
    assert ColumnRoles("z", "m", "y", ["a", "b"]).covariates == ("a", "b")
    assert ColumnRoles("z", "m", "y").covariates == ()


@pytest.mark.parametrize("delimiter", [";;", "", 5, None])
def test_load_csv_delimiter_must_be_one_character(tmp_path, delimiter):
    path = tmp_path / "d.csv"
    path.write_text("z,m,y,age\n1,0,1,35\n")
    with pytest.raises(ConfigError,
                       match="^delimiter must be a one-character string, got"):
        load_csv(path, ROLES, delimiter=delimiter)


@pytest.mark.parametrize("delimiter", ["\n", "\r"])
def test_load_csv_refuses_a_line_break_delimiter(tmp_path, delimiter):
    message = re.escape(f"delimiter must not be a line break, got {delimiter!r}")
    path = tmp_path / "d.csv"
    path.write_bytes(b"z,m,y,age\n1,0,1,35\n")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_csv(path, ROLES, delimiter=delimiter)


def test_dataset_covariate_names_must_be_strings():
    with pytest.raises(DataError, match=re.escape(
            "covariate names must be strings, got [1, None]")):
        make_dataset([0, 1], [1, 0], [1, 1], [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]],
                     (1, "a", None))
    # one string is not split into one name per character
    with pytest.raises(DataError, match=re.escape(
            "covariate names must be a sequence of strings, got 'ab'")):
        Dataset(z=np.array([0, 1]), m=np.array([1, 0]), y=np.array([1, 1]),
                x=np.array([[1.0, 2.0], [3.0, 4.0]]), covariate_names="ab")


def test_covariate_stats():
    ds = make_dataset([0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0],
                      [[1.0, 10.0], [2.0, 10.0], [3.0, 10.0], [4.0, 10.0]],
                      ("a", "b"))
    means, sds = covariate_stats(ds)
    assert means.tolist() == [2.5, 10.0]
    assert sds[0] == pytest.approx(np.sqrt(1.25))
    assert sds[1] == 0.0


class TestValidateForFit:
    def test_small_sample_rejected(self):
        ds = make_dataset([0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0])
        with pytest.raises(DataError, match="too small"):
            validate_for_fit(ds, FULL)

    @pytest.mark.parametrize("value, n", [
        (1.0, 40), *itertools.product([0.1, 2.7, 123.456], [1000, 12345])])
    def test_zero_variance_covariate_rejected(self, value, n):
        """Named whatever its value: the computed std of a column fixed at
        0.1 is not exactly 0."""
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.normal(size=n), np.full(n, value)])
        ds = make_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                          rng.integers(0, 2, n), x, ("age", "flat"))
        with pytest.raises(DataError, match=re.escape(
                "covariate columns with zero variance: ['flat']")):
            validate_for_fit(ds, FULL)

    @pytest.mark.parametrize("row", [0, -1])
    def test_covariate_constant_but_in_one_row_not_flagged(self, row):
        rng = np.random.default_rng(5)
        n = 1000
        z, m, y = rng.integers(0, 2, (3, n))
        x = np.column_stack([rng.normal(size=n), np.full(n, 0.1)])
        x[row, 1] = 0.2
        ds = make_dataset(z, m, y, x, ("age", "dose"))
        # no interactions: a one-row bump is collinear with none of the
        # other columns
        spec = ModelSpec(mediator_zx=False, outcome_zx=False, outcome_mx=False,
                         outcome_zmx=False)
        designs = validate_for_fit(ds, spec)
        assert designs["outcome"][0].shape == (n, 6)

    def test_collinear_covariates_rejected(self):
        rng = np.random.default_rng(6)
        n = 50
        col = rng.normal(size=n)
        x = np.column_stack([col, 2.0 * col])
        ds = make_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                          rng.integers(0, 2, n), x, ("a", "a2"))
        with pytest.raises(RankError):
            validate_for_fit(ds, FULL)

    def test_clean_dataset_passes(self, demo_clean, spec):
        designs = validate_for_fit(demo_clean, spec)
        expected = model_designs(demo_clean, spec)
        assert list(designs) == ["exposure", "mediator", "outcome"]
        for model, (design, response, gram) in designs.items():
            assert np.array_equal(design, expected[model][0])
            assert response is expected[model][1]
            assert gram.tobytes() == (design.T @ design).tobytes()


class TestFitDesigns:
    def test_designs_are_read_only(self, demo_clean, spec):
        designs = fit_designs(demo_clean, spec)
        for design, response, gram in designs.values():
            for array in (design, response, gram):
                with pytest.raises(ValueError):
                    array[0, ...] = 1

    def test_one_entry_per_dataset_and_spec(self, demo_clean, spec):
        first = fit_designs(demo_clean, spec)
        assert fit_designs(demo_clean, spec) is first
        # a single entry: another spec replaces it
        assert fit_designs(demo_clean, FULL) is not first
        assert fit_designs(demo_clean, spec) is not first

    def test_entry_dies_with_its_dataset(self, demo_clean, spec):
        ds = demo_clean.take(np.arange(demo_clean.n))
        design = weakref.ref(fit_designs(ds, spec)["outcome"][0])
        assert design() is not None
        del ds
        gc.collect()
        assert design() is None

    def test_alternating_pairs_keep_one_entry_and_no_finalizer(
            self, demo_clean, spec, monkeypatch):
        # every call sets up a new (dataset, spec); the weakly keyed entry
        # registers no finalizer for it and holds only the latest pair
        real, finalizers = weakref.finalize, []

        def counting(*args, **kwargs):
            finalizers.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(weakref, "finalize", counting)
        datasets = [demo_clean.take(np.arange(i, 600, 2)) for i in range(2)]
        for i in range(200):
            fit_designs(datasets[i % 2], (spec, FULL)[i // 2 % 2])
        assert finalizers == [] and len(probit._FIT_ENTRY) == 1
        del datasets
        gc.collect()
        assert len(probit._FIT_ENTRY) == 0

    def test_failed_validation_is_not_cached(self):
        ds = make_dataset([0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0])
        for _ in range(2):
            with pytest.raises(DataError, match="too small"):
                fit_designs(ds, FULL)
