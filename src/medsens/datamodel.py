"""Dataset container, CSV loading, and design-matrix construction.

A Dataset holds one binary exposure z, one binary mediator m, one binary
outcome y and a (possibly empty) block of numeric covariates x. The three
design builders fix the coefficient layouts used everywhere else, each a
row of one table, _LAYOUTS:

    exposure design: [1, x]                                -> alpha
    mediator design: [1, z, x, z*x]                        -> beta
    outcome  design: [1, z, m, z*m, x, z*x, m*x, z*m*x]    -> theta

Optional blocks are controlled by ModelSpec flags; a disabled block is
simply absent from the matrix (and from the packed coefficient vector),
never a column of zeros. The term names and ModelSpec's flag rule are read
off the same table. Each builder fills one Fortran-order array, so a
column is contiguous: the probit fit reads blocks of rows of whole
columns without copying the design. Each block is written in place, and
a product block reads x from the design's own x block, so a builder
makes no product temporary and no Fortran-order copy of x. The same
table gives each pair of designs its _GatherMap (_hessian_map): the
columns L of the left design, the base block [1, x] and any column a
product needs beyond it, and where each entry of X_a'diag(w)X_b lies in
(w L)'X_b, which is how a probit pass forms its Hessian.

Dataset and CovariateProfile store read-only copies of the arrays they are
given, never the caller's own. write_csv writes commas: the header with
csv.writer, and the body itself, a chunk of rows at a time, each chunk one
string: a row is one of eight "z,m,y" prefixes and the repr of each
covariate. Those fields hold only 0-9 . + - e, so csv would quote none of
them; the bytes are those of a row-by-row csv writer and do not depend on
the chunk size.

load_csv hands a regular file to numpy's reader by path, past the
header's lines, and checks that the reader returned one row for each
line a byte scan counts; every other input goes to the row loop.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import os
import stat
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, RankError
from .numkernel import _as_real_array

MISSING_TOKENS = {"", "NA"}

# listing caps for error messages
_MAX_LISTED_ROWS = 10


@dataclass(frozen=True)
class ColumnRoles:
    """Mapping from analysis roles to CSV column names: a string for each
    role and a sequence of strings for the covariates."""

    exposure: str
    mediator: str
    outcome: str
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        covariates = self.covariates
        if isinstance(covariates, str) or not isinstance(covariates, Sequence):
            raise ConfigError(
                f"covariates must be a sequence of column names, got {covariates!r}")
        object.__setattr__(self, "covariates", tuple(covariates))
        names = [self.exposure, self.mediator, self.outcome, *self.covariates]
        bad = [name for name in names if not isinstance(name, str)]
        if bad:
            raise ConfigError(f"column names must be strings, got {bad}")
        if len(set(names)) != len(names):
            raise ConfigError(f"column roles must name distinct columns, got {names}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable complete-case analysis dataset.

    z, m, y are 0/1 vectors of common length n, stored as integers; a
    boolean vector is taken as the 0/1 indicator it is. x is an (n, p)
    matrix of integers or floats (p may be zero), stored as floats; bool,
    str, bytes, object and complex x are refused. covariate_names are
    strings that label the columns of x.
    """

    z: np.ndarray
    m: np.ndarray
    y: np.ndarray
    x: np.ndarray
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        z = np.asarray(self.z)
        m = np.asarray(self.m)
        y = np.asarray(self.y)
        # a copy: the caller's stays writeable
        x = np.array(_as_real_array(self.x, "x", DataError))
        if z.ndim != 1 or m.ndim != 1 or y.ndim != 1:
            raise DataError("z, m, y must be one-dimensional")
        n = z.shape[0]
        if n < 1:
            raise DataError("dataset must contain at least one row")
        if m.shape[0] != n or y.shape[0] != n:
            raise DataError("z, m, y must have equal length")
        if x.ndim == 1 and x.size == 0:
            x = x.reshape(n, 0)
        if x.ndim != 2 or x.shape[0] != n:
            raise DataError(f"x must be an ({n}, p) matrix")
        for name, col in (("z", z), ("m", m), ("y", y)):
            if not ((col == 0) | (col == 1)).all():  # O(n); unique sorts
                bad = [v for v in np.unique(col) if v not in (0, 1)]
                raise DataError(f"column {name} must be binary 0/1, found values {bad}")
        if not np.isfinite(x).all():
            raise DataError("covariates must be finite")
        if isinstance(self.covariate_names, str):
            raise DataError("covariate names must be a sequence of strings, "
                            f"got {self.covariate_names!r}")
        names = tuple(self.covariate_names)
        bad = [name for name in names if not isinstance(name, str)]
        if bad:
            raise DataError(f"covariate names must be strings, got {bad}")
        if len(names) != x.shape[1]:
            raise DataError(
                f"{x.shape[1]} covariate columns but {len(names)} names given")
        if len(set(names)) != len(names):
            raise DataError(f"covariate names must be distinct, got {names}")
        for arr, attr in ((z.astype(np.int64), "z"), (m.astype(np.int64), "m"),
                          (y.astype(np.int64), "y"), (x, "x")):
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)
        object.__setattr__(self, "covariate_names", names)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def take(self, indices) -> "Dataset":
        """Row-subset (or resample) view as a new Dataset."""
        idx = np.asarray(indices)
        return Dataset(self.z[idx], self.m[idx], self.y[idx], self.x[idx],
                       self.covariate_names)

    def equals(self, other: "Dataset") -> bool:
        return (self.covariate_names == other.covariate_names
                and np.array_equal(self.z, other.z)
                and np.array_equal(self.m, other.m)
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.x, other.x))


@dataclass(frozen=True)
class LoadResult:
    """A loaded Dataset plus how many incomplete rows were dropped."""

    dataset: Dataset
    dropped: int


def load_csv(path, roles: ColumnRoles, delimiter: str = ",") -> LoadResult:
    """Read a delimited text file into a complete-case Dataset.

    Rows with a missing value (empty cell or "NA") in any mapped column
    are dropped and counted. Non-binary exposure/mediator/outcome values
    and non-numeric or non-finite covariates are data errors naming the
    offending rows.

    A body of plain numbers, one row per line, with 0/1 exposure, mediator
    and outcome and finite covariates is parsed by numpy's C reader, which
    reads the file by path past the header's lines. The row loop reads
    every other body and alone reports bad cells and dropped rows. It also
    reads any path that is not a regular file, such as a named pipe or
    /dev/stdin, whose bytes can be read only once.
    """
    _check_delimiter(delimiter)
    if not stat.S_ISREG(os.stat(path).st_mode):
        return _load_rows(path, roles, delimiter)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header, pos = _read_header(reader, path, roles)
    loaded = _load_numeric(path, reader.line_num, len(header), pos, delimiter)
    return loaded if loaded is not None else _load_rows(path, roles, delimiter)


def _check_delimiter(delimiter) -> None:
    """A one-character string other than a line break, which would split
    every row into one line per field."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ConfigError(
            f"delimiter must be a one-character string, got {delimiter!r}")
    if delimiter in "\r\n":
        raise ConfigError(f"delimiter must not be a line break, got {delimiter!r}")


def _read_header(reader, path, roles: ColumnRoles) -> tuple[list[str], dict]:
    """The stripped header row and each mapped column's position: exposure,
    mediator, outcome, then the covariates."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    wanted = [roles.exposure, roles.mediator, roles.outcome, *roles.covariates]
    missing = [c for c in wanted if c not in header]
    if missing:
        raise ConfigError(f"{path}: mapped columns not in header: {missing}")
    repeated = [c for c in wanted if header.count(c) > 1]
    if repeated:
        raise DataError(
            f"{path}: mapped columns appear more than once in header: {repeated}")
    return header, {c: header.index(c) for c in wanted}


def _load_numeric(path, skip: int, width: int, pos: dict,
                  delimiter: str) -> LoadResult | None:
    """load_csv's result on the lines of the file after its first skip
    (the header's) if numpy's reader parses them, one row per line, into
    columns Dataset accepts, else None, and the row loop reports the
    problem. That reader skips blank lines and joins quoted line breaks,
    so it must return one row per line that _line_count counts."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            block = np.loadtxt(path, dtype=float, delimiter=delimiter, quotechar='"',
                               comments=None, ndmin=2, skiprows=skip,
                               encoding="utf-8-sig")
        except (TypeError, ValueError, Warning):
            return None
    if block.shape != (_line_count(path) - skip, width):
        return None
    cols = list(pos.values())
    z, m, y = block.take(cols[:3], axis=1).T
    try:
        ds = Dataset(z, m, y, block.take(cols[3:], axis=1), tuple(pos)[3:])
    except DataError:
        return None
    return LoadResult(ds, dropped=0)


# bytes per read of _line_count
_SCAN_CHUNK = 1 << 16


def _line_count(path) -> int:
    """The number of lines in the file, split at "\n", "\r" or "\r\n" as
    csv.reader and numpy's reader split them; a last line without a line
    break counts. None of these bytes occurs inside a UTF-8 character.

    Each chunk is counted once for "\n"; only a chunk that holds a "\r"
    is counted again for "\r" and "\r\n". A "\r\n" cut between two
    chunks is one line break whichever chunk holds a "\r"."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_CHUNK):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            lines -= last == b"\r" and chunk.startswith(b"\n")  # a "\r\n" cut in two
            last = chunk[-1:]
    return lines + (last not in b"\r\n")


def _number(text: str) -> float:
    """float(text) for text that is, once stripped, ASCII without "_";
    ValueError otherwise. float() alone reads "1_0" as 10.0 and digits of
    other scripts ("\u0663" as 3.0)."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return float(text)


def _load_rows(path, roles: ColumnRoles, delimiter: str) -> LoadResult:
    """load_csv by the row loop: every cell through csv and _number."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header, pos = _read_header(reader, path, roles)
        rows = list(reader)
    wanted = list(pos)

    z_vals, m_vals, y_vals, x_rows = [], [], [], []
    dropped = 0
    bad_binary: list[tuple[int, str, str]] = []
    bad_numeric: list[tuple[int, str, str]] = []
    bad_finite: list[tuple[int, str, str]] = []
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: data row {i} has {len(row)} fields, header has {len(header)}")
        cells = {c: row[pos[c]].strip() for c in wanted}
        if any(cells[c] in MISSING_TOKENS for c in wanted):
            dropped += 1
            continue
        rec = {}
        for c in (roles.exposure, roles.mediator, roles.outcome):
            try:
                val = _number(cells[c])
            except ValueError:
                val = None
            if val in (0.0, 1.0):
                rec[c] = int(val)
            else:
                bad_binary.append((i, c, cells[c]))
        xs = []
        for c in roles.covariates:
            try:
                xs.append(_number(cells[c]))
            except ValueError:
                bad_numeric.append((i, c, cells[c]))
            else:
                if not math.isfinite(xs[-1]):
                    bad_finite.append((i, c, cells[c]))
        if len(rec) == 3 and len(xs) == len(roles.covariates):
            z_vals.append(rec[roles.exposure])
            m_vals.append(rec[roles.mediator])
            y_vals.append(rec[roles.outcome])
            x_rows.append(xs)

    for bad, what in ((bad_binary, "non-binary exposure/mediator/outcome"),
                      (bad_numeric, "non-numeric covariate"),
                      (bad_finite, "non-finite covariate")):
        if bad:
            listed = ", ".join(f"row {i} {c}={v!r}" for i, c, v in bad[:_MAX_LISTED_ROWS])
            more = "" if len(bad) <= _MAX_LISTED_ROWS else f" (+{len(bad) - _MAX_LISTED_ROWS} more)"
            raise DataError(f"{path}: {what} values: {listed}{more}")
    if not z_vals:
        raise DataError(f"{path}: no complete rows after dropping {dropped} incomplete rows")

    x = np.array(x_rows, dtype=float) if roles.covariates else np.empty((len(z_vals), 0))
    ds = Dataset(np.array(z_vals), np.array(m_vals), np.array(y_vals), x,
                 tuple(roles.covariates))
    return LoadResult(dataset=ds, dropped=dropped)


# rows per write_csv chunk: bounds the Python ints, floats and strings
# alive at once, while each fh.write still takes many rows. A chunk's
# lines all live until the join; at 4096 rows of a 500k-row write they
# left the process's peak RSS about 1 MB higher than a row writer's.
_WRITE_CHUNK = 1024

def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset as a comma-separated file that load_csv reads back
    as an identical Dataset.

    The covariate names are checked before the file is opened: csv.writer
    leaves a name with a carriage return unquoted, and csv.reader reads
    that as a line break, so such a name is a DataError. csv.writer writes
    the header row only. The body goes out _WRITE_CHUNK rows at a time as
    one string: a row is one of eight "z,m,y" prefixes, indexed by
    4z + 2m + y, then repr of each covariate, which round-trips doubles
    exactly. A body field holds only 0-9 . + - e, never a comma, so none
    is quoted and the bytes are those of one csv writerow per row of
    int(z), int(m), int(y) and repr(float(v)) per covariate.
    """
    for name in ds.covariate_names:
        if "\r" in name:
            raise DataError(
                f"covariate name {name!r} must not hold a carriage return")
    prefixes = [",".join(bits) for bits in itertools.product("01", repeat=3)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["z", "m", "y", *ds.covariate_names])
        for lo in range(0, ds.n, _WRITE_CHUNK):
            rows = slice(lo, lo + _WRITE_CHUNK)
            codes = 4 * ds.z[rows] + 2 * ds.m[rows] + ds.y[rows]
            columns = [map(repr, col) for col in ds.x[rows].T.tolist()]
            fh.write("\n".join(map(",".join, zip(
                map(prefixes.__getitem__, codes.tolist()), *columns))))
            fh.write("\n")


# model -> its blocks in column order, each a ModelSpec flag (None for a
# block that is always present) and its factors among z, m and x; the
# intercept has none. A flag requires the flag of every block whose factors
# it strictly contains.
_LAYOUTS = {
    "exposure": ((None, ""), ("exposure_x", "x")),
    "mediator": ((None, ""), (None, "z"), ("mediator_x", "x"),
                 ("mediator_zx", "zx")),
    "outcome": ((None, ""), (None, "z"), (None, "m"), ("outcome_zm", "zm"),
                ("outcome_x", "x"), ("outcome_zx", "zx"), ("outcome_mx", "mx"),
                ("outcome_zmx", "zmx")),
}


@dataclass(frozen=True)
class ModelSpec:
    """Term flags for the three probit models, one per optional block of
    _LAYOUTS.

    Intercepts, the exposure main effect in the mediator model and the
    exposure and mediator main effects in the outcome model are always
    present and have no flags. A flag requires the flag of every block of
    its model whose factors it strictly contains (z*x needs x; z*m*x needs
    z*m, x, z*x and m*x); the default is the full model.
    """

    exposure_x: bool = True
    mediator_x: bool = True
    mediator_zx: bool = True
    outcome_zm: bool = True
    outcome_x: bool = True
    outcome_zx: bool = True
    outcome_mx: bool = True
    outcome_zmx: bool = True

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            if not isinstance(value := getattr(self, name), (bool, np.bool_)):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        for blocks in _LAYOUTS.values():
            for flag, factors in blocks:
                off = [inner for inner, part in blocks if inner
                       and set(part) < set(factors) and not getattr(self, inner)]
                if flag and getattr(self, flag) and off:
                    raise ConfigError(f"{flag} requires {' and '.join(off)}")


def _blocks(model: str, spec: ModelSpec) -> list[str]:
    """The factors of each block of the model that spec enables, in order."""
    return [factors for flag, factors in _LAYOUTS[model]
            if flag is None or getattr(spec, flag)]


def _design(model: str, spec: ModelSpec, x, **zm) -> np.ndarray:
    """The model's design: each enabled block's product of factors (z and m
    vectors, x an (n, p) matrix; the intercept a column of ones), written
    into one Fortran-order array.

    Each block is written in place, its factors multiplied left to right
    with no temporary. A product reads x from the design's own x block,
    whose columns are contiguous whatever the layout of the x given: the
    layout puts that block, and the flag rule keeps it, before every
    block that multiplies x."""
    vals = {"x": np.asarray(x, dtype=float),
            **{key: np.asarray(v, dtype=float).reshape(-1, 1) for key, v in zm.items()}}
    n, p = vals["x"].shape
    if any(len(v) != n for v in vals.values()):  # a block would broadcast
        raise ValueError(f"z, m and x must have {n} rows each, as x has")
    blocks = _blocks(model, spec)
    out = np.empty((n, sum(p if "x" in f else 1 for f in blocks)), order="F")
    j = 0
    for factors in blocks:
        block = out[:, j:j + (p if "x" in factors else 1)]
        if len(factors) < 2:
            block[...] = vals[factors] if factors else 1.0
            if factors == "x":
                vals["x"] = block
        else:
            np.multiply(vals[factors[0]], vals[factors[1]], out=block)
            for f in factors[2:]:
                block *= vals[f]
        j += block.shape[1]
    return out


def _terms(model: str, spec: ModelSpec, names: tuple[str, ...]) -> list[str]:
    """The design's column names: "intercept", "z", "z:m", "age", "z:m:age"."""
    out = []
    for factors in _blocks(model, spec):
        stem = list(factors.rstrip("x"))
        out += ([":".join([*stem, s]) for s in names] if "x" in factors
                else [":".join(stem) or "intercept"])
    return out


class _GatherMap(NamedTuple):
    """How X_a'diag(w)X_b is gathered from P = (w L)'X_b, L width columns
    of X_a: runs pairs each run of them in X_a with its columns in L, and
    entry (i, j) is P.flat[index[i, j]]."""

    runs: tuple[tuple[slice, slice], ...]
    index: np.ndarray
    width: int


def _gather_map(picks: dict, k_a: int, k_b: int, same: bool) -> _GatherMap:
    """The _GatherMap of picks {(i, j): (l, j')}, each X_a column l whose
    product with X_b column j' is that of X_a column i with X_b column j;
    a same-model map has picks for j >= i only and is mirrored, so the
    Hessian it gathers is exactly symmetric."""
    rows = sorted({l for l, _ in picks.values()})
    at = {l: r for r, l in enumerate(rows)}
    index = np.empty((k_a, k_b), dtype=np.intp)
    for (i, j), (l, jj) in picks.items():
        index[i, j] = at[l] * k_b + jj
        if same:
            index[j, i] = index[i, j]
    index.setflags(write=False)
    starts = [l for l in rows if l - 1 not in at]
    ends = [l + 1 for l in rows if l + 1 not in at]
    runs = tuple((slice(a, b), slice(at[a], at[a] + b - a))
                 for a, b in zip(starts, ends))
    return _GatherMap(runs, index, len(rows))


@functools.lru_cache(maxsize=16)
def _full_map(k: int) -> _GatherMap:
    """The _GatherMap of a design whose layout is not known: L is every
    column, and P's upper triangle is gathered."""
    return _gather_map({(i, j): (i, j) for i in range(k) for j in range(i, k)},
                       k, k, True)


def _columns(model: str, spec: ModelSpec, p: int) -> list[tuple]:
    """Each design column as (its 0/1 factors among z and m, its covariate
    or None)."""
    return [(frozenset(factors.rstrip("x")), c) for factors in _blocks(model, spec)
            for c in (range(p) if "x" in factors else (None,))]


def _product(a: tuple, b: tuple) -> tuple:
    """The product of two columns as (its 0/1 factors, its covariates):
    z z = z, so the 0/1 factors are a set."""
    return a[0] | b[0], tuple(sorted(c for c in (a[1], b[1]) if c is not None))


@functools.lru_cache(maxsize=64)
def _hessian_map(left: str, right: str, spec: ModelSpec, p: int) -> _GatherMap:
    """The _GatherMap of the left and right models' designs under spec
    with p covariates. As z and m are 0/1, the product of two design
    columns is mostly the product of a base column of the left design
    ([1, x]: no z or m) and some right column. Where no column of L has
    such a partner (z*m with outcome_zm off), the left column joins L."""
    cols_a, cols_b = _columns(left, spec, p), _columns(right, spec, p)
    found = {}  # product -> (its L column, its right column)

    def join(l):
        for j, col in enumerate(cols_b):
            found.setdefault(_product(cols_a[l], col), (l, j))

    for l, (zm, _) in enumerate(cols_a):
        if not zm:
            join(l)
    same = left == right
    picks = {}
    for i, col in enumerate(cols_a):
        for j in range(i if same else 0, len(cols_b)):
            key = _product(col, cols_b[j])
            if key not in found:
                join(i)
            picks[i, j] = found[key]
    return _gather_map(picks, len(cols_a), len(cols_b), same)


def exposure_design(x: np.ndarray, spec: ModelSpec) -> np.ndarray:
    return _design("exposure", spec, x)


def mediator_design(z: np.ndarray, x: np.ndarray, spec: ModelSpec) -> np.ndarray:
    return _design("mediator", spec, x, z=z)


def outcome_design(z: np.ndarray, m: np.ndarray, x: np.ndarray,
                   spec: ModelSpec) -> np.ndarray:
    return _design("outcome", spec, x, z=z, m=m)


def build_exposure_design(ds: Dataset, spec: ModelSpec) -> np.ndarray:
    return exposure_design(ds.x, spec)


def build_mediator_design(ds: Dataset, spec: ModelSpec) -> np.ndarray:
    return mediator_design(ds.z, ds.x, spec)


def build_outcome_design(ds: Dataset, spec: ModelSpec) -> np.ndarray:
    return outcome_design(ds.z, ds.m, ds.x, spec)


def exposure_terms(spec: ModelSpec, names: tuple[str, ...]) -> list[str]:
    return _terms("exposure", spec, names)


def mediator_terms(spec: ModelSpec, names: tuple[str, ...]) -> list[str]:
    return _terms("mediator", spec, names)


def outcome_terms(spec: ModelSpec, names: tuple[str, ...]) -> list[str]:
    return _terms("outcome", spec, names)


@dataclass(frozen=True)
class CovariateProfile:
    """A single covariate row at which conditional effects are evaluated;
    its values must be integers or floats (no bools, strings or objects)."""

    values: np.ndarray
    name: str = "profile"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"profile name must be a string, got {self.name!r}")
        vals = np.atleast_1d(np.array(_as_real_array(  # a copy to freeze
            self.values, f"profile {self.name!r} values", DataError)))
        if vals.ndim != 1:
            raise DataError("profile values must be a flat vector")
        if not np.isfinite(vals).all():
            raise DataError(f"profile {self.name!r} has non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def covariate_stats(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-column means and (population) standard deviations of x (empty
    when p = 0)."""
    return ds.x.mean(axis=0), ds.x.std(axis=0)


def model_designs(ds: Dataset, spec: ModelSpec) -> dict:
    """Unvalidated (design, response) per model, keyed as UnconstrainedFits."""
    return {"exposure": (build_exposure_design(ds, spec), ds.z),
            "mediator": (build_mediator_design(ds, spec), ds.m),
            "outcome": (build_outcome_design(ds, spec), ds.y)}


def require_full_rank(design: np.ndarray, what: str) -> np.ndarray:
    """The Gram G = X'X of the (n, k) design, n > k; RankError "<what> is
    rank deficient" unless the design has full column rank by
    np.linalg.matrix_rank.

    The Gram decides first: its eigenvalues are the squared
    singular values s_i**2, and matrix_rank accepts X when
    s_min > s_max * n * eps. Rounding X'X moves G by at most
    n * u * ||X||_F**2 <= (k/2) * n * eps * s_max**2 in the 2-norm
    (u = eps/2, to first order), and eigvalsh's backward error of order
    k**2 * u * s_max**2 is below that for n > k. So every computed
    eigenvalue is within k * n * eps * s_max**2 of its s_i**2, and a
    computed lam_min > c * n * eps * lam_max with c = k + 2 >= 3 leaves
    s_min**2 > n * eps * s_max**2: far above the (n * eps * s_max)**2
    that matrix_rank needs, its own rounding included. Designs at or below
    the bound go to matrix_rank, so the SVD still decides every RankError.
    A design with a NaN or infinite entry, or one too large for X'X to be
    finite, is a DataError naming it: no fit could use it.
    """
    n, k = design.shape
    with np.errstate(over="ignore", invalid="ignore"):
        gram = design.T @ design
    if not np.isfinite(gram).all():
        raise DataError(f"{what} has a non-finite or overflowing entry: "
                        "its X'X is not finite")
    lam = np.linalg.eigvalsh(gram)
    if (lam[0] <= (k + 2) * n * np.finfo(float).eps * lam[-1]
            and np.linalg.matrix_rank(design) < k):
        raise RankError(f"{what} is rank deficient")
    return gram


def validate_for_fit(ds: Dataset, spec: ModelSpec) -> dict:
    """Checks run at every fit boundary: size, variance, design rank.
    Returns the model_designs table whose designs passed them, each row
    (design, response, gram) with the Gram X'X on which require_full_rank
    decided the design's rank. A
    covariate whose values are all equal is a DataError naming it; the
    test is exact (each value against the column's first, one pass), so
    a column fixed at 0.1, whose computed std is not 0, is named too. Each
    design's rank is decided by require_full_rank: one Gram eigenvalue
    check, and matrix_rank's SVD only when the Gram's smallest eigenvalue
    is at most (k + 2) * n * eps times its largest."""
    if ds.n <= ds.p + 10:
        raise DataError(
            f"dataset too small to fit: n = {ds.n} rows with p = {ds.p} "
            f"covariates (need n > p + 10)")
    if ds.p:
        same = (ds.x == ds.x[0]).all(axis=0)
        flat = [name for name, s in zip(ds.covariate_names, same) if s]
        if flat:
            raise DataError(f"covariate columns with zero variance: {flat}")
    return {label: (design, response,
                    require_full_rank(design, f"{label} design matrix"))
            for label, (design, response) in model_designs(ds, spec).items()}

