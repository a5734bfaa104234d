"""How crosscity reads and writes text: every file it writes goes through
`atomic_open`, and every input file it reads through `open_text`. CSV tables,
`#`-commented lines and typed fields are parsed here; checkpoints and
metric reports in `checkpoint.py` and `metrics.py`."""

import contextlib
import itertools
import math
import os
import shutil

import numpy as np

from . import parallel


class DataError(ValueError):
    pass


@contextlib.contextmanager
def atomic_open(path):
    """Write to a temp file beside path that replaces it only once the block
    succeeds; on failure path is untouched and the temp file removed."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@contextlib.contextmanager
def open_text(path):
    """The file at path opened for reading in the locale's encoding, which
    the writers use; a byte it cannot decode, met anywhere in the block, is
    a DataError naming path."""
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: byte {exc.object[exc.start]:#04x} is not "
                            f"{exc.encoding} text") from None


def float_reprs(values):
    """The repr of each entry of the 1-D float array `values`."""
    return map(repr, np.asarray(values, dtype=np.float64).tolist())


# float cells above which write_table formats a table on several workers.
# On a 2-vCPU VM (Python 3.11, numpy 2.4) a cell's repr costs about 1.3 us
# and a fork and join of two workers, with their part files, about 4 ms.
# Medians of 61 alternated writes of a 70-column table, serial against two
# workers: 6.0 against 8.5 ms at 4,060 cells, 11.9 against 12.2 ms at
# 8,190, 17.1 against 14.6 ms at 12,250 and 102.5 against 64.4 ms at 80,640.
PARALLEL_CELLS = 8192


def write_table(path, header, rows):
    """Write a CSV file: the header's cells, then for each (lead, values) of
    rows a line of lead, as text, and the floats values.

    A table of more than ``PARALLEL_CELLS`` float cells is cut into one
    contiguous block of rows per worker of ``parallel.worker_count``.
    ``parallel.for_each`` has worker k format block k into part file k, and
    the parts are streamed in order into the table's temp file and then
    removed, whether or not every worker succeeds. A smaller table, or one
    that worker_count gives one worker, goes straight into the temp file.
    Either way the bytes are the same.
    The cut-off, 8,192 cells, is where two workers broke even with one on a
    2-vCPU VM (12.2 against 11.9 ms for 8,190 cells), as a fork and join
    costs about 4 ms; see ``PARALLEL_CELLS``."""
    rows = list(rows)
    cells = sum(len(values) for _, values in rows)
    workers = parallel.worker_count(len(rows)) if cells > PARALLEL_CELLS else 1
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        if workers == 1:
            _write_rows(fh, rows)
        else:
            _write_blocks(fh, path, rows, workers)


def _write_rows(fh, rows):
    for lead, values in rows:
        fh.write(f"{lead},{','.join(float_reprs(values))}\n")


def _write_blocks(fh, path, rows, workers):
    """rows into fh through part files beside path, block k by worker k."""
    parts = [f"{path}.{os.getpid()}.part{k}" for k in range(workers)]
    bounds = [len(rows) * k // workers for k in range(workers + 1)]

    def work(k):
        with atomic_open(parts[k]) as part:
            _write_rows(part, rows[bounds[k]:bounds[k + 1]])

    try:
        parallel.for_each(work, range(workers))
        for part in parts:
            with open(part) as src:
                shutil.copyfileobj(src, fh)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def content_lines(path):
    """(line number, text) of each line of the file at path, with its `#`
    comment and outer blanks cut; lines left empty are skipped."""
    with open_text(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield ln, line


def read_cells(parse, toks, path, ln, cols):
    """parse applied to the cells toks of CSV line ln, under the headers
    cols; DataError names the path, line and column of the first cell it
    cannot read, or of a non-finite float."""
    vals = []
    for col, tok in zip(cols, toks):
        try:
            vals.append(parse(tok))
        except ValueError:
            raise DataError(f"{path}, line {ln}, column {col}: cannot read {tok!r}") from None
        if parse is float and not math.isfinite(vals[-1]):
            raise DataError(f"{path}, line {ln}, column {col}: non-finite value {tok!r}")
    return vals


# numpy's reader strips these separators around a cell, which float() refuses
_NUMPY_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


def parse_floats(lines, width):
    """`lines`, text rows of `width` comma-separated float cells, as one
    (rows, width) float64 array parsed in one pass by numpy's C reader; or
    None where that array could differ from float() of each cell, all
    finite. The two read every number alike, save that numpy alone skips an
    empty row and strips \\x1c-\\x1f around a cell: such a row, like a
    ValueError raised by `lines` itself, gives None."""
    count = 0

    def plain():
        nonlocal count
        for line in lines:
            if not line or any(c in line for c in _NUMPY_ONLY_BLANKS):
                raise ValueError(line)
            count += 1
            yield line

    rows = plain()
    try:
        first = next(rows, None)
        if first is None:  # numpy warns on no lines
            return None
        values = np.loadtxt(itertools.chain((first,), rows), dtype=np.float64,
                            delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (count, width) or not np.isfinite(values).all():
        return None
    return values


def read_table(path, parse_first, width=None):
    """The first cells, read by parse_first, and the float rest of each row
    of the CSV file at path, as a list and a (rows, header width - 1) array;
    every row is as wide as the header, which is `width` cells wide when
    that is given. The rows go straight into the array by
    ``parse_floats``; a file it refuses is read again by the per-cell scan,
    whose DataError names the path, line and column of what it refuses."""
    firsts = []
    with open_text(path) as fh:
        header = fh.readline().strip().split(",")

        def rests():
            for line in fh:
                first, _, rest = line.strip().partition(",")
                firsts.append(parse_first(first))
                yield rest

        values = (parse_floats(rests(), len(header) - 1)
                  if width in (None, len(header)) else None)
    if values is None:
        return _scan_table(path, parse_first, width)
    return firsts, values


def _scan_table(path, parse_first, width):
    """``read_table`` cell by cell: float() of each cell, and the first
    refused cell, row or header named."""
    with open_text(path) as fh:
        header = fh.readline().strip().split(",")
        if width is not None and len(header) != width:
            raise DataError(f"{path}: expected {width} columns, found {len(header)}")
        firsts, rows = [], []
        for ln, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise DataError(f"{path}, line {ln}: row width {len(parts)}, "
                                f"header width {len(header)}")
            firsts += read_cells(parse_first, parts[:1], path, ln, header)
            rows.append(read_cells(float, parts[1:], path, ln, header[1:]))
    return firsts, np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# a field's kind, by the type of its default: the kind's name, its reader of
# a raw string (`;`-separated items for a tuple or list) and its JSON test
_KINDS = {
    int: ("int", int, _is_int),
    float: ("float", float, _is_number),
    str: ("str", str, lambda v: isinstance(v, str)),
    tuple: ("floats", lambda raw: tuple(map(float, filter(None, raw.split(";")))),
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
    list: ("strs", lambda raw: list(filter(None, raw.split(";"))),
           lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    type(None): ("int or none",
                 lambda raw: None if raw in ("", "none", "None") else int(raw),
                 lambda v: v is None or _is_int(v)),
}


def parse_fields(kv, defaults, what):
    """The raw strings kv read as the kinds of the same-named fields of the
    dataclass instance `defaults`; DataError names the `what` key it refuses."""
    fields = {}
    for key, raw in kv.items():
        if key not in defaults.__dataclass_fields__:
            raise DataError(f"unknown {what} key {key!r}")
        name, parse, _ = _KINDS[type(getattr(defaults, key))]
        try:
            fields[key] = parse(raw)
        except ValueError:
            raise DataError(f"{what} key {key!r}: cannot read {raw!r} "
                            f"as {name}") from None
    return fields


# shared range rules: what a value is expected to be, and its test
AT_LEAST_0 = ("at least 0", lambda v: v >= 0)
AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
ABOVE_0 = ("a value above 0", lambda v: v > 0)
# a float, or each of a tuple or list of them
FINITE = ("a finite value", lambda v: all(
    map(math.isfinite, v if isinstance(v, (tuple, list)) else (v,))))

# a city's name, or each of a list of them: part of its file names, of its
# checkpoint records, which split at whitespace, and of CSV cells
CITY_NAMES = ("city names that are not empty and hold no whitespace, '/' or ','",
              lambda v: all(n and not any(c in "/," or c.isspace() for c in n)
                            for n in ([v] if isinstance(v, str) else v)))


def check_fields(d, defaults, rules, what):
    """DataError unless every value of d has the kind of the same-named
    field of `defaults` (an int counts as a float, a bool as neither) and
    then every non-null one passes its key's rules in `rules`, a dict of
    key -> ordered (what it expects, its test) pairs; the error names the
    first `what` key that fails and its first failing rule."""
    for key, value in d.items():
        name, _, accepts = _KINDS[type(getattr(defaults, key))]
        if not accepts(value):
            raise DataError(f"{what} key {key!r}: expected {name}, got {value!r}")
    for key, value in d.items():
        for expects, test in rules.get(key, ()):
            if value is not None and not test(value):
                raise DataError(f"{what} key {key!r}: expected {expects}, "
                                f"got {value!r}")
