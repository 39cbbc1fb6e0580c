"""File ingestion, validation, and ratio computation.

Formats (UTF-8, '.' decimal separator, scientific notation accepted):

* matrix: header ``feature_id`` then sample ids; one row per feature with
  one numeric field per sample; tab- or comma-separated by extension or
  explicit format.
* metadata: columns sample_id, role (control|treated), compound, replicate,
  control_id, header required, any column order.
* weights: columns sample_a, sample_b, weight (-1|0|1); pairs not listed
  take the configured default.

Ratios are log2(treated / control) per feature. A zero numerator or
denominator is replaced by the smallest strictly positive value of its own
column, so every ratio is finite. The stored matrix keeps literal zeros;
replacement happens per occurrence at ratio time.
"""

from __future__ import annotations

import array
import contextlib
import csv
import itertools
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _ckernel
from .errors import ValidationError
from .model import (
    ROLE_TREATED,
    ExpressionMatrix,
    PairWeights,
    RatioMatrix,
    SampleMeta,
    SampleRecord,
)

_META_COLUMNS = ("sample_id", "role", "compound", "replicate", "control_id")
_WEIGHT_COLUMNS = ("sample_a", "sample_b", "weight")


@dataclass
class IngestReport:
    """What ingestion changed or flagged: replacements, drops, warnings."""

    zero_replacements: list[tuple[str, float, int]] = field(default_factory=list)
    dropped_features: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _delimiter(path, fmt: str | None) -> str:
    if fmt is None:
        fmt = "csv" if Path(path).suffix.lower() == ".csv" else "tsv"
    if fmt == "tsv":
        return "\t"
    if fmt == "csv":
        return ","
    raise ValidationError(f"unknown format {fmt!r}, expected 'tsv' or 'csv'")


def _rows(path, fmt: str | None):
    """Yield ``(line, cells)`` for each row that is not blank; ``line`` is the physical
    line the row ends on, so blank lines count. Cells keep their whitespace."""
    delim = _delimiter(path, fmt)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delim)
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row


def _open_rows(path, fmt: str | None, what: str):
    """``(rows after the header, header line, stripped header cells)`` of a file."""
    rows = _rows(path, fmt)
    first = next(rows, None)
    if first is None:
        raise ValidationError(f"{path}: empty {what} file")
    return rows, first[0], [cell.strip() for cell in first[1]]


def _check_level(token: str, path, line: int, column_id: str) -> None:
    try:
        value = float(token)
    except ValueError:
        raise ValidationError(f"{path}:{line}: non-numeric value {token!r} in column {column_id!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"{path}:{line}: non-finite value {token!r} in column {column_id!r}")
    if value < 0:
        raise ValidationError(f"{path}:{line}: negative value {token!r} in column {column_id!r}")


def _raise_for_row(path, fmt: str | None, index: int, sample_ids) -> None:
    """Re-read data row ``index`` (0-based) of a matrix file and raise for its
    first offending cell, which names the original token."""
    rows, _, _ = _open_rows(path, fmt, "matrix")
    line, row = next(itertools.islice(rows, index, None))
    for tok, sample_id in zip(row[1:], sample_ids):
        _check_level(tok.strip(), path, line, sample_id)
    raise ValidationError(f"{path}:{line}: row changed while the file was read")


# Bytes read from a matrix file at a time by the compiled parser. A block
# larger than 256 KiB adds to peak memory and saves no time.
_BLOCK = 1 << 18


def _parse_compiled(path, delim: str):
    """``(sample ids, feature ids, values)`` of a matrix file parsed in the C
    library, or None if the library is not loaded or the file is not in the
    form it reads.

    The file is read in blocks of ``_BLOCK`` bytes (less for a smaller file,
    more for a longer row), each cut after its last newline. Each block is
    parsed into one reused buffer with room for as many rows as a block of
    its size can hold, and is all rows exactly when the parser consumed all
    of it. The file must be a regular file, in UTF-8, with a ``feature_id``
    header of at least two sample ids and no quote, NUL or carriage return
    other than one ending a line; every later line a row as
    ``_ckernel.parse_rows`` reads it, ending in a newline; and every value
    finite and not negative. Anything else is left to the Python parser,
    which then names the fault.
    """
    lib = _ckernel.load()
    if lib is None:
        return None
    try:
        info = os.stat(path)
    except OSError:  # the Python parser reports it
        return None
    if not stat.S_ISREG(info.st_mode):  # a pipe could not be read again
        return None
    max_field = csv.field_size_limit()
    with open(path, "rb") as fh:
        block = bytearray(min(_BLOCK, info.st_size + 1))
        view = memoryview(block)
        size = fh.readinto(block)
        pos = block.find(b"\n", 0, size) + 1
        if not pos:
            return None
        header = bytes(view[:pos - 1]).removesuffix(b"\r")
        if any(c in header for c in (b'"', b"\0", b"\r")):
            return None
        try:
            header_cells = [cell.strip() for cell in header.decode("utf-8").split(delim)]
        except UnicodeDecodeError:
            return None
        sample_ids = header_cells[1:]
        width = len(sample_ids)
        if header_cells[0] != "feature_id" or width < 2:
            return None
        feature_ids = []
        levels = array.array("d")
        shortest_row = 2 * width + 1  # an empty id and a one-digit number per field
        parsed, spans = np.empty((0, width)), np.empty((0, 2), np.int64)
        while True:
            cut = block.rfind(b"\n", pos, size) + 1
            if cut:
                if len(parsed) < (cut - pos) // shortest_row:  # the first block, or a grown one
                    room = len(block) // shortest_row
                    parsed, spans = np.empty((room, width)), np.empty((room, 2), np.int64)
                rows, consumed = _ckernel.parse_rows(lib, block, pos, cut, delim, parsed, spans, max_field)
                if consumed != cut - pos:
                    return None
                levels.frombytes(memoryview(parsed[:rows]).cast("B"))
                try:
                    feature_ids += [str(view[s:e], "utf-8").strip() for s, e in spans[:rows].tolist()]
                except UnicodeDecodeError:
                    return None
                pos = cut
            tail = size - pos
            if tail == len(block):  # a row longer than the block
                grown = bytearray(2 * len(block))
                grown[:size] = block
                block, view = grown, memoryview(grown)
            else:
                view[:tail] = view[pos:size]
            read = fh.readinto(view[tail:])
            if not read:
                break
            pos, size = 0, tail + read
    if tail:  # the last row does not end in a newline
        return None
    values = np.frombuffer(levels, np.float64).reshape(-1, width)
    if not (np.isfinite(values) & (values >= 0)).all():
        return None
    return sample_ids, feature_ids, values


def _parse_python(path, fmt: str | None):
    """``(sample ids, feature ids, values)`` of a matrix file, parsed with
    ``csv.reader`` and ``float()``; raises for the first offending cell in
    file order. Before raising for a row it cannot parse, the rows read so far
    are checked as one block."""
    rows, line, header = _open_rows(path, fmt, "matrix")
    if header[0] != "feature_id":
        raise ValidationError(f"{path}:{line}: first header field must be 'feature_id', got {header[0]!r}")
    sample_ids = header[1:]
    width = len(sample_ids)
    if width < 2:
        raise ValidationError(f"{path}:{line}: need at least 2 sample columns")
    feature_ids = []
    levels = array.array("d")

    def check_rows_read() -> np.ndarray:
        """The complete rows read so far, after checking them as one block."""
        block = np.frombuffer(levels, np.float64, len(feature_ids) * width).reshape(-1, width)
        bad = np.flatnonzero(~(np.isfinite(block) & (block >= 0)).all(axis=1))
        if bad.size:
            _raise_for_row(path, fmt, int(bad[0]), sample_ids)
        return block

    for line, row in rows:
        if len(row) != len(header):
            check_rows_read()
            raise ValidationError(
                f"{path}:{line}: expected {len(header)} fields, got {len(row)} (ragged row)"
            )
        try:
            levels.extend(map(float, row[1:]))
        except ValueError:
            check_rows_read()
            _raise_for_row(path, fmt, len(feature_ids), sample_ids)
        feature_ids.append(row[0].strip())
    return sample_ids, feature_ids, check_rows_read()


def load_matrix(path, fmt: str | None = None) -> tuple[ExpressionMatrix, IngestReport]:
    """Parse and validate an expression matrix file.

    A well-formed file (see ``_parse_compiled``) is parsed in the C library
    when it is loaded; any other file, and every file when it is not, by
    ``csv.reader`` and ``float()``, which alone raise errors. Both give the
    same bits: the C converter (Eisel-Lemire, else ``strtod``) and ``float()``
    each round to the nearest double, and a load-time probe checks that.
    Features that are zero in every sample are dropped (they carry no signal
    and break correlation) and listed in the report. An error names the first
    offending cell in file order.
    """
    sample_ids, feature_ids, values = _parse_compiled(path, _delimiter(path, fmt)) or _parse_python(path, fmt)
    keep = values.any(axis=1)
    report = IngestReport()
    if not keep.all():
        kept = keep.tolist()
        report.dropped_features.extend(fid for fid, k in zip(feature_ids, kept) if not k)
        report.warnings.append(f"dropped {len(report.dropped_features)} all-zero feature(s)")
        feature_ids = list(itertools.compress(feature_ids, kept))
        values = values[keep]
    if len(feature_ids) < 2:
        raise ValidationError(f"{path}: fewer than 2 usable features after dropping all-zero rows")
    matrix = ExpressionMatrix(tuple(feature_ids), tuple(sample_ids), values)
    return matrix, report


def _header_map(header: list[str], required: tuple[str, ...], path, line: int) -> dict[str, int]:
    if sorted(header) != sorted(required):
        raise ValidationError(
            f"{path}:{line}: expected columns {list(required)}, got {header}"
        )
    return {name: header.index(name) for name in required}


def load_meta(path, fmt: str | None = None) -> SampleMeta:
    """Parse sample metadata; id consistency with a matrix is checked at pairing time."""
    rows, line, header = _open_rows(path, fmt, "metadata")
    cols = _header_map(header, _META_COLUMNS, path, line)
    records = []
    for line_no, row in rows:
        row = [cell.strip() for cell in row]
        if len(row) != len(_META_COLUMNS):
            raise ValidationError(f"{path}:{line_no}: expected {len(_META_COLUMNS)} fields, got {len(row)}")
        rep_token = row[cols["replicate"]]
        try:
            replicate = int(rep_token)
        except ValueError:
            raise ValidationError(f"{path}:{line_no}: replicate must be an integer, got {rep_token!r}") from None
        records.append(
            SampleRecord(
                sample_id=row[cols["sample_id"]],
                role=row[cols["role"]],
                compound=row[cols["compound"]],
                replicate=replicate,
                control_id=row[cols["control_id"]],
            )
        )
    return SampleMeta(tuple(records))


# the weight tokens a weights file may hold, and their values
_WEIGHTS = {"-1": -1, "0": 0, "1": 1}


def load_weights(path, fmt: str | None = None) -> list[tuple[str, str, int]]:
    """Parse explicit pair-weight entries; completion against the treated set
    and defaulting of unlisted pairs happen in PairWeights.from_entries."""
    rows, line, header = _open_rows(path, fmt, "weights")
    cols = _header_map(header, _WEIGHT_COLUMNS, path, line)
    a_col, b_col, weight_col = (cols[name] for name in _WEIGHT_COLUMNS)
    entries = []
    for line_no, row in rows:
        if len(row) != len(_WEIGHT_COLUMNS):
            raise ValidationError(f"{path}:{line_no}: expected {len(_WEIGHT_COLUMNS)} fields, got {len(row)}")
        token = row[weight_col].strip()
        weight = _WEIGHTS.get(token)
        if weight is None:
            raise ValidationError(f"{path}:{line_no}: weight must be -1, 0 or 1, got {token!r}")
        entries.append((row[a_col].strip(), row[b_col].strip(), weight))
    return entries


def replacement_value(column) -> float:
    """Smallest strictly positive value of the column (the zero stand-in)."""
    col = np.asarray(column, dtype=np.float64)
    positive = col[col > 0]
    if positive.size == 0:
        raise ValidationError("all-zero column has no replacement value")
    return float(positive.min())


def compute_ratios(matrix: ExpressionMatrix, meta: SampleMeta, report: IngestReport | None = None) -> RatioMatrix:
    """log2(treated / control) per feature, with per-column zero replacement.

    Treated columns appear in matrix column order. Applied replacements are
    appended to the report (one entry per affected column) when given.
    """
    matrix_ids = set(matrix.sample_ids)
    meta_ids = {rec.sample_id for rec in meta.samples}
    if matrix_ids != meta_ids:
        missing = sorted(meta_ids - matrix_ids)
        extra = sorted(matrix_ids - meta_ids)
        raise ValidationError(
            f"matrix and metadata sample ids differ (missing from matrix: {missing}, "
            f"not in metadata: {extra})"
        )
    treated_ids = [s for s in matrix.sample_ids if meta.record(s).role == ROLE_TREATED]
    if not treated_ids:
        raise ValidationError("metadata lists no treated samples")
    control_ids = [meta.control_for(treated) for treated in treated_ids]
    values = matrix.values
    # every column's zero count and smallest positive value (levels are not
    # negative, so a level that is not zero is positive), each in one pass over
    # the whole matrix; the mask is freed before the ratio blocks are built
    is_zero = values == 0.0
    zero_counts = np.count_nonzero(is_zero, axis=0).tolist()
    smallest = values.min(axis=0, initial=np.inf, where=np.logical_not(is_zero, out=is_zero)).tolist()
    del is_zero
    replaced: dict[str, tuple[float, int]] = {}
    # each used column once, in the order the ratios meet them: a treated
    # sample's control, then the sample
    for sample_id in dict.fromkeys(itertools.chain.from_iterable(zip(control_ids, treated_ids))):
        col = matrix.sample_index(sample_id)
        if zero_counts[col] == 0:
            continue
        if smallest[col] == np.inf:
            raise ValidationError(f"column {sample_id!r} is entirely zero; ratios are undefined")
        replaced[sample_id] = (smallest[col], zero_counts[col])

    def resolved(sample_ids) -> np.ndarray:
        """The columns of ``sample_ids`` with each zero replaced by its column's stand-in."""
        block = np.take(values, [matrix.sample_index(s) for s in sample_ids], axis=1)
        if replaced:
            fill = np.array([replaced[s][0] if s in replaced else 0.0 for s in sample_ids])
            np.copyto(block, fill, where=block == 0.0)
        return block

    ratios = resolved(treated_ids)
    ratios /= resolved(control_ids)
    np.log2(ratios, out=ratios)
    if report is not None:
        for sample_id in sorted(replaced):
            stand_in, count = replaced[sample_id]
            report.zero_replacements.append((sample_id, stand_in, count))
    return RatioMatrix(matrix.feature_ids, tuple(treated_ids), ratios)


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (``mode`` "w" for
    UTF-8 text, "wb" for bytes) and rename it to ``path`` when the block ends;
    on an exception, remove it instead. A run killed while writing leaves the
    earlier file or none, never part of one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path, corner: str, column_ids, row_ids, values: np.ndarray, delim: str = "\t") -> None:
    """Write a labelled table of floats: a header of ``corner`` and the column
    ids, then each row id and its values as ``%.17g``, which reads back to the
    same double. The C library writes the numbers when it is loaded and
    ``delim`` is one ASCII character (``_ckernel.format_rows``), else Python's
    ``%`` operator does; both give the same bytes."""
    lib = _ckernel.load() if len(delim) == 1 and delim.isascii() else None
    with replacing(path, "wb") as fh:
        fh.write((corner + delim + delim.join(column_ids) + "\n").encode("utf-8"))
        if lib is None:
            row_format = "%s" + delim + delim.join(["%.17g"] * values.shape[1]) + "\n"
            for row_id, row in zip(row_ids, values):
                fh.write((row_format % (row_id, *row.tolist())).encode("utf-8"))
        else:
            for row_id, text in zip(row_ids, _ckernel.format_rows(lib, values, delim)):
                fh.write(row_id.encode("utf-8"))
                fh.write(text)


def write_matrix(matrix: ExpressionMatrix, path, fmt: str | None = None) -> None:
    write_table(path, "feature_id", matrix.sample_ids, matrix.feature_ids, matrix.values, _delimiter(path, fmt))


def write_meta(meta: SampleMeta, path, fmt: str | None = None) -> None:
    delim = _delimiter(path, fmt)
    with replacing(path) as fh:
        fh.write(delim.join(_META_COLUMNS) + "\n")
        for rec in meta.samples:
            fh.write(
                delim.join(
                    (rec.sample_id, rec.role, rec.compound, str(rec.replicate), rec.control_id)
                )
                + "\n"
            )


def write_weights(weights: PairWeights, path, fmt: str | None = None) -> None:
    delim = _delimiter(path, fmt)
    with replacing(path) as fh:
        fh.write(delim.join(_WEIGHT_COLUMNS) + "\n")
        for (a, b) in sorted(weights.weights):
            fh.write(delim.join((a, b, str(weights.weights[(a, b)]))) + "\n")
