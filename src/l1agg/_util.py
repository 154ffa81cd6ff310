"""The text formats, each read or written in one place: headered CSV
tables, ``key = value`` files and values in; CSV text out, atomically."""

from __future__ import annotations

import contextlib
import csv
import io
import numbers
import os
import tempfile

from .errors import ConfigError, ShapeError


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-file + rename so readers never see a torn file;
    an OSError that names a file names ``path``, never the temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def fmt(value) -> str:
    """Deterministic CSV cell formatting (shortest round-trip for floats)."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def csv_text(header, rows) -> str:
    """CSV text: the ``header`` row, then one row of :func:`fmt` cells per
    item of ``rows``; every line ends in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(value) for value in row] for row in rows)
    return buf.getvalue()


def read_csv(path, parse_row, header=None):
    """Read a headered CSV file into ``(names, records)``: the header cells
    stripped of white space (checked against ``header`` when given) and
    ``parse_row(cells)`` for each non-blank row. Raises ShapeError naming
    ``path:line`` for a row whose width differs from the header's or that
    ``parse_row`` rejects with ValueError, and for a file without rows,
    and ShapeError naming ``path`` for a file that is not UTF-8 text. A
    leading UTF-8 byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            names = [name.strip() for name in next(reader, [])]
            if header is not None and names != list(header):
                raise ShapeError(f"{path}:1: expected the header {','.join(header)}")
            records = []
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(names):
                    raise ShapeError(
                        f"{path}:{reader.line_num}: {len(cells)} cells, header has {len(names)}"
                    )
                try:
                    records.append(parse_row(cells))
                except ValueError as exc:
                    raise ShapeError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise ShapeError(f"{path}: not UTF-8 text") from None
    if not records:
        raise ShapeError(f"{path}: no data rows")
    return names, records


def read_key_values(path) -> dict[str, tuple[int, str]]:
    """Read a ``key = value`` file into ``{key: (line number, value)}``,
    skipping blank lines and ``#`` comments; a later line overrides an
    earlier one. Raises ConfigError naming ``path:line`` for a line
    without ``=``, and naming ``path`` for a file that is not UTF-8 text.
    A leading UTF-8 byte-order mark is skipped."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line_number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{line_number}: expected key = value")
                entries[key.strip()] = (line_number, value.strip())
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    return entries


def _integral(value) -> bool:
    """Whether ``value`` is an integer or an integral float (1e3); nan and
    inf are not."""
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def parse_value(text: str, convert, where: str):
    """``convert(text)`` for a value from a flag or a file; a ValueError
    becomes a ConfigError naming ``where`` (a flag, or ``path:line: key``)."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{where}: cannot read {text!r}") from None
