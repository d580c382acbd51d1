"""The ``filter`` command's input reader and the compact store it fills.

The values are held in one ``array('d')``, 8 bytes a sample.  The labels are
held one entry per chunk of input lines: a chunk read in bulk keeps its
labels as one ``"\\n"``-joined string (none of them holds a line break), a
chunk read row by row its list of labels (a quoted one may).
:func:`_labels` gives them back one by one, a chunk expanded at a time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from array import array
from itertools import chain, islice

from .errors import FixedGainError


class InputDataError(FixedGainError):
    """Input CSV could not be parsed as sample data."""


@contextlib.contextmanager
def _stdin_text():
    """Standard input decoded as an input file is: strict UTF-8, lines split
    by the csv module.  The locale's decoding of ``sys.stdin`` is bypassed,
    and its byte buffer is left open."""
    if sys.stdin is None:  # started with file descriptor 0 closed
        raise OSError("standard input is closed")
    fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="")
    try:
        yield fh
    finally:
        fh.detach()


_QUOTED_CHARS = frozenset(',"\r\n')  # a label holding none prints as read


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as a field of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


_CHUNK = 512  # input lines parsed at a time
_READ_ERRORS = (OSError, UnicodeDecodeError)
_NOT_SEPARATORS = bytes(range(256)).translate(None, b",\n")


def _read_samples(path: str) -> tuple[list[str | list[str]], array]:
    """Parse the filter input CSV into its label chunks and values.

    Accepts one column (value) or two (n,value); blank lines are skipped and
    the first non-blank row is treated as a header if its value is
    non-numeric.  Anything else is an InputDataError naming the file line.
    Lines end only at a line feed or carriage return, as the csv module reads
    them from the file.  A file and stdin are both read as UTF-8, and a UTF-8
    byte-order mark opening the input is dropped.

    Each label is held ready to print as a CSV field, quoted by
    ``csv.writer`` if it must be; one that ``sys.stdout`` cannot encode is an
    InputDataError here, before any output.  A one-column file's labels count
    the samples from 0.  The input is parsed ``_CHUNK`` lines at a time, a
    plain chunk in bulk and any other row by row, with the same result; a
    line that cannot be read is raised once the lines before it are parsed.
    """
    labels: list[str | list[str]] = []
    values = array("d")
    line, header = 0, True  # lines before the chunk; the first non-blank row is still to come
    try:
        with (_stdin_text() if path == "-"
              else open(path, "r", encoding="utf-8", newline="")) as source:
            while True:
                lines = []
                try:
                    lines.extend(islice(source, _CHUNK))  # keeps the lines read before a failure
                except _READ_ERRORS as exc:
                    source = _raising(exc)  # raised when a line past these is asked for
                if lines and not line:
                    lines[0] = lines[0].removeprefix("\ufeff")
                if lines and not header and _take_plain(lines, labels, values):
                    line += len(lines)
                    continue
                labels.append(kept := [])
                reader = csv.reader(chain(lines, source))  # reads on to end a record if need be
                for row in filter(None, reader):
                    if len(row) not in (1, 2):
                        raise InputDataError(f"expected 1 or 2 columns, got {len(row)}")
                    try:
                        value = float(row[-1])
                    except ValueError:
                        if header:
                            header = False
                            continue  # header row
                        raise InputDataError(f"non-numeric value {row[-1]!r}") from None
                    header = False
                    if not math.isfinite(value):
                        raise InputDataError(f"non-finite value {row[-1]!r}")
                    label = row[0] if len(row) == 2 else str(len(values))
                    if not label.isascii() and (encoding := sys.stdout.encoding) is not None:
                        try:
                            label.encode(encoding, sys.stdout.errors)
                        except UnicodeEncodeError:
                            raise InputDataError(f"label {label!r} cannot be written"
                                                 f" to standard output ({encoding})") from None
                    if not _QUOTED_CHARS.isdisjoint(label):
                        label = _csv_field(label)
                    kept.append(label)
                    values.append(value)
                    if reader.line_num >= len(lines):
                        break
                if not lines:
                    return labels, values
                line += reader.line_num
    except _READ_ERRORS as exc:
        raise InputDataError(f"cannot read {path!r}: {exc}") from exc
    except (InputDataError, csv.Error) as exc:  # csv refuses, say, a field over its size limit
        raise InputDataError(f"row {line + reader.line_num}: {exc}") from None


def _raising(exc):
    """A line source that raises ``exc`` at the first line asked of it."""
    raise exc
    yield  # unreachable; makes this a generator


def _take_plain(lines, labels, values):
    """Append the rows of ``lines`` in bulk and return True if they are plain:
    ASCII with no ``"``, carriage return or NUL, within the csv field limit in
    all, one comma on every line or on none (so no blank line), finite values."""
    text = "".join(lines).removesuffix("\n")
    if (len(text) > csv.field_size_limit() or not text.isascii()
            or '"' in text or "\r" in text or "\0" in text):
        return False
    cells, names = text.replace("\n", ",").split(","), None
    if "," in text:
        if text.encode().translate(None, _NOT_SEPARATORS) != b",\n" * text.count("\n") + b",":
            return False
        names, cells = cells[::2], cells[1::2]
    try:
        if not math.isfinite(sum(xs := array("d", map(float, cells)))):  # or the sum overflows
            return False
    except ValueError:
        return False
    labels.append("\n".join(names or map(str, range(len(values), len(values) + len(xs)))))
    values += xs
    return True


def _labels(chunks):
    """The labels of ``_read_samples``' chunks one by one; a joined chunk is
    split only when its first label is asked for."""
    return chain.from_iterable(c.split("\n") if isinstance(c, str) else c for c in chunks)
