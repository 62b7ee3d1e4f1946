"""Edge-list and metadata serialization; all writes are atomic (temp + rename)."""

from __future__ import annotations

import csv
import json
import os
import re
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import EdgeListParseError, ParseError
from .sampler import Graph

SCHEMA_VERSION = 1
EDGE_FORMAT_TAG = "hscm v1"
_HEADER = re.compile(r"#\s*" + re.escape(EDGE_FORMAT_TAG) + r"\b.*?\bn=(\d+)")
_WRITE_CHUNK = 1 << 16  # edges formatted per write
# "00".."99" as 100 uint16 cells, and the separator cells " \0" and "\n\0".
# The writer fills a native uint16 array from these and writes its native
# uint8 view, so each cell's two bytes come out in the order they went in,
# whatever the machine's byte order.
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_SEPARATORS = np.frombuffer(b" \0\n\0", np.uint16)
# loadtxt numbers data rows (comment and blank lines skipped) from 0 in
# conversion errors and from 1 in missing-column errors.  Ids parse as int32;
# an integer that int64 holds (up to 18 digits) is out of range, not bad.
_LOADTXT_ROW = (
    (re.compile(r"could not convert string '(?P<id>[+-]?\d{1,18})' to int32 at row (?P<row>\d+)",
                re.ASCII), 0, "node id {id} outside [0, 2**31)"),
    (re.compile(r"could not convert string (?P<token>'.*') to int32 at row (?P<row>\d+)"),
     0, "bad node id {token}"),
    (re.compile(r"invalid column index \d+ at row (?P<row>\d+)"), 1, "expected two node ids"),
)


@contextmanager
def _atomic_open(path):
    """Text file handle on a temp file that replaces `path` only on success."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_edge_list(path, graph: Graph, seed: int):
    """Self-describing text edge list: '# hscm v1 n=<n> seed=<seed>' then 'u v' rows.

    A chunk of rows is formatted as one uint16 array: each id fills `half`
    digit-pair cells, right-aligned with leading zeros, then its separator
    cell.  A row mask gathered by the two ids' digit counts keeps the
    significant digits and the separators' first bytes.  Ids must lie in
    [0, n), as Graph's form requires; the cells hold no sign and no more
    digits than n - 1 has.
    """
    width = len(str(max(graph.n - 1, 0)))  # digits of the largest id
    half = (width + 1) // 2
    powers = 10 ** np.arange(1, width)
    byte = np.arange(2 * half + 2)
    # keep[d - 1]: the bytes of one id's cells kept when it has d digits;
    # masks[(du - 1) * width + dv - 1]: those of a row
    keep = (byte >= 2 * half - np.arange(1, width + 1)[:, None]) & (byte <= 2 * half)
    masks = np.hstack((np.repeat(keep, width, axis=0), np.tile(keep, (width, 1))))
    with _atomic_open(path) as fh:
        fh.write(f"# {EDGE_FORMAT_TAG} n={graph.n} seed={seed}\n")
        for start in range(0, graph.num_edges, _WRITE_CHUNK):
            ids = graph.edges[start:start + _WRITE_CHUNK]
            cells = np.empty(ids.shape + (half + 1,), dtype=np.uint16)
            cells[:, :, half] = _SEPARATORS
            rest = ids
            for k in range(half - 1, 0, -1):
                rest, pair = np.divmod(rest, 100)
                cells[:, :, k] = _DIGIT_PAIRS[pair]
            cells[:, :, 0] = _DIGIT_PAIRS[rest]
            digits = np.searchsorted(powers, ids, side="right")  # digit count - 1
            rows = cells.view(np.uint8).reshape(ids.shape[0], -1)
            fh.write(rows[masks[digits[:, 0] * width + digits[:, 1]]].tobytes().decode("ascii"))


def _file_line(path, row: int) -> int:
    """1-based line of the row-th (0-based) data line, counted as loadtxt counts."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.split("#", 1)[0].strip():
                if row == 0:
                    return lineno
                row -= 1
    return 0


def _decode_error(path):
    """(1-based line, message) of the first line of `path` that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")  # b"\n" is never inside a multi-byte character
            except UnicodeDecodeError as exc:
                return lineno, str(exc)
    return 0, "text is not utf-8"


def _reject_ids(path, ids, bad, reason):
    """Raise EdgeListParseError at the first id flagged in `bad`, if any."""
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise EdgeListParseError(path, _file_line(path, row), f"node id {ids[row, col]} {reason}")


def parse_edge_list(path):
    """The (m, 2) int32 node ids of an edge-list file, and n from its header.

    Text after '#' and blank lines are skipped, the first two whitespace-
    separated columns are node ids in [0, 2**31) and further columns are
    ignored.  n comes from a first line '# hscm v1 n=<n> ...' and is None
    without one.  Bad input raises EdgeListParseError naming the file line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            ids = np.loadtxt(path, dtype=np.int32, comments="#", ndmin=2,
                             usecols=(0, 1), encoding="utf-8")
    except UnicodeDecodeError:
        raise EdgeListParseError(path, *_decode_error(path)) from None
    except ValueError as exc:
        for pattern, base, message in _LOADTXT_ROW:
            match = pattern.match(str(exc))
            if match:
                raise EdgeListParseError(path, _file_line(path, int(match["row"]) - base),
                                         message.format(**match.groupdict())) from None
        raise EdgeListParseError(path, 0, str(exc)) from None
    _reject_ids(path, ids, ids < 0, "outside [0, 2**31)")
    with open(path, "r", encoding="utf-8") as fh:
        header = _HEADER.match(fh.readline().strip())
    return ids, (int(header.group(1)) if header else None)


def read_edge_list(path) -> Graph:
    """Read an edge list written by write_edge_list (header required for n).

    The first line that breaks Graph's form raises EdgeListParseError.
    """
    ids, n = parse_edge_list(path)
    if n is None:
        raise EdgeListParseError(path, 0, f"missing '# {EDGE_FORMAT_TAG}' header")
    graph = Graph(n=n, edges=ids)
    fault = graph.first_fault()
    if fault is not None:
        raise EdgeListParseError(path, _file_line(path, fault[0]), fault[1])
    return graph


def read_degrees(path) -> list:
    """The whitespace-separated numbers of a text file, as expected degrees.

    A token that is not a number, or a line that is not UTF-8, raises
    ParseError naming the file line.
    """
    degrees = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                degrees.extend(float(token) for token in line.decode("utf-8").split())
            except ValueError as exc:  # also UnicodeDecodeError
                raise ParseError(path, lineno, str(exc)) from None
    return degrees


def write_json(path, payload: dict):
    doc = dict(payload)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    with _atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
