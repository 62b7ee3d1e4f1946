"""Edge-list and metadata serialization; all writes are atomic (temp + rename)."""

from __future__ import annotations

import csv
import json
import os
import re
import tempfile
import warnings
from contextlib import contextmanager
from itertools import islice

import numpy as np

from .errors import ParseError
from .sampler import Graph, edge_keys

SCHEMA_VERSION = 1
EDGE_FORMAT_TAG = "hscm v1"
_HEADER = re.compile(rb"#\s*" + re.escape(EDGE_FORMAT_TAG.encode()) + rb"\b.*?\bn=(\d+)")
_WRITE_CHUNK = 1 << 16  # edges formatted per write
# "00".."99" as 100 uint16 cells, and the separator cells " \0" and "\n\0".
# The writer fills a native uint16 array from these and writes its native
# uint8 view, so each cell's two bytes come out in the order they went in,
# whatever the machine's byte order.
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_SEPARATORS = np.frombuffer(b" \0\n\0", np.uint16)


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


def _data_lines(path):
    """(1-based line, tokens before '#') of each line of `path` that holds a token.

    Lines end where np.loadtxt ends them, at '\n', '\r\n' or '\r'; the first
    line that is not UTF-8 raises ParseError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():  # decode the bytes that surrogateescape kept
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(path, lineno, str(exc)) from None
            tokens = line.split("#", 1)[0].split()
            if tokens:
                yield lineno, tokens


def _check_ids(path, n):
    """Raise ParseError at the first line whose first two tokens are not
    node ids in [0, 2**31), or in [0, n) when n is not None.  An id is an
    optional sign and 1 to 18 ASCII digits; a longer integer is bad, not large."""
    for lineno, tokens in _data_lines(path):
        if len(tokens) < 2:
            raise ParseError(path, lineno, "expected two node ids")
        for token in tokens[:2]:
            digits = token[1:] if token[0] in "+-" else token
            if not (digits.isdigit() and digits.isascii() and len(digits) <= 18):
                raise ParseError(path, lineno, f"bad node id '{token}'")
            value = int(token)
            if not 0 <= value < 2**31:
                raise ParseError(path, lineno, f"node id {value} outside [0, 2**31)")
            if n is not None and value >= n:
                raise ParseError(path, lineno, f"node id {value} out of range for n={n}")


def parse_edge_list(path):
    """The (m, 2) int32 node ids of an edge-list file, and n from its header.

    Text after '#' and blank lines are skipped, and of the whitespace-
    separated columns the first two are node ids in [0, 2**31), or in [0, n)
    for n from a first line '# hscm v1 n=<n> ...' (None without one).  Bad
    input raises ParseError naming the first file line at fault.
    """
    with open(path, "rb") as fh:
        header = _HEADER.match(fh.readline().strip())
    n = int(header.group(1)) if header else None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            ids = np.loadtxt(path, dtype=np.int32, comments="#", ndmin=2,
                             usecols=(0, 1), encoding="utf-8")
        if ids.size and (ids.min() < 0 or (n is not None and ids.max() >= n)):
            raise ValueError(f"a node id is out of range for n={n}")
    except ValueError as exc:  # UnicodeDecodeError too
        _check_ids(path, n)
        raise ParseError(path, 0, str(exc)) from None
    return ids, n


def read_edge_list(path) -> Graph:
    """Read an edge list written by write_edge_list (header required for n).

    parse_edge_list checks the ids against n; the first edge that breaks the
    rest of Graph's form, by i >= j or by a key not above the one before,
    raises ParseError naming its line (i >= j when a row breaks both).
    """
    ids, n = parse_edge_list(path)
    if n is None:
        raise ParseError(path, 0, f"missing '# {EDGE_FORMAT_TAG}' header")
    keys = edge_keys(n, ids[:, 0], ids[:, 1])
    step = keys[1:] <= keys[:-1]
    del keys  # so the keys and the order mask are never alive together
    faults = [(int(np.argmax(bad)) + shift, reason) for bad, shift, reason in (
        (ids[:, 0] >= ids[:, 1], 0, "is not ordered i < j"),
        (step, 1, "repeats or precedes the edge before it")) if bad.any()]
    if faults:
        row, reason = min(faults)
        lineno, _ = next(islice(_data_lines(path), row, None))
        raise ParseError(path, lineno, f"edge {ids[row, 0]} {ids[row, 1]} {reason}")
    return Graph(n=n, edges=ids)


def read_degrees(path) -> list:
    """The numbers of a text file, as expected degrees, read in the edge-list
    line grammar.  A token that is not a number, or a line that is not UTF-8,
    raises ParseError naming the file line."""
    degrees = []
    for lineno, tokens in _data_lines(path):
        try:
            degrees.extend(map(float, tokens))
        except ValueError as exc:
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
