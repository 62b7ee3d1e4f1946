"""Edge-list codec: golden writer bytes, one parser for both readers, canonical keys."""

import hashlib

import numpy as np
import pytest

from oracles import naive_replica
from hscm import io as hio
from hscm.cli import main
from hscm.errors import EdgeListParseError
from hscm.io import parse_edge_list, read_edge_list, write_edge_list
from hscm.params import derive_params
from hscm.sampler import Graph, edge_keys, edges_from_keys
from hscm.stats import ingest_edge_list

# SHA-256 of write_edge_list on a fixed 150k-edge graph (more than one
# write chunk), captured before the chunked writer replaced
# np.savetxt(fmt="%d %d"); the writer's bytes must never change.
WRITER_GOLDEN = "a5e5a2e6e7f7c74b18e3c9df4101846cd3544ac3319fa2ada85e89c190cb8c02"


def test_writer_output_is_golden(tmp_path):
    n = 2**31 - 1
    k = np.arange(150_000, dtype=np.int64)
    keys = np.unique(edge_keys(n, k * 48271 % n, (k * k + 12345) % n))
    g = Graph(n=n, edges=edges_from_keys(n, keys[keys // n != keys % n]))
    path = tmp_path / "g.edges"
    write_edge_list(str(path), g, seed=5)
    assert g.num_edges == 150_000
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITER_GOLDEN


# SHA-256 of `hscm generate` output: these pin the samplers' edges as well as
# the writer.  The three fast digests at n = 200, 300 and 30000 were
# re-captured when the skip engine began to cut rows that expect more than
# 64 proposals (256 before) into segments: their top rows expect 134, 111
# and 758, while no row of the growing case expects more than 3.
GOLDEN = [
    ("fast", 2.0, 10.0, 200, 7, 0,
     "1817ac89573932d80d72d9cb86b1ee8650aa6585c0971e6ee6a3d87f7b12a684"),
    ("fast", 1.1, 4.92, 300, 11, 0,
     "1ff911935dfed06d54358bc651b4491f71e6e020e804ee5367a77f16eaaca909"),
    ("growing", 2.0, 5.0, 120, 5, 0,
     "d17abd2e2f157d4c22113dd39af5a3ab88f3d967879d7bd94482574a48b2a789"),
    # n = 1: the header line alone
    ("fast", 2.0, 10.0, 1, 1, 0,
     "6b6b5d63a98904712b5221fdc8f0a9056d2c54265cc3df64d1d2f33bf8a52b2e"),
    # ~150k edges, and rows cut into segments
    ("fast", 2.0, 10.0, 30000, 3, 1,
     "cc9c0906748342e546e6cf6aa5fd0cc3dbb6c38fec5464a56bb6c0f778b982f1"),
]


@pytest.mark.parametrize("sampler,gamma,nu,n,seed,replica,digest", GOLDEN)
def test_generate_output_is_golden(tmp_path, sampler, gamma, nu, n, seed, replica, digest):
    assert main(["generate", "--gamma", str(gamma), "--nu", str(nu), "--n", str(n),
                 "--replicas", str(replica + 1), "--seed", str(seed),
                 "--sampler", sampler, "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"graph_{replica:03d}.edges").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_naive_oracle_output_is_golden(tmp_path):
    # the digest `hscm generate --sampler naive` wrote for this replica while
    # the quadratic sampler was a library sampler; the oracle keeps its edges
    path = tmp_path / "graph_000.edges"
    write_edge_list(str(path), naive_replica(derive_params(2.5, 3.0, 150), 3, 0), seed=3)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1eca76657b9200b4bed2023b1400998da499c57a767fd7b23c7c571e45109e8e")


# ids of 1 to 10 digits, both odd and even widths
@pytest.mark.parametrize("n", [2, 10, 11, 100, 101, 12345, 10**6, 2**31 - 1])
def test_chunked_writer_matches_savetxt(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(5)
    # every pair of the digit-boundary ids below n, besides random pairs
    boundary = np.array([i for i in (0, 9, 10, 99, 100, n - 1) if i < n])
    a = np.concatenate((rng.integers(0, n, 999), np.repeat(boundary, boundary.size)))
    b = np.concatenate((rng.integers(0, n, 999), np.tile(boundary, boundary.size)))
    keys = np.unique(edge_keys(n, a, b))
    g = Graph(n=n, edges=edges_from_keys(n, keys[keys // n != keys % n]))
    assert g.num_edges % 7  # the last chunk is partial
    monkeypatch.setattr(hio, "_WRITE_CHUNK", 7)
    path = tmp_path / "g.edges"
    write_edge_list(str(path), g, seed=3)
    with open(tmp_path / "ref.edges", "w") as fh:
        fh.write(f"# hscm v1 n={n} seed=3\n")
        np.savetxt(fh, g.edges, fmt="%d %d")
    assert path.read_bytes() == (tmp_path / "ref.edges").read_bytes()


def test_edgeless_round_trip(tmp_path):
    path = tmp_path / "empty.edges"
    write_edge_list(str(path), Graph(n=5, edges=np.empty((0, 2))), seed=9)
    assert path.read_bytes() == b"# hscm v1 n=5 seed=9\n"
    g = read_edge_list(str(path))
    assert g.n == 5 and g.num_edges == 0
    assert g.edges.shape == (0, 2)


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "g.edges"
    g = Graph(n=3, edges=np.array([[0, 1], [1, 2]]))
    monkeypatch.setattr(hio, "_WRITE_CHUNK", 0)  # range() step 0 raises mid-write
    with pytest.raises(ValueError):
        write_edge_list(str(path), g, seed=1)
    assert list(tmp_path.iterdir()) == []


def test_edge_keys_sort_like_lexsort():
    rng = np.random.default_rng(1)
    n = 50
    a, b = rng.integers(0, n, 400), rng.integers(0, n, 400)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    edges = edges_from_keys(n, np.sort(edge_keys(n, a, b)))
    assert np.array_equal(edges, np.column_stack((lo[order], hi[order])))
    assert edges.dtype == np.int32


# comment and blank lines precede the bad line, so the data-row index and
# the file line differ
PREAMBLE = "# a comment\n\n0 1\n   \n# another\n"
BAD_LINES = [
    ("0 nope\n", "bad node id 'nope'"),
    ("3\n", "expected two node ids"),
    ("2 -4\n", "node id -4 outside"),
    ("1 3000000000\n", "node id 3000000000 outside"),
    ("1 99999999999999999999\n", "bad node id '99999999999999999999'"),
]


@pytest.mark.parametrize("bad,message", BAD_LINES)
def test_ingest_error_names_physical_line(tmp_path, bad, message):
    path = tmp_path / "bad.txt"
    path.write_text(PREAMBLE + bad + "1 2\n")
    with pytest.raises(EdgeListParseError) as err:
        ingest_edge_list(str(path))
    assert err.value.line_number == 6
    assert f"{path}:6: {message}" in str(err.value)


@pytest.mark.parametrize("bad,message", BAD_LINES)
def test_read_error_names_physical_line(tmp_path, bad, message):
    path = tmp_path / "bad.edges"
    path.write_text("# hscm v1 n=5 seed=1\n" + PREAMBLE + bad)
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(str(path))
    assert err.value.line_number == 7
    assert message in str(err.value)


def test_bad_line_found_without_loadtxt_wording(tmp_path, monkeypatch):
    # the line at fault comes from walking the file, not from np.loadtxt's
    # message, whose wording and row numbers are numpy's own
    def unrecognised(*args, **kwargs):
        raise ValueError("unrecognised")

    path = tmp_path / "bad.txt"
    path.write_text(PREAMBLE + "0 nope\n1 2\n")
    monkeypatch.setattr(hio.np, "loadtxt", unrecognised)
    with pytest.raises(EdgeListParseError) as err:
        ingest_edge_list(str(path))
    assert f"{path}:6: bad node id 'nope'" in str(err.value)


def test_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1\n\n1 \xff\n")
    with pytest.raises(EdgeListParseError, match="utf-8"):
        ingest_edge_list(str(path))


@pytest.mark.parametrize("reader", [ingest_edge_list, read_edge_list])
def test_non_utf8_names_its_line(tmp_path, reader):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"0 1\n1 \xff\n")
    with pytest.raises(EdgeListParseError, match="utf-8") as err:
        reader(str(path))
    assert err.value.line_number == 2


ORDER_FAULTS = [
    ("3 1\n", "edge 3 1 is not ordered i < j"),  # reversed pair
    ("0 1\n", "edge 0 1 repeats or precedes"),  # unsorted
    ("0 2\n", "edge 0 2 repeats or precedes"),  # duplicate line
]


@pytest.mark.parametrize("bad,message", ORDER_FAULTS, ids=["reversed", "unsorted", "duplicate"])
def test_order_fault_names_its_line(tmp_path, bad, message):
    path = tmp_path / "g.edges"
    path.write_text("# hscm v1 n=5 seed=1\n0 2\n\n# c\n" + bad + "3 4\n")
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(str(path))
    assert err.value.line_number == 5
    assert f"{path}:5: {message}" in str(err.value)


def test_out_of_range_id_in_edges_file(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# hscm v1 n=3 seed=1\n0 1\n# c\n1 3\n")
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(str(path))
    assert err.value.line_number == 4
    assert "out of range for n=3" in str(err.value)


def test_cli_bad_edge_files_exit_4(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "graph_000.edges").write_text("# hscm v1 n=3 seed=1\n0 1\n1 3\n")
    assert main(["degrees", "--gamma", "2", "--nu", "10", "--n", "3", "--seed", "1",
                 "--in", str(runs), "--out", str(tmp_path / "d")]) == 4
    assert "graph_000.edges:3:" in capsys.readouterr().err
    big = tmp_path / "big.txt"
    big.write_text("0 1\n1 3000000000\n")
    assert main(["ingest", "--path", str(big), "--out", str(tmp_path / "i")]) == 4
    assert f"{big}:2:" in capsys.readouterr().err


def test_crlf_and_extra_columns_accepted(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"# hscm v1 n=4 seed=2\r\n0 1 0.5 x\r\n\r\n1 3\t7\r\n2 3 # note\r\n")
    g = read_edge_list(str(path))
    assert g.n == 4
    assert g.edges.tolist() == [[0, 1], [1, 3], [2, 3]]
    h = ingest_edge_list(str(path))
    assert h.n == 4 and list(h.counts) == [0, 2, 2]


def test_parse_returns_ids_and_header_n(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# hscm v1 n=9 seed=4\n3 1\n")
    ids, n = parse_edge_list(str(path))
    assert n == 9 and ids.dtype == np.int32 and ids.tolist() == [[3, 1]]
    path.write_text("# another header\n3 1\n")
    assert parse_edge_list(str(path))[1] is None


def test_ingest_counts_reversed_duplicates(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("0 1\n1 0\n2 1\n1 2\n1 2\n2 2\n")
    h = ingest_edge_list(str(path))
    assert list(h.counts) == [0, 2, 1]
    assert h.duplicates_dropped == 3
    assert h.self_loops_dropped == 1


def test_ingest_takes_n_and_indexing_from_the_header(tmp_path):
    # node 0 is isolated here, so without the header the ids would look
    # 1-indexed and one isolated node would be lost
    assert main(["generate", "--gamma", "1.1", "--nu", "4.92", "--n", "1000", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "graph_000.edges"
    graph = read_edge_list(str(path))
    degrees = graph.degrees()
    assert degrees[0] == 0
    h = ingest_edge_list(str(path))
    assert h.n == 1000
    assert np.array_equal(h.counts, np.bincount(degrees))


def test_ingest_rejects_ids_beyond_header_n(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# hscm v1 n=3 seed=1\n0 1\n# c\n1 3\n")
    with pytest.raises(EdgeListParseError) as err:
        ingest_edge_list(str(path))
    assert err.value.line_number == 4
    assert f"{path}:4: node id 3 out of range for n=3" in str(err.value)
    path.write_text("# hscm v1 n=3 seed=1\n")
    assert list(ingest_edge_list(str(path)).counts) == [3]
