"""The sketch containers across record-block boundaries.

``corpus._BLOCK_BYTES`` is patched down so that a file of ten records is
read in blocks of one or three records, and ``hash --mode stru`` folds and
writes its sketches in blocks of the same size. Every fault must raise the
message a one-block read gives, every index and output must be the same,
and a reader that stops early must leave no file open.
"""

import gc
import re
import struct
import warnings

import numpy as np
import pytest

from binsketch import corpus
from binsketch.cli import main
from binsketch.corpus import (
    STRUCTURAL,
    RecordBlocks,
    SemanticEmbedding,
    StructuralEmbedding,
    load_embeddings,
    read_ids,
    read_sketches,
    save_semantic,
    save_structural,
    write_records,
)
from binsketch.errors import FormatError, ValidationError
from binsketch.kmeans import MODEL_FORMAT
from binsketch.search import batch_search, build, load_index
from binsketch.structural import Postings

M, D = 100, 3  # m = 100 leaves four padding bits in the last payload byte
SIZES = {"stru": (M + 7) // 8, "sem": 4 * D}
WORDS = (M + 63) // 64
HEADER = {"stru": 7 + 12, "sem": 6 + 12}
IDS = [f"p{i:02d}" for i in range(10)]
LATER = 7  # the faulty record: second in the third block of three
READERS = [read_sketches, load_embeddings, read_ids, load_index]


def _record_start(kind, index):
    return HEADER[kind] + index * (4 + 3 + SIZES[kind])


def _one_bit_rows(rng, n, m=M):
    """Sparse rows: one set bit each."""
    return [StructuralEmbedding.from_bits(np.eye(1, m, int(rng.integers(m)), dtype=np.uint8)[0])
            for _ in range(n)]


@pytest.fixture
def block_records(monkeypatch):
    """Make every block hold ``n`` records of ``payload`` bytes."""

    def set_blocks(n, payload):
        monkeypatch.setattr(corpus, "_BLOCK_BYTES", n * (4 + payload))

    return set_blocks


@pytest.fixture
def files(rng, tmp_path):
    stru, sem = tmp_path / "repo.stru", tmp_path / "repo.sem"
    save_structural(list(zip(IDS, _one_bit_rows(rng, len(IDS)))), str(stru))
    values = rng.standard_normal((len(IDS), D)).astype(np.float32)
    save_semantic([(pid, SemanticEmbedding(v)) for pid, v in zip(IDS, values)], str(sem))
    return {"stru": stru, "sem": sem}


def _bad_id(kind, raw):
    at = _record_start(kind, LATER) + 4
    return raw[:at] + b"\xff" + raw[at + 1:]


def _long_id(kind, raw):
    at = _record_start(kind, LATER)
    return raw[:at] + struct.pack("<I", 1000) + raw[at + 4:]


def _padding(kind, raw):
    at = _record_start(kind, LATER + 1) - 1
    return raw[:at] + bytes([raw[at] | 0xF0]) + raw[at + 1:]


def _nan(kind, raw):
    at = _record_start(kind, LATER) + 4 + 3
    return raw[:at] + struct.pack("<f", float("nan")) + raw[at + 4:]


def _huge_count(kind, raw):
    at = HEADER[kind] - 8
    return raw[:at] + struct.pack("<Q", 1 << 40) + raw[at + 8:]


FAULTS = [
    ("stru", _bad_id, "id is not valid UTF-8"),
    ("sem", _bad_id, "id is not valid UTF-8"),
    ("stru", _long_id, "truncated file"),
    ("sem", _long_id, "truncated file"),
    ("stru", lambda kind, raw: raw[:-1], "truncated file"),
    ("sem", lambda kind, raw: raw[:-1], "truncated file"),
    ("stru", lambda kind, raw: raw + b"junk", "4 trailing bytes"),
    ("sem", lambda kind, raw: raw + b"junk", "4 trailing bytes"),
    ("stru", _huge_count, "truncated file"),
    ("stru", _padding, "padding bits past m must be zero"),
    ("sem", _nan, f"entry 'p{LATER:02d}' has non-finite values"),
]


@pytest.mark.parametrize("read", READERS)
@pytest.mark.parametrize("kind, fault, message", FAULTS)
@pytest.mark.parametrize("per_block", [1, 3])
def test_fault_in_a_later_block_gives_the_one_block_message(
    files, block_records, read, kind, fault, message, per_block
):
    path = files[kind]
    path.write_bytes(fault(kind, path.read_bytes()))
    with pytest.raises(FormatError) as whole:
        read(str(path))
    assert str(whole.value) == f"{path}: {message}"
    block_records(per_block, SIZES[kind])
    with pytest.raises(FormatError, match=re.escape(str(whole.value)) + "$"):
        read(str(path))


@pytest.mark.parametrize("per_block", [1, 3])
@pytest.mark.parametrize("density", [0.002, 0.6])
@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_load_index_answers_like_build(rng, tmp_path, block_records, per_block, density, kind):
    ids = [f"p{i}" for i in rng.permutation(20)]  # not in sorted order
    path = tmp_path / f"repo.{kind}"
    if kind == "stru":
        rows = [StructuralEmbedding.from_bits((rng.random(1024) < density).astype(np.uint8))
                for _ in ids]
        save_structural(list(zip(ids, rows)), str(path))
    else:
        values = rng.standard_normal((len(ids), D)).astype(np.float32)
        save_semantic([(pid, SemanticEmbedding(v)) for pid, v in zip(ids, values)], str(path))
    entries = load_embeddings(str(path))[1]
    block_records(per_block, 128 if kind == "stru" else SIZES["sem"])
    index, built = load_index(str(path)), build(entries)
    assert index.program_ids == built.program_ids == sorted(ids)
    if kind == "stru":
        assert isinstance(index.rows, Postings) == isinstance(built.rows, Postings) == (
            density < 0.5
        )
        assert np.array_equal(index.pops, built.pops)
    queries = [emb for _, emb in entries]
    assert batch_search(index, queries, 5) == batch_search(built, queries, 5)


@pytest.mark.parametrize("per_block", [1, 3])
def test_read_ids_and_matrix_match_at_every_block_size(files, block_records, per_block):
    whole = {kind: read_sketches(str(path)) for kind, path in files.items()}
    for kind, path in files.items():
        block_records(per_block, SIZES[kind])
        name, ids, rows, param = read_sketches(str(path))
        assert (name, ids, param) == (whole[kind][0], whole[kind][1], whole[kind][3])
        assert rows.dtype == whole[kind][2].dtype
        assert np.array_equal(rows, whole[kind][2])
        assert read_ids(str(path)) == IDS


def _hash_stru(tmp_path, name):
    out = tmp_path / name
    assert main(["hash", "--corpus", str(tmp_path / "repo.tsv"), "--mode", "stru",
                 "--model", str(tmp_path / "model.km"), "--m", "1024",
                 "--out", str(out)]) == 0
    return out.read_bytes()


def test_hash_stru_bytes_are_the_same_at_every_block_size(tmp_path, block_records, capsys):
    assert main(["synth", "--classes", "4", "--programs-per-class", "3",
                 "--functions-per-program", "6", "--d", "6", "--seed", "2",
                 "--out-repo", str(tmp_path / "repo.tsv"),
                 "--out-query", str(tmp_path / "query.tsv")]) == 0
    assert main(["kmeans-train", "--corpus", str(tmp_path / "repo.tsv"), "--n-clusters", "24",
                 "--iterations", "5", "--out", str(tmp_path / "model.km")]) == 0
    whole = _hash_stru(tmp_path, "whole.stru")
    assert len(read_ids(str(tmp_path / "whole.stru"))) == 12
    for per_block in (1, 3):
        block_records(per_block, 1024 // 8)
        assert corpus.block_rows(1024 // 8) == per_block
        assert _hash_stru(tmp_path, f"blocks{per_block}.stru") == whole
    capsys.readouterr()


@pytest.fixture
def no_open_files():
    """Fail if anything the block runs leaves a file for the collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def test_the_leak_check_sees_a_leaked_file(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"x")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        open(path, "rb")
        gc.collect()
    assert any(issubclass(w.category, ResourceWarning) for w in caught)


def test_dense_switch_leaves_no_file_open(rng, tmp_path, block_records, no_open_files):
    path = tmp_path / "dense.stru"
    rows = [StructuralEmbedding.from_bits((rng.random(1024) < 0.6).astype(np.uint8))
            for _ in range(10)]
    save_structural(list(zip(IDS, rows)), str(path))
    block_records(1, 128)
    assert isinstance(load_index(str(path)).rows, np.ndarray)


@pytest.mark.parametrize("read", READERS)
def test_reader_stopped_by_an_error_leaves_no_file_open(files, block_records, read, no_open_files):
    path = files["stru"]
    path.write_bytes(_padding("stru", path.read_bytes()))
    block_records(1, SIZES["stru"])
    with pytest.raises(FormatError, match="padding bits"):
        read(str(path))


def test_abandoned_iteration_leaves_no_file_open(files, block_records, no_open_files):
    block_records(1, SIZES["stru"])
    for ids, _ in RecordBlocks(str(files["stru"]), STRUCTURAL):
        assert ids == IDS[:1]
        break
    with RecordBlocks(str(files["stru"]), STRUCTURAL) as records:
        assert next(iter(records))[0] == IDS[:1]


def test_header_fault_leaves_no_file_open(files, no_open_files):
    path = files["sem"]
    path.write_bytes(_huge_count("sem", path.read_bytes()))
    with pytest.raises(FormatError, match="truncated"):
        RecordBlocks(str(path), corpus.SEMANTIC)


def _blocks_then_fail():
    yield np.zeros((1, WORDS), dtype=np.uint64)
    raise ValidationError("block two failed")


@pytest.mark.parametrize(
    "blocks, message",
    [
        (_blocks_then_fail, "block two failed"),
        (lambda: [np.zeros((1, WORDS), dtype=np.uint64)], "1 payloads for 2 ids"),
        (lambda: [np.zeros((3, WORDS), dtype=np.uint64)], "does not fit 2 records"),
        (lambda: [np.zeros((2, WORDS + 1), dtype=np.uint64)], "does not fit 2 records"),
    ],
    ids=["block-fails", "too-few", "too-many", "wrong-width"],
)
def test_writer_leaves_no_file_when_a_block_fails(tmp_path, blocks, message):
    path = tmp_path / "x.stru"
    path.write_bytes(b"an older file")
    with pytest.raises(ValidationError, match=message):
        write_records(str(path), STRUCTURAL, M, ["a", "b"], blocks())
    assert not path.exists()


@pytest.mark.parametrize(
    "fmt, param", [(STRUCTURAL, M), (corpus.SEMANTIC, D), (MODEL_FORMAT, D)],
    ids=["KHSTRU1", "KHSEM1", "KHKM1"],
)
@pytest.mark.parametrize("shape", [lambda w: (2, w - 1), lambda w: (2, w + 1), lambda w: (2 * w,)],
                         ids=["narrow", "wide", "flat"])
def test_writer_refuses_rows_of_another_width(tmp_path, fmt, param, shape):
    # A structural row one word too wide would still encode to (m + 7) // 8
    # bytes if the writer only cut each row to its payload size.
    path = tmp_path / "x.bin"
    path.write_bytes(b"an older file")
    rows = np.zeros(shape(fmt.width(param)), dtype=fmt.dtype)
    with pytest.raises(ValidationError, match="does not fit 2 records"):
        write_records(str(path), fmt, param, ["a", "b"], [rows])
    assert not path.exists()


@pytest.mark.parametrize("bit", [7, 10, 63], ids=["last-byte", "past-last-byte", "last-bit"])
def test_writer_refuses_set_bits_past_m(tmp_path, bit):
    # m = 70 keeps 9 payload bytes: bit 64 + 7 sits in the last byte's
    # padding, and bits 64 + 10 and 64 + 63 lie past the payload.
    path = tmp_path / "x.stru"
    path.write_bytes(b"an older file")
    rows = np.array([[0, 0], [0, 1 << bit]], dtype=np.uint64)
    with pytest.raises(ValidationError, match="padding bits past bit-vector length 70"):
        write_records(str(path), STRUCTURAL, 70, ["a", "b"], [rows])
    assert not path.exists()
    write_records(str(path), STRUCTURAL, 70, ["a", "b"], [rows & np.uint64((1 << 6) - 1)])
    assert read_sketches(str(path))[1] == ["a", "b"]


def test_writer_removes_the_file_at_a_later_bad_id(tmp_path):
    path = tmp_path / "x.stru"
    path.write_bytes(b"an older file")
    with pytest.raises(ValidationError, match="lone surrogate"):
        write_records(str(path), STRUCTURAL, M, ["a", "b\ud800"],
                      [np.zeros((2, WORDS), dtype=np.uint64)])
    assert not path.exists()


# Cut inside the faulty record's length prefix, its id and its payload.
CUTS = [2, 4 + 1, 4 + 3 + 1]


@pytest.mark.parametrize("cut", CUTS, ids=["prefix", "id", "payload"])
@pytest.mark.parametrize("kind", ["stru", "sem"])
@pytest.mark.parametrize("per_block", [1, 3])
def test_file_cut_short_while_read_is_truncated(
    files, block_records, monkeypatch, no_open_files, kind, cut, per_block
):
    # The header checks pass on the whole file; it then shrinks. A read
    # buffer smaller than one record makes each record come from the file.
    path = files[kind]
    block_records(per_block, SIZES[kind])
    monkeypatch.setattr(corpus, "_BUFFER_BYTES", 8)
    records = RecordBlocks(str(path), corpus.SEMANTIC if kind == "sem" else STRUCTURAL)
    with open(path, "r+b") as fh:
        fh.truncate(_record_start(kind, LATER) + cut)
    with pytest.raises(FormatError, match=re.escape(f"{path}: truncated file") + "$"):
        for _ in records:
            pass
