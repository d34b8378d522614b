"""The matrix path reads and indexes a sketch file like the entry path.

``corpus.read_records(path, *SKETCHES)`` decodes a ``.stru``/``.sem``
file into its format, its parameter, ids and one matrix, and
``search.load_index`` indexes the file (a ``.stru`` one block of records at
a time). Every file that ``load_embeddings`` rejects, it must reject with
the same ``FormatError``, and every index it builds must answer exactly
like ``build`` over the loaded entries.
"""

import re
import struct

import numpy as np
import pytest

from binsketch.corpus import (
    SEMANTIC,
    SKETCHES,
    STRUCTURAL,
    SemanticEmbedding,
    StructuralEmbedding,
    load_embeddings,
    read_records,
    save_semantic,
    save_structural,
)
from binsketch.errors import FormatError, ValidationError
from binsketch.search import StructuralIndex, SemanticIndex, batch_search, build, load_index
from binsketch.structural import Postings


def read_either(path):
    """Either sketch container whole, its format picked from its magic."""
    return read_records(path, *SKETCHES)


READERS = pytest.mark.parametrize("read", [read_either, load_embeddings])


def _structural(rng, ids, m=1024, density=0.01):
    return [
        (pid, StructuralEmbedding.from_bits((rng.random(m) < density).astype(np.uint8)))
        for pid in ids
    ]


def _semantic(rng, ids, d=8):
    return [(pid, SemanticEmbedding(rng.standard_normal(d).astype(np.float32))) for pid in ids]


@pytest.fixture
def files(rng, tmp_path):
    """A small .stru and .sem file, ids not in sorted order."""
    ids = ["p3", "p10", "p1", "q", "p2"]
    stru, sem = tmp_path / "repo.stru", tmp_path / "repo.sem"
    save_structural(_structural(rng, ids), str(stru))
    save_semantic(_semantic(rng, ids), str(sem))
    return {"stru": stru, "sem": sem}


@READERS
@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_truncation_detected(files, read, kind):
    path = files[kind]
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(FormatError, match="truncated"):
        read(str(path))


@READERS
@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_trailing_bytes_detected(files, read, kind):
    path = files[kind]
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="4 trailing bytes"):
        read(str(path))


@READERS
@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_record_count_beyond_file_size_is_truncation(tmp_path, read, kind):
    magic = b"KHSTRU1" if kind == "stru" else b"KHSEM1"
    path = tmp_path / f"huge.{kind}"
    path.write_bytes(magic + struct.pack("<IQ", 32, 1 << 40) + b"\x00" * 64)
    with pytest.raises(FormatError, match="truncated"):
        read(str(path))


@READERS
def test_set_padding_bits_rejected(tmp_path, read):
    path = tmp_path / "pad.stru"
    save_structural([("p", StructuralEmbedding.from_bits(np.ones(100, dtype=np.uint8)))], str(path))
    raw = bytearray(path.read_bytes())
    raw[-1] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=re.escape(str(path)) + ".*padding bits"):
        read(str(path))


@READERS
def test_non_finite_semantic_row_rejected(files, read):
    path = files["sem"]
    raw = bytearray(path.read_bytes())
    # Last record is "p2": its final float is the file's last 4 bytes.
    raw[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=re.escape(f"{path}: entry 'p2' has non-finite values")):
        read(str(path))


@READERS
@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_non_utf8_id_rejected(files, read, kind):
    path = files[kind]
    raw = path.read_bytes()
    at = raw.index(b"p10")
    path.write_bytes(raw[:at] + b"\xff10" + raw[at + 3:])
    with pytest.raises(FormatError, match="id is not valid UTF-8"):
        read(str(path))


@READERS
def test_bad_magic_rejected(tmp_path, read):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WHATEVER")
    with pytest.raises(FormatError, match="unrecognized magic"):
        read(str(path))


@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_duplicate_ids_rejected_by_build_and_load_index(rng, tmp_path, kind):
    ids = ["b", "a", "b"]
    entries = _structural(rng, ids) if kind == "stru" else _semantic(rng, ids)
    path = tmp_path / f"dup.{kind}"
    (save_structural if kind == "stru" else save_semantic)(entries, str(path))
    with pytest.raises(ValidationError, match="duplicate program_id"):
        build(entries)
    with pytest.raises(ValidationError, match="duplicate program_id"):
        load_index(str(path))


@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_matrix_rows_equal_loaded_entries(files, kind):
    fmt, param, ids, rows = read_either(str(files[kind]))
    loaded_kind, entries = load_embeddings(str(files[kind]))
    assert (fmt, loaded_kind) == ((STRUCTURAL, "structural") if kind == "stru"
                                  else (SEMANTIC, "semantic"))
    assert ids == [pid for pid, _ in entries]
    if kind == "stru":
        assert rows.dtype == np.uint64 and param == 1024
        assert [StructuralEmbedding(row, param) for row in rows] == [e for _, e in entries]
    else:
        assert rows.dtype == np.float32 and param == 8
        assert [SemanticEmbedding(row) for row in rows] == [e for _, e in entries]


@pytest.mark.parametrize("kind", ["stru", "sem"])
@pytest.mark.parametrize("density", [0.01, 0.6])
def test_load_index_answers_like_build(rng, tmp_path, kind, density):
    ids = [f"p{i}" for i in rng.permutation(40)]
    path = tmp_path / f"repo.{kind}"
    if kind == "stru":
        save_structural(_structural(rng, ids, density=density), str(path))
    else:
        save_semantic(_semantic(rng, ids), str(path))
    entries = load_embeddings(str(path))[1]
    via_matrix, via_entries = load_index(str(path)), build(entries)
    assert type(via_matrix) is type(via_entries)
    assert via_matrix.program_ids == via_entries.program_ids == sorted(ids)
    if kind == "stru":
        assert isinstance(via_matrix.rows, Postings) == (density < 0.5)
    queries = [emb for _, emb in entries[:10]]
    assert batch_search(via_matrix, queries, 7) == batch_search(via_entries, queries, 7)


def test_empty_files_give_empty_indexes(tmp_path):
    stru, sem = tmp_path / "e.stru", tmp_path / "e.sem"
    save_structural([], str(stru), m=65536)
    save_semantic([], str(sem), d=4)
    assert read_either(str(stru))[3].shape == (0, 1024)
    assert isinstance(load_index(str(stru)), StructuralIndex)
    assert len(load_index(str(stru))) == 0
    index = load_index(str(sem))
    assert isinstance(index, SemanticIndex) and index.d == 4 and len(index) == 0


@pytest.mark.parametrize("density", [0.01, 0.6])
def test_dense_and_sparse_indexes_are_worker_invariant(rng, density):
    entries = _structural(rng, [f"p{i:02d}" for i in range(30)], density=density)
    index = build(entries)
    queries = [emb for _, emb in entries[:8]]
    one = batch_search(index, queries, 5, workers=1)
    assert batch_search(index, queries, 5, workers=2) == one
    assert batch_search(index, queries, 5, workers=3) == one
