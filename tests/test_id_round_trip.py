"""Writers never produce a file their own reader rejects.

For arbitrary text ids, every writer either raises ValidationError and
leaves no file behind, or writes a file from which its reader returns
exactly what was written. No file can hold a lone surrogate, which has no
UTF-8 form; the tab-separated files also cannot hold a tab or newline
inside an id, while the binary containers store ids length-prefixed.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch.corpus import (
    FunctionRecord,
    ProgramRecord,
    SemanticEmbedding,
    StructuralEmbedding,
    load_corpus,
    load_semantic,
    load_structural,
    save_corpus,
    save_semantic,
    save_structural,
    write_lines,
)
from binsketch.errors import ValidationError
from binsketch.metrics import load_class_map, save_class_map
from binsketch.search import Ranking, SearchResult, load_results, save_results, write_hits

# Arbitrary text, with the two TSV separators and lone surrogates drawn
# often enough to matter.
IDS = st.text(st.one_of(st.sampled_from("\t\n\ud800\udfff"), st.characters()), max_size=6)


def _unencodable(*ids):
    return any(0xD800 <= ord(c) <= 0xDFFF for i in ids for c in i)


def _splits(*ids):
    return _unencodable(*ids) or any("\t" in i or "\n" in i for i in ids)


def _writes_or_rejects(path, save, load, expected, bad):
    try:
        save(path)
    except ValidationError:
        assert bad
        assert not os.path.exists(path)
    else:
        assert not bad
        assert load(path) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_writers_reject_or_round_trip(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("ids")
    ids = data.draw(st.lists(IDS, min_size=1, max_size=4))

    programs = []
    for pid in dict.fromkeys(ids):
        fids = data.draw(st.lists(IDS, min_size=1, max_size=2))
        functions = [FunctionRecord(fid, np.array([0.5, -1.0]), loc=3, nos=1) for fid in fids]
        programs.append(ProgramRecord(pid, functions, class_id=data.draw(st.none() | IDS)))
    names = [n for p in programs for n in (p.program_id, p.class_id or "")]
    names += [fn.function_id for p in programs for fn in p.functions]
    _writes_or_rejects(
        str(tmp / "corpus.tsv"),
        lambda path: save_corpus(programs, path),
        load_corpus,
        programs,
        _splits(*names),
    )

    m = data.draw(st.integers(1, 70))
    stru = [(pid, StructuralEmbedding.from_bits(np.arange(m) % 3 == 0)) for pid in ids]
    _writes_or_rejects(
        str(tmp / "x.stru"),
        lambda path: save_structural(stru, path, m=m),
        load_structural,
        stru,
        _unencodable(*ids),
    )

    sem = [(pid, SemanticEmbedding(np.array([1.5, -2.0], dtype=np.float32))) for pid in ids]
    _writes_or_rejects(
        str(tmp / "x.sem"),
        lambda path: save_semantic(sem, path, d=2),
        load_semantic,
        sem,
        _unencodable(*ids),
    )

    scores = np.array([1.0, 0.5, 1 / 3, 0.0])
    results = [
        (qid, SearchResult(ids, np.arange(i % 3), scores[: i % 3])) for i, qid in enumerate(ids)
    ]
    expected = [
        (qid, [(h.program_id, float(f"{h.score:.6f}")) for h in res.hits])
        for qid, res in results
        if res.hits
    ]
    _writes_or_rejects(
        str(tmp / "hits.tsv"),
        lambda path: save_results(results, path),
        load_results,
        expected,
        _splits(*ids) or len(set(ids)) < len(ids),
    )

    mapping = dict(zip(ids, data.draw(st.lists(IDS, min_size=len(ids), max_size=len(ids)))))
    _writes_or_rejects(
        str(tmp / "classes.tsv"),
        lambda path: save_class_map(mapping, path),
        load_class_map,
        mapping,
        _splits(*mapping, *mapping.values()),
    )


@pytest.mark.parametrize(
    "save",
    [
        lambda path: save_corpus(
            [ProgramRecord("a\tb", [FunctionRecord("f", np.ones(2), loc=1, nos=0)])], path
        ),
        lambda path: save_class_map({"a\nb": "c"}, path),
        lambda path: save_results(
            [("q", SearchResult(["p\tq"], np.array([0]), np.ones(1)))], path
        ),
    ],
    ids=["corpus", "class_map", "results"],
)
def test_separator_in_id_rejected(tmp_path, save):
    with pytest.raises(ValidationError, match="tab or newline"):
        save(str(tmp_path / "out.tsv"))


@pytest.mark.parametrize(
    "save",
    [
        lambda path: save_corpus(
            [ProgramRecord("a\ud800", [FunctionRecord("f", np.ones(2), loc=1, nos=0)])], path
        ),
        lambda path: save_class_map({"a": "c\ud800"}, path),
        lambda path: save_results(
            [("q", SearchResult(["a\ud800"], np.array([0]), np.ones(1)))], path
        ),
        lambda path: save_structural(
            [("a\ud800", StructuralEmbedding.from_bits([1, 0]))], path
        ),
    ],
    ids=["corpus", "class_map", "results", "structural"],
)
def test_lone_surrogate_in_id_rejected_before_writing(tmp_path, save):
    path = tmp_path / "out"
    with pytest.raises(ValidationError, match="lone surrogate"):
        save(str(path))
    assert not path.exists()


def _programs(*ids):
    return [ProgramRecord(pid, [FunctionRecord("f", np.ones(2), loc=1, nos=0)]) for pid in ids]


def _result(*ids):
    return SearchResult(list(ids), np.arange(len(ids)), np.ones(len(ids)))


@pytest.mark.parametrize(
    "save, message",
    [
        (lambda path: save_corpus(_programs("a", "b", "a"), path), "duplicate program_id"),
        (lambda path: save_corpus(_programs("a", "b\tc"), path), "tab or newline"),
        (lambda path: save_results([("q", _result("a")), ("r", _result("b\nc"))], path),
         "tab or newline"),
        (lambda path: save_results([("q", _result("a")), ("q", _result("b"))], path),
         "duplicate query id"),
        (lambda path: write_hits(path, ["q", "r\ud800"], Ranking(["a"], np.zeros((2, 1), np.intp),
                                                                  np.ones((2, 1)))),
         "lone surrogate"),
        (lambda path: write_hits(path, ["q", "r"], Ranking(["a", "b\tc"], np.array([[0], [1]]),
                                                            np.ones((2, 1)))),
         "tab or newline"),
        (lambda path: save_semantic(
            [("a", SemanticEmbedding([1.0])), ("b\ud800", SemanticEmbedding([2.0]))], path),
         "lone surrogate"),
    ],
    ids=["corpus-duplicate", "corpus-tab", "results-id", "results-query", "hits-query",
         "hits-id", "semantic-id"],
)
def test_writer_failing_part_way_removes_the_file(tmp_path, save, message):
    # The writers stream: a bad id after the first line or record fails the
    # write part-way, and the file at the path is removed, even an older one.
    path = tmp_path / "out"
    path.write_bytes(b"an older file")
    with pytest.raises(ValidationError, match=message):
        save(str(path))
    assert not path.exists()


def test_lines_are_written_as_they_come(tmp_path):
    path = tmp_path / "out.txt"

    def lines():
        yield "first"
        assert path.read_bytes() == b""  # still in the write buffer
        yield "second"

    write_lines(str(path), lines())
    assert path.read_bytes() == b"first\nsecond\n"
    write_lines(str(path), iter([]))
    assert path.read_bytes() == b""


def _first_line_then_fail():
    yield "first"
    raise ValidationError("second line failed")


def test_failed_write_to_a_device_leaves_it_in_place(tmp_path):
    link = tmp_path / "out"
    link.symlink_to(os.devnull)
    with pytest.raises(ValidationError, match="second line failed"):
        write_lines(str(link), _first_line_then_fail())
    assert link.is_symlink() and os.path.exists(os.devnull)


def test_failed_write_through_a_symlink_removes_the_file_it_names(tmp_path):
    target, link = tmp_path / "target.tsv", tmp_path / "out"
    target.write_bytes(b"an older file")
    link.symlink_to(target)
    with pytest.raises(ValidationError, match="second line failed"):
        write_lines(str(link), _first_line_then_fail())
    assert not target.exists()
