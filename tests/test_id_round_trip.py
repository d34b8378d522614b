"""Writers never produce a file their own reader rejects.

For arbitrary text ids, every writer either raises ValidationError or
writes a file from which its reader returns exactly what was written. The
tab-separated files cannot hold a tab or newline inside an id; the binary
containers store ids length-prefixed and hold any text.
"""

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
)
from binsketch.errors import ValidationError
from binsketch.metrics import load_class_map, save_class_map
from binsketch.search import Hit, SearchResult, load_results, save_results

# Arbitrary text, with the two TSV separators drawn often enough to matter.
IDS = st.text(st.one_of(st.sampled_from("\t\n"), st.characters()), max_size=6)


def _splits(*ids):
    return any("\t" in i or "\n" in i for i in ids)


def _writes_or_rejects(save, load, expected, bad):
    try:
        save()
    except ValidationError:
        assert bad
    else:
        assert not bad
        assert load() == expected


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
    tsv = str(tmp / "corpus.tsv")
    _writes_or_rejects(
        lambda: save_corpus(programs, tsv), lambda: load_corpus(tsv), programs, _splits(*names)
    )

    m = data.draw(st.integers(1, 70))
    stru = [(pid, StructuralEmbedding.from_bits(np.arange(m) % 3 == 0)) for pid in ids]
    save_structural(stru, str(tmp / "x.stru"), m=m)
    assert load_structural(str(tmp / "x.stru")) == stru

    sem = [(pid, SemanticEmbedding(np.array([1.5, -2.0], dtype=np.float32))) for pid in ids]
    save_semantic(sem, str(tmp / "x.sem"), d=2)
    assert load_semantic(str(tmp / "x.sem")) == sem

    hits = [Hit(pid, score) for pid, score in zip(ids, [1.0, 0.5, 1 / 3, 0.0])]
    results = [(qid, SearchResult(hits[: i % 3])) for i, qid in enumerate(ids)]
    expected = [
        (qid, [(h.program_id, float(f"{h.score:.6f}")) for h in res.hits])
        for qid, res in results
        if res.hits
    ]
    hits_path = str(tmp / "hits.tsv")
    _writes_or_rejects(
        lambda: save_results(results, hits_path),
        lambda: load_results(hits_path),
        expected,
        _splits(*ids) or len(set(ids)) < len(ids),
    )

    mapping = dict(zip(ids, data.draw(st.lists(IDS, min_size=len(ids), max_size=len(ids)))))
    classes = str(tmp / "classes.tsv")
    _writes_or_rejects(
        lambda: save_class_map(mapping, classes),
        lambda: load_class_map(classes),
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
        lambda path: save_results([("q", SearchResult([Hit("p\tq", 1.0)]))], path),
    ],
    ids=["corpus", "class_map", "results"],
)
def test_separator_in_id_rejected(tmp_path, save):
    with pytest.raises(ValidationError, match="tab or newline"):
        save(str(tmp_path / "out.tsv"))
