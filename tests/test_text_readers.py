"""The three text readers (corpus TSV, results TSV, class map) on any bytes.

Whatever a file holds, a reader returns or raises one of the package's
format or validation errors, which the CLI reports on one line with exit
code 2; no other exception escapes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binsketch.corpus import load_corpus
from binsketch.errors import FormatError, ParseError, ValidationError
from binsketch.metrics import load_class_map
from binsketch.search import load_results

READERS = {"corpus": load_corpus, "results": load_results, "class_map": load_class_map}

# Fragments that reach deep into each reader's checks, joined with noise.
_FRAGMENTS = st.sampled_from(
    [b"KHCORP1\tversion=1\td=2\n", b"\t", b"\n", b"p\tf\t1\t2\t0.5 1.0", b"1e999",
     b"nan", b"-1", b"class_label=3", b"class_id=c", b"q\t1\tp\t0.5", b"\xff", b"\xc3\xa9"]
)
_CONTENT = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(_FRAGMENTS, st.binary(max_size=8)), max_size=12).map(b"".join),
)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(raw=_CONTENT)
def test_any_bytes_raise_only_package_errors(tmp_path, name, raw):
    path = tmp_path / "input"
    path.write_bytes(raw)
    try:
        READERS[name](str(path))
    except (FormatError, ValidationError):
        pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_invalid_utf8_names_its_line(tmp_path, name):
    path = tmp_path / "input"
    path.write_bytes(b"a\tb\n" + b"x\xff\ty\n")
    with pytest.raises(ParseError, match="line 2: not valid UTF-8"):
        READERS[name](str(path))
