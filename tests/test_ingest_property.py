"""Property test: the tick parser agrees with its line-at-a-time oracle on
lines drawn from the numeric alphabet, junk bytes and any newline style."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_ingest_oracle import assert_matches_oracle  # noqa: E402

from retvol import ingest  # noqa: E402

NUMERIC = "0123456789.eE+-"
JUNK = " \r\t_xnaif\x00\x0bé١"

field = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet=NUMERIC, max_size=8),
    st.text(alphabet=NUMERIC + JUNK, max_size=4),
)
line = st.one_of(
    st.lists(field, min_size=3, max_size=3).map(",".join),
    st.lists(field, min_size=0, max_size=4).map(",".join),
    st.text(alphabet=NUMERIC + "," + JUNK, max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(line, max_size=12),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       final_newline=st.booleans(),
       chunk=st.sampled_from([1, 5, 16, 64, ingest.CHUNK_BYTES]))
def test_parser_matches_oracle(lines, newline, final_newline, chunk):
    text = newline.join(lines) + (newline if final_newline else "")
    saved = ingest.CHUNK_BYTES
    ingest.CHUNK_BYTES = chunk
    try:
        assert_matches_oracle(text)
        assert_matches_oracle(text.encode("utf-8"))
    finally:
        ingest.CHUNK_BYTES = saved
