"""Property test: the tick parser agrees with its line-at-a-time oracle on
lines drawn from the numeric alphabet, junk bytes, long decimals and any
newline style."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_ingest_oracle import assert_matches_oracle  # noqa: E402

from retvol import ingest  # noqa: E402

NUMERIC = "0123456789.eE+-"
JUNK = " \r\t_xnaif\x00\x0bé١"


@st.composite
def long_decimals(draw):
    """16 to 24 characters: leading zeros, digits and one dot anywhere."""
    size = draw(st.integers(15, 23))
    lead = draw(st.integers(0, size))
    digits = "0" * lead + draw(st.text("0123456789", min_size=size - lead,
                                       max_size=size - lead))
    dot = draw(st.integers(0, size))
    return digits[:dot] + "." + digits[dot:]


# positional decimals at the fast reader's limits and past them: repr
# of doubles from 1e-4 to 1e16 has up to 17 digits and 22 characters
decimal = st.one_of(
    long_decimals(),
    st.floats(min_value=1e-4, max_value=1e16, exclude_max=True).map(repr),
)
field = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet=NUMERIC, max_size=8),
    st.text(alphabet=NUMERIC + JUNK, max_size=4),
    decimal,
)
line = st.one_of(
    st.lists(field, min_size=3, max_size=3).map(",".join),
    st.tuples(st.integers(0, 10**19).map(str), decimal,
              decimal).map(",".join),
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
