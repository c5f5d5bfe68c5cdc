"""Property test: the jackknife engine agrees with the naive
leave-one-block-out oracle on drawn series lengths, block counts, powers
and lag sets, including blocks far shorter than the lags reach."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import oracle_jackknife_sigma  # noqa: E402

from retvol.crosscorr import MIN_PAIRS  # noqa: E402
from retvol.jackknife import (JackknifeConfig, block_bounds,  # noqa: E402
                              jackknife_sigma)
from retvol.returns import NormalizedReturns  # noqa: E402
from retvol.rng import standard_normals  # noqa: E402


@st.composite
def layouts(draw):
    n = draw(st.integers(40, 300))
    blocks = draw(st.integers(2, n // 20))
    # every reduced series must keep MIN_PAIRS pairs at every lag
    reach = n - int(np.diff(block_bounds(n, blocks)).max()) - MIN_PAIRS
    lags = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=6,
                         unique=True))
    return n, blocks, lags


@settings(max_examples=150, deadline=None)
@given(layout=layouts(), d=st.floats(0.2, 3.0), seed=st.integers(0, 2**32))
def test_engine_matches_oracle_on_drawn_layouts(layout, d, seed):
    n, blocks, lags = layout
    nr = NormalizedReturns(standard_normals(seed, n), 0.0, 1.0)
    got = jackknife_sigma(nr, d, lags, JackknifeConfig(blocks))
    want = oracle_jackknife_sigma(nr.values, d, lags, blocks)
    assert np.max(np.abs(got - want)) < 1e-12
