from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from polybox import Box, BoxSpace


@st.composite
def spaces(draw, max_d: int = 3, dims: tuple[int, ...] = (2, 3, 4)):
    d = draw(st.integers(min_value=1, max_value=max_d))
    return BoxSpace(tuple(draw(st.sampled_from(dims)) for _ in range(d)))


@st.composite
def proper_boxes(draw, space: BoxSpace | None = None):
    sp = space if space is not None else draw(spaces())
    factors = tuple(
        draw(st.integers(min_value=1, max_value=sp.full_masks[i] - 1))
        for i in range(sp.d)
    )
    return Box(sp, factors)


@st.composite
def boxes(draw, space: BoxSpace | None = None):
    sp = space if space is not None else draw(spaces())
    factors = tuple(
        draw(st.integers(min_value=1, max_value=sp.full_masks[i]))
        for i in range(sp.d)
    )
    return Box(sp, factors)


@pytest.fixture
def rng():
    return random.Random(20260811)
