"""One contract for every function that takes a distance sequence.

Each consumer accepts either a :class:`DescendingDistances` or any sequence
of the same values in any order, and gives bit-identical results for both.
Malformed input raises ValueError, never DuplicatePointError, which belongs
to distance extraction.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidestats import (
    CornerDensity,
    DescendingDistances,
    DuplicatePointError,
    genial_entropy,
    level_derivatives,
    psi1,
    psi2_conjectured,
    psi_numeric,
    step_slide_function,
)


def _density(d):
    density = CornerDensity.from_distances(d)
    return [density.normalization, genial_entropy(density), *density.distances]


# name, call returning a flat list of floats, minimum length, zeros allowed
CONSUMERS = [
    ("psi1", lambda d: [psi1(d)], 2, False),
    ("psi2_conjectured", lambda d: [psi2_conjectured(d)], 2, False),
    ("psi_numeric", lambda d: astuple(psi_numeric(d, 2)), 2, False),
    ("level_derivatives", lambda d: level_derivatives(d, 3), 2, True),
    ("step_slide_function", lambda d: astuple(step_slide_function(d, 0.7)), 1, False),
    ("CornerDensity.from_distances", _density, 1, False),
]
IDS = [entry[0] for entry in CONSUMERS]

POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


def _bits(result):
    return np.asarray(result, dtype=float).tobytes()


def _raises_value_error(call, distances):
    with pytest.raises(ValueError) as info:
        call(distances)
    assert not isinstance(info.value, DuplicatePointError)


@pytest.mark.parametrize("name, call, min_size, allow_zero", CONSUMERS, ids=IDS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_descending_and_shuffled_agree_bitwise(data, name, call, min_size, allow_zero):
    element = st.one_of(st.just(0.0), POSITIVE) if allow_zero else POSITIVE
    values = data.draw(st.lists(element, min_size=2, max_size=40).filter(any))
    shuffled = data.draw(st.permutations(values))
    wrapped = DescendingDistances(values)
    assert _bits(call(wrapped)) == _bits(call(list(shuffled)))


MALFORMED = {
    "empty": [],
    "nan": [2.0, math.nan, 1.0],
    "two_dimensional": [[2.0, 1.0], [0.5, 0.25]],
    "negative": [2.0, 1.0, -0.5],
}


@pytest.mark.parametrize("name, call, min_size, allow_zero", CONSUMERS, ids=IDS)
@pytest.mark.parametrize("bad", sorted(MALFORMED))
def test_malformed_input_raises_value_error(bad, name, call, min_size, allow_zero):
    _raises_value_error(call, MALFORMED[bad])


@pytest.mark.parametrize("name, call, min_size, allow_zero", CONSUMERS, ids=IDS)
def test_too_short_raises_value_error(name, call, min_size, allow_zero):
    short = [1.5] * (min_size - 1)
    _raises_value_error(call, short)
    if short:
        _raises_value_error(call, DescendingDistances(short))


@pytest.mark.parametrize("name, call, min_size, allow_zero", CONSUMERS, ids=IDS)
def test_zero_distance(name, call, min_size, allow_zero):
    for zeros in ([1.0, 0.0], DescendingDistances([0.0, 1.0])):
        if allow_zero:
            assert np.all(np.isfinite(call(zeros)))
        else:
            _raises_value_error(call, zeros)

