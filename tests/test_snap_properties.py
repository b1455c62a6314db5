"""Property tests of the root-of-unity snap behind the gauge order k.

:func:`gauge_group_order` must return k for the k-th roots of unity in any
order, each moved by less than a tenth of the tolerance, and must raise for
every other set of roots of unity: one that misses an element of a group,
holds a root of higher order, or does not contain 1. Orders run up to 12,
with the denominator cap left at its default (the number of values) or set
to 12. The examples are derandomized, so the suite stays deterministic.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fcstates import NumericalHealthError, gauge_group_order
from fcstates.cpmap import root_of_unity_phase

TOL = 1e-8
CAPS = st.sampled_from([None, 12])


def _root(phase: Fraction) -> complex:
    return complex(np.exp(2j * np.pi * float(phase)))


@st.composite
def nudges(draw, size: int) -> np.ndarray:
    """``size`` complex offsets, each of modulus below TOL / 10."""
    radii = draw(st.lists(st.floats(0.0, 0.99 * TOL / 10), min_size=size, max_size=size))
    angles = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=size, max_size=size))
    return np.array(radii) * np.exp(1j * np.array(angles))


@pytest.mark.parametrize("k", range(1, 13))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_nudged_roots_of_unity_give_their_order(k, data):
    order = data.draw(st.permutations(range(k)))
    values = np.array([_root(Fraction(j, k)) for j in order]) + data.draw(nudges(k))
    assert gauge_group_order(values, tol=TOL, max_denominator=data.draw(CAPS)) == k
    for j, v in zip(order, values):
        assert root_of_unity_phase(v, 12, TOL) == Fraction(j, k)


PHASES = st.integers(1, 12).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(PHASES, min_size=2, unique=True), CAPS)
def test_roots_of_unity_that_are_not_a_group_raise(phases, cap):
    k = len(phases)
    assume(set(phases) != {Fraction(j, k) for j in range(k)})
    with pytest.raises(NumericalHealthError):
        gauge_group_order([_root(p) for p in phases], tol=TOL, max_denominator=cap)
