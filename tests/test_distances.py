from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medianlab.distances import EPS, ONE, ZERO, ExactDistance

dists = st.builds(
    ExactDistance,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=1000),
)


def test_construction_rejects_bad_components():
    with pytest.raises(ValueError):
        ExactDistance(-1)
    with pytest.raises(ValueError):
        ExactDistance(0, -2)
    with pytest.raises(TypeError):
        ExactDistance(1.5)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        ExactDistance(1, eps_count=0.5)  # type: ignore[arg-type]


def test_constants_and_zero_flag():
    assert ZERO == ExactDistance(0, 0)
    assert ONE == ExactDistance(1, 0)
    assert EPS == ExactDistance(0, 1)


def test_addition_and_scaling_frozen_values():
    assert ExactDistance(3, 2) + ExactDistance(1, 5) == ExactDistance(4, 7)
    with pytest.raises(TypeError):
        3 * ExactDistance(2, 1)


def test_lexicographic_order():
    assert ExactDistance(1, 0) > ExactDistance(0, 99)
    assert ExactDistance(2, 1) > ExactDistance(2, 0)
    vals = [ExactDistance(1, 1), ZERO, EPS, ONE, ExactDistance(0, 3)]
    assert sorted(vals) == [ZERO, EPS, ExactDistance(0, 3), ONE, ExactDistance(1, 1)]


def test_to_fraction_and_float():
    assert ExactDistance(3, 2).to_fraction(Fraction(1, 8)) == Fraction(13, 4)
    assert ExactDistance(5, 10).approx_float(0.0) == 5.0
    assert ExactDistance(5, 10).approx_float(0.5) == 10.0


def test_str_forms():
    assert str(ExactDistance(4)) == "4"
    assert str(ExactDistance(0, 7)) == "7*eps"
    assert str(ExactDistance(3, 2)) == "3+2*eps"


@given(dists, dists)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(dists, dists, dists)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(dists, dists)
def test_order_matches_rational_value_in_regime(a, b):
    # with eps below 1/(max eps_count), lexicographic order is the true order
    eps = Fraction(1, 1001)
    assert (a < b) == (a.to_fraction(eps) < b.to_fraction(eps))
    assert (a == b) == (a.to_fraction(eps) == b.to_fraction(eps))


@given(dists, st.integers(min_value=1, max_value=10**9))
def test_fraction_roundtrip_scaling(a, denom):
    eps = Fraction(1, denom)
    assert a.to_fraction(eps) == Fraction(a.units) + a.eps_count * eps
