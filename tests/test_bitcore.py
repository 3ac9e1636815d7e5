import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsedlab.bitcore import SystemShape, join, split


def test_split_layout_convention():
    shape = SystemShape(4, 2)
    assert split(0b1101, shape) == (0b01, 0b11)
    assert split(0, shape) == (0, 0)
    assert split(shape.dim - 1, shape) == (shape.subdim - 1, shape.num_seeds - 1)


def test_join_examples():
    shape = SystemShape(4, 2)
    assert join(1, 3, shape) == 0b1101
    assert join(0, 0, shape) == 0


def test_split_join_roundtrip_exhaustive_n8():
    shape = SystemShape(8, 3)
    for x in range(shape.dim):
        b, a = split(x, shape)
        assert join(b, a, shape) == x


@given(st.integers(1, 12), st.data())
def test_split_join_bijection(n, data):
    k = data.draw(st.integers(1, n))
    shape = SystemShape(n, k)
    x = data.draw(st.integers(0, shape.dim - 1))
    b, a = split(x, shape)
    assert 0 <= b < shape.subdim and 0 <= a < shape.num_seeds
    assert join(b, a, shape) == x


def test_domain_errors():
    shape = SystemShape(4, 2)
    with pytest.raises(ValueError):
        split(16, shape)
    with pytest.raises(ValueError):
        join(4, 0, shape)
    with pytest.raises(ValueError):
        join(0, 4, shape)
    with pytest.raises(ValueError):
        SystemShape(4, 5)
    with pytest.raises(ValueError):
        SystemShape(31, 2)
