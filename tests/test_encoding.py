"""Tests for binary value encodings (Algorithm 2's V^{0,1})."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.algorithms.encoding import (
    BinaryEncoding,
    bit_width,
    canonical_order,
    distinct_canonical_values,
)
from repro.algorithms.valuetree import ValueTree
from repro.core.errors import ConfigurationError


def test_bit_width_formula():
    assert bit_width(1) == 1
    assert bit_width(2) == 1
    assert bit_width(3) == 2
    assert bit_width(4) == 2
    assert bit_width(5) == 3
    assert bit_width(1024) == 10
    assert bit_width(1025) == 11
    with pytest.raises(ConfigurationError):
        bit_width(0)


def test_canonical_order_sorts_naturally():
    assert canonical_order([3, 1, 2]) == [1, 2, 3]
    assert canonical_order(["b", "a"]) == ["a", "b"]


def test_canonical_order_falls_back_to_repr_for_mixed_types():
    out = canonical_order([1, "a"])
    assert set(out) == {1, "a"}
    assert out == sorted([1, "a"], key=repr)


def test_encoding_roundtrip_small():
    enc = BinaryEncoding(["commit", "abort"])
    assert enc.width == 1
    assert enc.decode(enc.encode("commit")) == "commit"
    assert enc.decode(enc.encode("abort")) == "abort"
    assert enc.encode("abort") != enc.encode("commit")


def test_encoding_preserves_canonical_order_lexicographically():
    """min over bit strings must agree with min over values — Algorithm 2
    relies on this when adopting the minimum estimate."""
    values = [17, 3, 250, 42, 99]
    enc = BinaryEncoding(values)
    ordered = canonical_order(values)
    encoded = [enc.encode(v) for v in ordered]
    assert encoded == sorted(encoded)


def test_encoding_bit_indexing_is_one_based_msb_first():
    enc = BinaryEncoding(list(range(4)))   # width 2
    bits = enc.encode(2)                   # rank 2 -> "10"
    assert bits == "10"
    assert enc.bit(bits, 1) == 1
    assert enc.bit(bits, 2) == 0
    with pytest.raises(ConfigurationError):
        enc.bit(bits, 0)
    with pytest.raises(ConfigurationError):
        enc.bit(bits, 3)


def test_encoding_rejects_unknown_values():
    enc = BinaryEncoding(["a"])
    with pytest.raises(ConfigurationError):
        enc.encode("b")
    with pytest.raises(ConfigurationError):
        enc.decode("1")


def test_encoding_rejects_duplicates_and_empty():
    with pytest.raises(ConfigurationError):
        BinaryEncoding(["a", "a"])
    with pytest.raises(ConfigurationError):
        BinaryEncoding([])


def test_equal_members_are_duplicates():
    """``1 == 1.0``: one value, so one code, not two values sharing '01'."""
    for values in ([1, 1.0, 2], [True, 1, 0], [2, 2.0]):
        with pytest.raises(ConfigurationError, match="duplicates"):
            BinaryEncoding(values)
        with pytest.raises(ConfigurationError, match="duplicates"):
            ValueTree(values)
    assert distinct_canonical_values([2, 1.5, 1]) == (1, 1.5, 2)


def test_contains_and_len():
    enc = BinaryEncoding(["x", "y"])
    assert "x" in enc and "z" not in enc
    assert len(enc) == 2


@given(st.sets(st.integers(-1000, 1000), min_size=1, max_size=200))
def test_roundtrip_property(values):
    enc = BinaryEncoding(values)
    for v in values:
        assert enc.decode(enc.encode(v)) == v


@given(st.sets(st.integers(0, 10**6), min_size=2, max_size=300))
def test_width_is_ceil_log2(values):
    enc = BinaryEncoding(values)
    assert enc.width == max(1, math.ceil(math.log2(len(values))))
    assert all(len(enc.encode(v)) == enc.width for v in values)


@given(st.sets(st.integers(0, 500), min_size=2, max_size=100))
def test_encodings_are_injective(values):
    enc = BinaryEncoding(values)
    codes = {enc.encode(v) for v in values}
    assert len(codes) == len(values)
