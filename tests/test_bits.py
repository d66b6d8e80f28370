"""Bit packing and unpacking against the plain per-bit implementations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revalu.bits import from_bits, hamming_distance, to_bits


def reference_to_bits(value, width):
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> i) & 1 for i in range(width))


def reference_from_bits(bits):
    value = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {i} is {b!r}, expected 0 or 1")
        value |= b << i
    return value


def outcome(fn, *args):
    """The result, or the exception's type and text."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc).__name__, str(exc)


CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda bits: (b for b in bits),
    "bools": lambda bits: [bool(b) for b in bits],
}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), st.data())
def test_round_trip_matches_reference(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1), label="value")
    bits = to_bits(value, width)
    assert bits == reference_to_bits(value, width)
    assert type(bits) is tuple and all(type(b) is int for b in bits)
    for name, make in CONTAINERS.items():
        assert from_bits(make(bits)) == reference_from_bits(make(bits)) == value, name


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=40),
    st.integers(0, 40),
    st.sampled_from([2, -1, 256, 1.5, 0.0, 1.0, "1", None, b"\x01"]),
    st.sampled_from(["list", "tuple", "generator"]),
)
def test_non_bit_is_named_as_the_reference_names_it(bits, index, bad, container):
    planted = list(bits)
    planted.insert(min(index, len(planted)), bad)
    make = CONTAINERS[container]
    assert outcome(from_bits, make(planted)) == outcome(reference_from_bits, make(planted))


@pytest.mark.parametrize(
    "value, width, message",
    [
        (-1, 4, "cannot encode negative value -1"),
        (-5, -1, "cannot encode negative value -5"),
        (3, -1, "width must be non-negative, got -1"),
        (16, 4, "value 16 does not fit in 4 bits"),
        (1, 0, "value 1 does not fit in 0 bits"),
    ],
)
def test_to_bits_errors(value, width, message):
    assert outcome(to_bits, value, width) == ("ValueError", message)
    assert outcome(reference_to_bits, value, width) == ("ValueError", message)


def test_from_bits_names_the_first_non_bit():
    with pytest.raises(ValueError, match=r"^bit 3 is 2, expected 0 or 1$"):
        from_bits([1, 0, 1, 2, 5])
    assert from_bits([]) == from_bits(()) == from_bits(iter(())) == 0
    assert to_bits(0, 0) == ()


@pytest.mark.parametrize("width", [0, 1, 7, 64, 66, 300])
def test_edges_of_each_width(width):
    for value in {0, 1 % (1 << width) if width else 0, (1 << width) - 1}:
        assert to_bits(value, width) == reference_to_bits(value, width)
        assert from_bits(to_bits(value, width)) == value
    assert to_bits(True, width + 1) == reference_to_bits(True, width + 1)


def reference_hamming_distance(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def test_hamming_distance_matches_reference():
    rng = random.Random(11)
    for width in (0, 1, 2, 7, 64, 300):
        for _ in range(20):
            a = tuple(rng.randint(0, 1) for _ in range(width))
            b = tuple(rng.randint(0, 1) for _ in range(width))
            distance = hamming_distance(a, b)
            assert type(distance) is int
            assert distance == reference_hamming_distance(a, b)
            assert hamming_distance(list(a), b) == distance
    assert hamming_distance((0, 1, 1, 0), (1, 1, 0, 0)) == 2


@pytest.mark.parametrize("a, b", [((0, 1, 1), (1, 0)), ((), (1,)), ([1, 0], (1, 0, 1, 1))])
def test_hamming_distance_length_mismatch(a, b):
    message = f"length mismatch: {len(a)} vs {len(b)}"
    assert outcome(hamming_distance, a, b) == ("ValueError", message)
    assert outcome(reference_hamming_distance, a, b) == ("ValueError", message)
