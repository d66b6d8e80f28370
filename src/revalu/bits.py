"""Little-endian bit-vector helpers.

Bit vectors are plain tuples of 0/1 ints, index 0 being the least
significant bit. All bus-valued operations in the package use this
convention.

Packing and unpacking run in C: a bit vector becomes a byte string of
0s and 1s, read or written as a binary numeral with `int(..., 2)` and
`format(..., "b")`. Only a vector with a non-bit in it is scanned bit
by bit, to name the first offender.
"""

from __future__ import annotations

from operator import ne
from typing import Iterable, Sequence

_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # digits "0"/"1" to bytes 0/1
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # and back


def _require_int(name: str, value: int) -> int:
    """The value, if it is exactly an int: True and 1.0 are not words."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


def to_bits(value: int, width: int) -> tuple[int, ...]:
    """Expand a non-negative integer into `width` bits, LSB first."""
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    # A set bit above the top one keeps the leading zeros; [:0:-1] drops it.
    return tuple(format(value | 1 << width, "b").encode().translate(_BIT_VALUES)[:0:-1])


def from_bits(bits: Iterable[int]) -> int:
    """Pack an LSB-first bit sequence into an integer."""
    if not isinstance(bits, (list, tuple)):
        bits = list(bits)
    try:
        digits = bytes(bits)
    except (TypeError, ValueError):  # a bit that is no int in range(256)
        digits = b"?"
    if not digits.translate(None, b"\0\1"):  # nothing but 0s and 1s
        return int(digits.translate(_DIGITS)[::-1], 2) if digits else 0
    value = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {i} is {b!r}, expected 0 or 1")
        value |= b << i
    return value


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(ne, a, b))
