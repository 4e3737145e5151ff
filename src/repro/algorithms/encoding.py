"""Binary value encodings (the paper's ``V^{0,1}``, Section 7 conventions).

Algorithm 2 spells estimates out bit by bit, so every value in ``V`` must
map to a unique binary string of width ``⌈lg |V|⌉``.  The encoding orders
``V`` canonically (sorted by ``repr`` for mixed types, natural order when
possible) so every anonymous process derives the *same* encoding from the
same ``V`` — no out-of-band agreement needed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from ..core.errors import ConfigurationError
from ..core.types import Value


def canonical_order(values: Iterable[Value]) -> List[Value]:
    """A deterministic total order on ``V`` all processes can compute.

    Natural ordering when the values are mutually comparable, ``repr``
    ordering otherwise.
    """
    vals = list(values)
    try:
        return sorted(vals)
    except TypeError:
        return sorted(vals, key=repr)


def distinct_canonical_values(values: Iterable[Value]) -> Tuple[Value, ...]:
    """``V`` in :func:`canonical_order`, checked non-empty and duplicate-free.

    Duplicates are members equal under ``==``/hash, such as ``1`` and
    ``1.0``: they would share one code or tree node.
    """
    ordered = tuple(canonical_order(values))
    if not ordered:
        raise ConfigurationError("value set must be non-empty")
    if len(set(ordered)) != len(ordered):
        raise ConfigurationError("value set contains duplicates")
    return ordered


def bit_width(size: int) -> int:
    """``⌈lg size⌉``, with a floor of 1 so every value has at least one bit."""
    if size < 1:
        raise ConfigurationError("value set must be non-empty")
    return max(1, math.ceil(math.log2(size))) if size > 1 else 1


class BinaryEncoding:
    """A bijection ``V <-> {0,1}^w`` with ``w = ⌈lg |V|⌉`` (Section 7).

    Bit strings are Python strings over ``'0'``/``'1'``; bit 1 is the most
    significant, matching the paper's ``estimate[b]`` indexing
    (``1 <= b <= ⌈lg|V|⌉``).
    """

    def __init__(self, values: Iterable[Value]) -> None:
        self._values = distinct_canonical_values(values)
        self._width = bit_width(len(self._values))
        self._encode: Dict[Value, str] = {}
        self._decode: Dict[str, Value] = {}
        for rank, value in enumerate(self._values):
            bits = format(rank, f"0{self._width}b")
            self._encode[value] = bits
            self._decode[bits] = value

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """``⌈lg |V|⌉`` — the number of propose-phase rounds Algorithm 2
        spends per cycle."""
        return self._width

    @property
    def values(self) -> Tuple[Value, ...]:
        """The canonically ordered value set."""
        return self._values

    def encode(self, value: Value) -> str:
        """``V -> {0,1}^w``; raises for values outside ``V``."""
        try:
            return self._encode[value]
        except KeyError:
            raise ConfigurationError(f"value {value!r} not in V") from None

    def decode(self, bits: str) -> Value:
        """``{0,1}^w -> V``; raises for strings that encode nothing."""
        try:
            return self._decode[bits]
        except KeyError:
            raise ConfigurationError(f"bit string {bits!r} encodes no value")

    def bit(self, bits: str, b: int) -> int:
        """The paper's ``estimate[b]`` — 1-based, most significant first."""
        if not 1 <= b <= self._width:
            raise ConfigurationError(
                f"bit index {b} out of range 1..{self._width}"
            )
        return int(bits[b - 1])

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Value) -> bool:
        return value in self._encode

    def __repr__(self) -> str:
        return f"BinaryEncoding(|V|={len(self._values)}, width={self._width})"
