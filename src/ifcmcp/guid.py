"""IFC GlobalId codec and generator.

A GlobalId is a 128-bit value printed as 22 characters in the IFC base-64
alphabet, most significant digit first. 22 digits carry 132 bits, so the
leading character only ever encodes the top 2 bits ('0'..'3').
"""

from __future__ import annotations

import os
import random

from .errors import GuidError

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"
_INDEX = {c: i for i, c in enumerate(ALPHABET)}

GUID_LENGTH = 22
_MAX = 1 << 128


def guid_encode(bits: int) -> str:
    if not 0 <= bits < _MAX:
        raise GuidError(f"value out of 128-bit range: {bits!r}")
    chars = []
    for _ in range(GUID_LENGTH):
        bits, digit = divmod(bits, 64)
        chars.append(ALPHABET[digit])
    return "".join(reversed(chars))


def guid_decode(text: str) -> int:
    if len(text) != GUID_LENGTH:
        raise GuidError(f"GlobalId must be {GUID_LENGTH} characters, got {len(text)}")
    value = 0
    for c in text:
        digit = _INDEX.get(c)
        if digit is None:
            raise GuidError(f"invalid GlobalId character {c!r}")
        value = value * 64 + digit
    if value >= _MAX:
        raise GuidError(f"GlobalId {text!r} exceeds 128 bits")
    return value


def is_guid(text) -> bool:
    return (
        isinstance(text, str)
        and len(text) == GUID_LENGTH
        and all(c in _INDEX for c in text)
        and _INDEX[text[0]] < 4
    )


class GuidGenerator:
    """Issues unique GlobalIds; cryptographically random unless seeded.

    The seeded mode exists only so trace replays can produce byte-exact
    golden files; it must not be used for production models.
    """

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed) if seed is not None else None
        self._issued: set[str] = set()

    def reserve(self, guids) -> None:
        """Never issue any of ``guids``, the GlobalIds a loaded file holds."""
        self._issued.update(guids)

    def fresh(self) -> str:
        while True:
            # os.urandom is the source secrets.randbits reads, without its imports
            bits = (self._rng.getrandbits(128) if self._rng
                    else int.from_bytes(os.urandom(16), "big"))
            text = guid_encode(bits)
            if text not in self._issued:
                self._issued.add(text)
                return text
