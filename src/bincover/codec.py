"""Bit-exact, self-delimiting advice tape encoding.

A bit string here is a plain ``str`` of ``'0'``/``'1'`` characters.  The
self-delimiting form of a string ``s`` is ``u(s) + b(s) + s`` where ``b(s)``
is the minimal binary encoding of ``len(s)`` and ``u(s)`` is ``len(b(s))``
ones followed by a single zero, so a decoder can always tell where a field
ends.  An advice payload (m, x_m) is three such fields in a fixed order:
m, then the numerator and denominator of x_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .model import ONE, DomainError, check_advice

Bits = str


class TapeError(ValueError):
    """Base class for advice tape failures."""


class TapeTruncationError(TapeError):
    """The tape ended in the middle of a field."""


class MalformedAdviceError(TapeError):
    """Decoded bits do not form a valid advice payload."""


def _check_bits(bits: Bits) -> Bits:
    if bits.strip("01"):
        raise TapeError(f"bit string may contain only 0 and 1, got {bits!r}")
    return bits


def minimal_binary(value: int) -> Bits:
    """Minimal binary encoding: no leading zeros; 0 encodes as one ``0`` bit."""
    if value < 0:
        raise ValueError(f"cannot encode negative integer {value}")
    return format(value, "b")


@dataclass
class TapeCursor:
    """Read position on an advice tape; reads advance it monotonically.

    The tape must hold only 0 and 1: this is the bit check of every decode.
    """

    tape: Bits
    position: int = 0

    def __post_init__(self) -> None:
        _check_bits(self.tape)

    def read(self, count: int) -> Bits:
        end = self.position + count
        if end > len(self.tape):
            raise TapeTruncationError(
                f"needed {count} bits at position {self.position}, "
                f"tape has {len(self.tape)}"
            )
        bits = self.tape[self.position:end]
        self.position = end
        return bits

    def read_unary(self) -> int:
        """Count ones up to and including the terminating zero."""
        count = 0
        while True:
            bit = self.read(1)
            if bit == "0":
                return count
            count += 1


def encode_self_delim(s: Bits) -> Bits:
    """Self-delimiting encoding ``u(s) + b(s) + s`` of a bit string."""
    _check_bits(s)
    length_bits = minimal_binary(len(s))
    return "1" * len(length_bits) + "0" + length_bits + s


def decode_self_delim(cursor: TapeCursor) -> Bits:
    """Inverse of :func:`encode_self_delim`, advancing the cursor."""
    prefix = cursor.read_unary()
    length_bits = cursor.read(prefix)
    length = int(length_bits, 2) if length_bits else 0
    return cursor.read(length)


@dataclass(frozen=True)
class AdvicePayload:
    """The advice pair (m, x_m); m = 0 uses the sentinel x_m = 1."""

    m: int
    x_m: Fraction

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "x_m", check_advice(self.m, self.x_m))
        except DomainError as exc:
            raise MalformedAdviceError(str(exc)) from exc
        if self.m == 0 and self.x_m != ONE:  # one canonical tape per advice
            raise MalformedAdviceError(f"m = 0 requires the sentinel x_m = 1, got {self.x_m}")


def encode_advice(payload: AdvicePayload) -> Bits:
    """Three self-delimited fields: m, numerator of x_m, denominator of x_m."""
    return (
        encode_self_delim(minimal_binary(payload.m))
        + encode_self_delim(minimal_binary(payload.x_m.numerator))
        + encode_self_delim(minimal_binary(payload.x_m.denominator))
    )


def _decode_int(cursor: TapeCursor) -> int:
    bits = decode_self_delim(cursor)
    return int(bits, 2) if bits else 0


def decode_advice(cursor: TapeCursor) -> AdvicePayload:
    """Exact inverse of :func:`encode_advice`; validates the payload."""
    m = _decode_int(cursor)
    numerator = _decode_int(cursor)
    denominator = _decode_int(cursor)
    if denominator == 0:
        raise MalformedAdviceError("advice denominator is zero")
    return AdvicePayload(m, Fraction(numerator, denominator))


_PACKED_HEADER_BYTES = 8


def write_tape(path: str | Path, bits: Bits) -> None:
    """Write an advice tape.

    Paths ending in ``.bin`` get the packed form: an 8-byte big-endian bit
    count followed by the bits packed most-significant-bit first, the final
    byte zero-padded.  Everything else gets one ASCII line of 0/1.
    """
    _check_bits(bits)
    path = Path(path)
    if path.suffix == ".bin":
        header = len(bits).to_bytes(_PACKED_HEADER_BYTES, "big")
        padded = bits + "0" * (-len(bits) % 8)
        body = bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))
        path.write_bytes(header + body)
    else:
        path.write_text(bits + "\n")


def read_tape(path: str | Path) -> Bits:
    path = Path(path)
    if path.suffix == ".bin":
        blob = path.read_bytes()
        if len(blob) < _PACKED_HEADER_BYTES:
            raise TapeTruncationError("packed tape is shorter than its header")
        count = int.from_bytes(blob[:_PACKED_HEADER_BYTES], "big")
        body = blob[_PACKED_HEADER_BYTES:]
        if len(body) * 8 < count:
            raise TapeTruncationError(
                f"packed tape declares {count} bits but carries {len(body) * 8}"
            )
        bits = "".join(format(byte, "08b") for byte in body)
        return bits[:count]
    return path.read_text().strip()
