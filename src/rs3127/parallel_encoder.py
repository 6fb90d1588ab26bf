"""One-shot encoder: all 20 parity bits from 135 information bits in a
single evaluation of the output masks of a `LinearMap` (the parity
matrix) or of an `XorNetwork` (an emitted netlist).

The matrix is the production encoder (on a block of symbols,
`framing.xor_block`); a network's masks exist to validate emitted
netlists, and tests hold the two (and the serial encoders) bit-identical.
"""

from __future__ import annotations

from .parallel_gen import N_INFO_BITS, bits_to_symbols, symbols_to_bits
from .rs_core import K_SYMBOLS

_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def message_to_bits(msg: list[int]) -> list[int]:
    """Bit 5*j + i is bit i (LSB = x^0 coefficient) of symbol j."""
    if len(msg) != K_SYMBOLS:
        raise ValueError(f"message must have {K_SYMBOLS} symbols, got {len(msg)}")
    return symbols_to_bits(msg)


def bits_to_message(bits: list[int]) -> list[int]:
    if len(bits) != N_INFO_BITS:
        raise ValueError(f"expected {N_INFO_BITS} bits, got {len(bits)}")
    return bits_to_symbols(bits)


def parity_bits(info: list[int], masks) -> list[int]:
    """Parity bit r is the XOR of the information bits set in
    masks.bitmasks[r], for a LinearMap or an XorNetwork; the 0/1 bits are
    packed by reading them, reversed, as binary digits."""
    if len(info) != N_INFO_BITS:
        raise ValueError(f"expected {N_INFO_BITS} bits, got {len(info)}")
    packed = int(bytes(reversed(info)).translate(_BINARY_DIGITS), 2)
    return [(packed & m).bit_count() & 1 for m in masks.bitmasks]


def encode_parallel(info: list[int], masks) -> list[int]:
    """Full 31-symbol systematic codeword from 135 information bits."""
    return bits_to_symbols(info) + bits_to_symbols(parity_bits(info, masks))
