"""One-shot encoder: all 20 parity bits from 135 information bits in a
single evaluation, via the parity matrix or the output masks of an XOR3
network.

The matrix path is the production encoder; the network path exists to
validate emitted netlists, and differential tests hold the two (and the
two serial encoders) bit-identical.
"""

from __future__ import annotations

from .parallel_gen import (N_INFO_BITS, ParityMatrix, XorNetwork, apply_masks,
                           bits_to_symbols, symbols_to_bits)
from .rs_core import K_SYMBOLS


def message_to_bits(msg: list[int]) -> list[int]:
    """Bit 5*j + i is bit i (LSB = x^0 coefficient) of symbol j."""
    if len(msg) != K_SYMBOLS:
        raise ValueError(f"message must have {K_SYMBOLS} symbols, got {len(msg)}")
    return symbols_to_bits(msg)


def bits_to_message(bits: list[int]) -> list[int]:
    if len(bits) != N_INFO_BITS:
        raise ValueError(f"expected {N_INFO_BITS} bits, got {len(bits)}")
    return bits_to_symbols(bits)


def parity_bits(info: list[int], matrix: ParityMatrix) -> list[int]:
    """Parity bit r is the XOR of the information bits in matrix row r."""
    return apply_masks(info, matrix.bitmasks)


def encode_parallel(info: list[int], matrix: ParityMatrix) -> list[int]:
    """Full 31-symbol systematic codeword from 135 information bits."""
    return bits_to_symbols(info) + bits_to_symbols(parity_bits(info, matrix))


def encode_via_network(info: list[int], net: XorNetwork) -> list[int]:
    """Same result as encode_parallel, computed from the netlist's output
    masks."""
    return bits_to_symbols(info) + bits_to_symbols(net.evaluate(info))
