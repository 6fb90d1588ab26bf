"""Transmitter/receiver chain: scramble, dual encode, symbol-interleave
into 310 payload bits, prepend the 10-bit header — and the exact inverse.

Frame layout (320 bits): bits 0..9 header, MSB first; payload bit 10*s + i
(relative to the payload start) is bit 4-i of symbol s of codeword A, and
10*s + 5 + i is bit 4-i of symbol s of codeword B — 5-bit symbols of the
two codewords alternate, MSB first on the wire. A frame is thus 64 five-bit
wire slots; parallel_gen's symbols_to_bits/bits_to_symbols convert them and
are the one owner of the symbol bit order. The scrambler is additive
and frame-synchronous (x^7 + x^6 + 1, reseeded to all-ones each frame),
so descrambling is the same operation and channel bit errors do not
multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decoder import DecodeResult, decode
from .parallel_encoder import bits_to_message, encode_parallel, message_to_bits
from .parallel_gen import (BITS_PER_SYMBOL, bits_to_symbols, default_parity_matrix,
                           symbols_to_bits)
from .rs_core import N_SYMBOLS, encode_reference
from .serial_encoder import lfsr_encode

FRAME_BITS = 320
HEADER_BITS = 10
PAYLOAD_BITS = 310
INFO_BITS_PER_FRAME = 270
HALF_INFO_BITS = 135
FRAME_BYTES = 40
# Offset of each wire slot in the frame read as one big-endian integer.
_SLOT_SHIFTS = tuple(range(FRAME_BITS - BITS_PER_SYMBOL, -1, -BITS_PER_SYMBOL))

DEFAULT_SYNC_HEADER = 0b1101010010

SCRAMBLER_BITS = 7  # x^7 + x^6 + 1


class Scrambler:
    """PRBS source for the additive scrambler.

    The output is the register MSB; the register is reseeded to all-ones
    at each frame start and can never reach the all-zero state from there.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.state = (1 << SCRAMBLER_BITS) - 1

    def next_bit(self) -> int:
        out = (self.state >> 6) & 1
        feedback = ((self.state >> 6) ^ (self.state >> 5)) & 1
        self.state = ((self.state << 1) | feedback) & 0x7F
        return out


def _prbs(n: int) -> list[int]:
    gen = Scrambler()
    return [gen.next_bit() for _ in range(n)]


_PRBS_FRAME = _prbs(INFO_BITS_PER_FRAME)


def scramble(bits: list[int]) -> list[int]:
    """XOR with the fixed per-frame PRBS; applying it twice is identity."""
    if len(bits) != INFO_BITS_PER_FRAME:
        raise ValueError(f"expected {INFO_BITS_PER_FRAME} bits, got {len(bits)}")
    return [b ^ p for b, p in zip(bits, _PRBS_FRAME)]


descramble = scramble


def interleave(a: list[int], b: list[int]) -> list[int]:
    """310 wire bits from two 31-symbol codewords, symbols alternating."""
    if len(a) != N_SYMBOLS or len(b) != N_SYMBOLS:
        raise ValueError(f"both codewords must have {N_SYMBOLS} symbols")
    slots = [0] * (2 * N_SYMBOLS)
    slots[0::2] = a
    slots[1::2] = b
    return symbols_to_bits(slots, msb_first=True)


def deinterleave(bits: list[int]) -> tuple[list[int], list[int]]:
    if len(bits) != PAYLOAD_BITS:
        raise ValueError(f"expected {PAYLOAD_BITS} bits, got {len(bits)}")
    slots = bits_to_symbols(bits, msb_first=True)
    return slots[0::2], slots[1::2]


def _header_bits(header: int) -> list[int]:
    """The header's low 10 bits as two wire slots, MSB first."""
    return symbols_to_bits([(header >> BITS_PER_SYMBOL) & 0x1F, header & 0x1F],
                           msb_first=True)


def _encode_half(bits: list[int], encoder: str) -> list[int]:
    if encoder == "parallel":
        return encode_parallel(bits, default_parity_matrix())
    if encoder == "reference":
        return encode_reference(bits_to_message(bits))
    if encoder == "lfsr":
        return lfsr_encode(bits_to_message(bits))
    raise ValueError(f"unknown encoder {encoder!r}")


def build_frame(info: list[int], header: int = DEFAULT_SYNC_HEADER,
                encoder: str = "parallel") -> list[int]:
    """Scramble, encode both halves (first half -> codeword A), interleave,
    prepend the sync header."""
    if len(info) != INFO_BITS_PER_FRAME:
        raise ValueError(f"expected {INFO_BITS_PER_FRAME} bits, got {len(info)}")
    scrambled = scramble(info)
    cw_a = _encode_half(scrambled[:HALF_INFO_BITS], encoder)
    cw_b = _encode_half(scrambled[HALF_INFO_BITS:], encoder)
    return _header_bits(header) + interleave(cw_a, cw_b)


@dataclass
class UnframeResult:
    info: list[int]
    result_a: DecodeResult
    result_b: DecodeResult
    header_ok: bool


def unframe(frame: list[int], header: int = DEFAULT_SYNC_HEADER) -> UnframeResult:
    """Inverse chain. A header mismatch is reported, not fatal — the
    channel may corrupt it. Uncorrectable codewords pass their received
    message region through unmodified."""
    if len(frame) != FRAME_BITS:
        raise ValueError(f"expected {FRAME_BITS} bits, got {len(frame)}")
    header_ok = frame[:HEADER_BITS] == _header_bits(header)
    word_a, word_b = deinterleave(frame[HEADER_BITS:])
    res_a = decode(word_a)
    res_b = decode(word_b)
    scrambled = message_to_bits(res_a.message) + message_to_bits(res_b.message)
    return UnframeResult(descramble(scrambled), res_a, res_b, header_ok)


def frame_to_bytes(frame: list[int]) -> bytes:
    """Pack 320 bits big-endian: frame bit 0 is the MSB of byte 0."""
    if len(frame) != FRAME_BITS:
        raise ValueError(f"expected {FRAME_BITS} bits, got {len(frame)}")
    value = 0
    for slot in bits_to_symbols(frame, msb_first=True):
        value = value << BITS_PER_SYMBOL | slot
    return value.to_bytes(FRAME_BYTES, "big")


def bytes_to_frame(data: bytes) -> list[int]:
    if len(data) != FRAME_BYTES:
        raise ValueError(f"expected {FRAME_BYTES} bytes, got {len(data)}")
    value = int.from_bytes(data, "big")
    return symbols_to_bits([value >> shift & 0x1F for shift in _SLOT_SHIFTS],
                           msb_first=True)
