"""Transmitter/receiver chain: scramble, dual encode, symbol-interleave
into 310 payload bits, prepend the 10-bit header — and the exact inverse.

Frame layout (320 bits): bits 0..9 header, MSB first; payload bit 10*s + i
(relative to the payload start) is bit 4-i of symbol s of codeword A, and
10*s + 5 + i is bit 4-i of symbol s of codeword B — 5-bit symbols of the
two codewords alternate, MSB first on the wire. The header is always
DEFAULT_SYNC_HEADER. The scrambler is additive and frame-synchronous, so
descrambling is the same operation and channel bit errors do not
multiply. Its x^7 + x^6 + 1 register starts all-ones at each frame and
shifts out its MSB, so the PRBS is seven ones, then bit n-7 XOR bit n-6.

Off the wire a codeword is 155 bits in info/parity order (bit 5*s + i is
bit i of symbol s, as parallel_gen's converters give it), and one index
states the layout: payload bit k is bit `_TO_WIRE[k]` of [codeword A |
codeword B], and `_FROM_WIRE` inverts it. Every frame is laid out and
read back by that index: `interleave`/`deinterleave` and both forms of
the chain gather by it. Its independent oracles are
`interleave_reference` and `frame_reference` in the tests, written bit
by bit from the layout above.
`build_frame`/`unframe` take one frame as lists of bits. build_frame
scrambles, appends each half's parity bits from the parity matrix's
masks (`parity_bits`), and gathers the header and both codewords into
wire order with one `operator.itemgetter`. unframe gathers both
codewords back with another, converts them to symbols for the scalar
`decode`, and takes the scrambled info from that gather unless a
codeword was corrected.
The batch kernels `encode_frames`/`decode_frames` take `uint8[N, 270]`
info and `uint8[N, 320]` frames: scrambling is an XOR with the PRBS and
interleaving one gather by the index. `encode_frames` runs the chosen
encoder's own algorithm across the block, never a scalar encoder, and
`decode_frames` decodes the codewords of every frame (`frame_words`) in
one `decoder.decode_words` call. The CLI and the simulator feed the
kernels in blocks of at most BLOCK_FRAMES frames, which bounds their
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .decoder import CORRECTED, DecodeResult, decode, decode_words
from .parallel_encoder import message_to_bits, parity_bits
from .parallel_gen import (WORD_BITS, bits_to_symbols, default_parity_matrix,
                           parity_by_symbols, symbols_to_bits)
from .rs_core import K_SYMBOLS, N_SYMBOLS, divide_block
from .serial_encoder import shift_in_block

FRAME_BITS = 320
HEADER_BITS = 10
PAYLOAD_BITS = 310
INFO_BITS_PER_FRAME = 270
HALF_INFO_BITS = 135
FRAME_BYTES = 40

DEFAULT_SYNC_HEADER = 0b1101010010
# Its 10 bits, MSB first: the first 10 bits of every frame.
_HEADER = [DEFAULT_SYNC_HEADER >> (HEADER_BITS - 1 - i) & 1 for i in range(HEADER_BITS)]

# Frames per kernel call in the CLI and the simulator. A block's parity
# or syndrome product then has at most 256 rows, which numpy's bundled
# OpenBLAS runs on the calling thread; at 512 rows it wakes a second
# thread, which slows `simulate --jobs 2`.
BLOCK_FRAMES = 128

_PRBS_FRAME = [1] * 7
while len(_PRBS_FRAME) < INFO_BITS_PER_FRAME:
    _PRBS_FRAME.append(_PRBS_FRAME[-7] ^ _PRBS_FRAME[-6])
# scramble packs a frame's info bits, one byte each, into one int: the
# PRBS packed the same way, and the bits of those bytes other than bit 0.
_PRBS_INT = int.from_bytes(bytes(_PRBS_FRAME), "big")
_NOT_BITS = int.from_bytes(b"\xfe" * INFO_BITS_PER_FRAME, "big")

# Payload bit k comes from bit 155*c + 5*s + 4-i of [codeword A | codeword B]
# in info/parity order (s = k // 10, c = k // 5 % 2, i = k % 5); _FROM_WIRE inverts it.
_k = np.arange(PAYLOAD_BITS)
_TO_WIRE = WORD_BITS * (_k // 5 % 2) + 5 * (_k // 10) + 4 - _k % 5
_FROM_WIRE = np.empty_like(_TO_WIRE)
_FROM_WIRE[_TO_WIRE] = _k
del _k
# The scalar chain's two gathers by that formula: the frame from the header
# and [codeword A | codeword B] in info/parity order, and back.
_FRAME_FROM_WORDS = itemgetter(*range(HEADER_BITS), *(HEADER_BITS + _TO_WIRE).tolist())
_WORDS_FROM_FRAME = itemgetter(*(HEADER_BITS + _FROM_WIRE).tolist())


def _bit_bytes(bits, size: int) -> bytes:
    """The values of `size` bits, one byte each, from a list or tuple of
    ints or from an array (through its tolist). bytes() raises ValueError
    for a value outside 0..255."""
    if len(bits) != size:
        raise ValueError(f"expected {size} bits, got {len(bits)}")
    return bytes(bits.tolist() if isinstance(bits, np.ndarray) else bits)


def scramble(bits) -> list[int]:
    """XOR with the fixed per-frame PRBS; applying it twice is identity.
    Takes 270 bits as a list, a tuple (as a gather returns) or an array,
    and returns a list. A value other than 0 or 1 (False and True count)
    raises ValueError rather than pass on as value ^ PRBS bit."""
    packed = int.from_bytes(_bit_bytes(bits, INFO_BITS_PER_FRAME), "big")
    if packed & _NOT_BITS:
        raise ValueError("bits must be 0 or 1")
    return list((packed ^ _PRBS_INT).to_bytes(INFO_BITS_PER_FRAME, "big"))


descramble = scramble


def interleave(a: list[int], b: list[int]) -> list[int]:
    """310 wire bits from two 31-symbol codewords, symbols alternating:
    the bits of [A | B] gathered by _TO_WIRE."""
    if len(a) != N_SYMBOLS or len(b) != N_SYMBOLS:
        raise ValueError(f"both codewords must have {N_SYMBOLS} symbols")
    return np.array(symbols_to_bits([*a, *b]), np.uint8)[_TO_WIRE].tolist()


def deinterleave(bits: list[int]) -> tuple[list[int], list[int]]:
    """The symbols of codewords A and B from 310 wire bits, gathered by
    _FROM_WIRE."""
    if len(bits) != PAYLOAD_BITS:
        raise ValueError(f"expected {PAYLOAD_BITS} bits, got {len(bits)}")
    symbols = bits_to_symbols(np.asarray(bits)[_FROM_WIRE].tolist())
    return symbols[:N_SYMBOLS], symbols[N_SYMBOLS:]


def build_frame(info: list[int]) -> list[int]:
    """Scramble, append to each half (the first is codeword A) its parity
    bits from the parity matrix's masks, and gather the header and both
    codewords into wire order by the kernels' layout formula. scramble
    checks the length."""
    scrambled = scramble(info)
    matrix = default_parity_matrix()
    a, b = scrambled[:HALF_INFO_BITS], scrambled[HALF_INFO_BITS:]
    words = [*_HEADER, *a, *parity_bits(a, matrix), *b, *parity_bits(b, matrix)]
    return list(_FRAME_FROM_WORDS(words))


@dataclass
class UnframeResult:
    info: list[int]
    result_a: DecodeResult
    result_b: DecodeResult
    header_ok: bool


def unframe(frame: list[int]) -> UnframeResult:
    """Inverse chain, on a frame as a list, a tuple or an array of bits.
    A header mismatch is reported, not fatal — the channel may corrupt it.
    Uncorrectable codewords pass their received message region through
    unmodified. decode's message is the received one unless it corrected
    the codeword, so without a correction the scrambled info is the
    message bits of the gathered codewords, and only a corrected frame's
    messages are converted back to bits. A value other than 0 or 1 raises
    ValueError, in the header checked only when it mismatches."""
    if len(frame) != FRAME_BITS:
        raise ValueError(f"expected {FRAME_BITS} bits, got {len(frame)}")
    header_ok = list(frame[:HEADER_BITS]) == _HEADER
    if not header_ok and not {*frame[:HEADER_BITS]} <= {0, 1}:
        raise ValueError("bits must be 0 or 1")
    words = _WORDS_FROM_FRAME(frame)
    symbols = bits_to_symbols(words)
    res_a = decode(symbols[:N_SYMBOLS])
    res_b = decode(symbols[N_SYMBOLS:])
    if CORRECTED in (res_a.status, res_b.status):
        scrambled = message_to_bits(res_a.message) + message_to_bits(res_b.message)
    else:
        scrambled = words[:HALF_INFO_BITS] + words[WORD_BITS:WORD_BITS + HALF_INFO_BITS]
    return UnframeResult(descramble(scrambled), res_a, res_b, header_ok)


def frame_to_bytes(frame: list[int]) -> bytes:
    """Pack 320 bits big-endian: frame bit 0 is the MSB of byte 0. A
    nonzero value packs as 1; one outside 0..255 raises ValueError."""
    data = _bit_bytes(frame, FRAME_BITS)
    return np.packbits(np.frombuffer(data, np.uint8)).tobytes()


def bytes_to_frame(data: bytes) -> list[int]:
    if len(data) != FRAME_BYTES:
        raise ValueError(f"expected {FRAME_BYTES} bytes, got {len(data)}")
    return np.unpackbits(np.frombuffer(data, np.uint8)).tolist()


# --- batch kernels -------------------------------------------------------------

_PRBS_ARRAY = np.array(_PRBS_FRAME, dtype=np.uint8)
_HEADER_ARRAY = np.array(_HEADER, np.uint8)


def frame_blocks(start: int, stop: int):
    """Consecutive ranges of at most BLOCK_FRAMES frame indices."""
    for lo in range(start, stop, BLOCK_FRAMES):
        yield range(lo, min(lo + BLOCK_FRAMES, stop))


def _parity(messages: np.ndarray) -> np.ndarray:
    """uint8[M, 20] parity bits of uint8[M, 135] message bits."""
    return default_parity_matrix().products(messages)


def encode_frames(info, encoder: str = "parallel") -> np.ndarray:
    """uint8[N, 320] frames from uint8[N, 270] info bits; row n equals
    build_frame(info[n]) whichever encoder computes the parity.
    `parallel` is one GF(2) matrix product on bits; `reference` (long
    division, `divide_block`) and `lfsr` (the shift-register recurrence,
    `shift_in_block`) each run 27 steps across all 2N codewords at once on
    GF(32) symbols. Each half then gets its 20 parity bits appended, and
    one gather by _TO_WIRE puts every encoder's codewords on the wire."""
    info = np.asarray(info, dtype=np.uint8)
    if info.ndim != 2 or info.shape[1] != INFO_BITS_PER_FRAME:
        raise ValueError(f"expected shape (N, {INFO_BITS_PER_FRAME}), got {info.shape}")
    n = len(info)
    halves = (info ^ _PRBS_ARRAY).reshape(2 * n, HALF_INFO_BITS)
    if encoder == "parallel":
        parity = _parity(halves)
    elif encoder in ("reference", "lfsr"):
        encode = divide_block if encoder == "reference" else shift_in_block
        parity = parity_by_symbols(encode, halves)
    else:
        raise ValueError(f"unknown encoder {encoder!r}")
    words = np.concatenate([halves, parity], axis=1)
    frames = np.empty((n, FRAME_BITS), np.uint8)
    frames[:, :HEADER_BITS] = _HEADER_ARRAY
    frames[:, HEADER_BITS:] = words.reshape(n, 2 * WORD_BITS)[:, _TO_WIRE]
    return frames


def frame_words(frames: np.ndarray) -> np.ndarray:
    """uint8[2N, 155]: codewords A and B of each frame in turn, in
    info/parity bit order, gathered off the wire by _FROM_WIRE."""
    return frames[:, HEADER_BITS:][:, _FROM_WIRE].reshape(2 * len(frames), WORD_BITS)


def decode_frames(frames) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch unframe: (info uint8[N, 270], ok bool[2N], nu int[2N],
    header_ok bool[N]), codewords A and B of each frame in turn. All 2N
    codewords go through `decode_words` together; ok is False exactly for
    the codewords decode reports uncorrectable, whose received message
    passes through, and nu is the number of symbols corrected."""
    frames = np.asarray(frames, dtype=np.uint8)
    if frames.ndim != 2 or frames.shape[1] != FRAME_BITS:
        raise ValueError(f"expected shape (N, {FRAME_BITS}), got {frames.shape}")
    header_ok = (frames[:, :HEADER_BITS] == _HEADER_ARRAY).all(axis=1)
    ok, bits, nu = decode_words(frame_words(frames))
    info = bits[:, :K_SYMBOLS].reshape(len(frames), INFO_BITS_PER_FRAME) ^ _PRBS_ARRAY
    return info, ok, nu, header_ok
