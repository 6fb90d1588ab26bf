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
info and `uint8[N, 320]` frames and turn each layer into one array
operation: scrambling is an XOR with the PRBS, parity and syndromes are
each the `products` of a LinearMap (the parity matrix, and the syndrome
map probed from compute_syndromes), and interleaving is one numpy gather
by the index.
`encode_frames` is where an encoder is chosen; all three give the same
frames, and each computes the parity by its own algorithm across the
block: the parity matrix product, or the 27 steps of long division
(`_divide`) or of the LFSR recurrence (`serial_encoder.shift_in_block`)
on GF(32) symbols, none calling a scalar encoder. Those two hold each
codeword's working symbols in one machine word, one byte per symbol, as
a table-driven software CRC holds its register, so a step is a few numpy
calls on M words and not on M x 5 bytes: on a block of 128 frames
(2-core Xeon) that cut `_divide` from about 300 us to 120 us.
`decode_frames` computes all syndromes in one product and corrects only
the dirty codewords, each by its syndrome class (`_correct`): the one
error pattern of weight <= 2 with those syndromes, if there is one, is
read from a table built on the first dirty block, one row at a time on
lists while there are at most _FEW_DIRTY, else in one gather. The message
stays in bits: each error value is XORed into its 5-bit group of the
received word, and neither form calls the scalar `decode`. The CLI and
the simulator feed the kernels in blocks of at most BLOCK_FRAMES frames,
which bounds their memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .decoder import CORRECTED, DecodeResult, decode
from .gf32 import MUL, gf_inv
from .parallel_encoder import message_to_bits, parity_bits
from .parallel_gen import (BITS_PER_SYMBOL, N_PARITY_BITS, LinearMap, bits_to_symbols,
                           default_parity_matrix, symbols_to_bits)
from .rs_core import GENERATOR_POLY, K_SYMBOLS, N_PARITY, N_SYMBOLS, compute_syndromes
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

WORD_BITS = N_SYMBOLS * BITS_PER_SYMBOL  # 155
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
    messages are converted back to bits."""
    if len(frame) != FRAME_BITS:
        raise ValueError(f"expected {FRAME_BITS} bits, got {len(frame)}")
    header_ok = list(frame[:HEADER_BITS]) == _HEADER
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
# One codeword's bits in info/parity order (bit 5*s + i is bit i of symbol
# s), as tables probed from the converter pair that owns that order.
_SYMBOL_BITS = np.array(symbols_to_bits(range(32)), np.uint8).reshape(32, BITS_PER_SYMBOL)
_BIT_WEIGHTS = np.array(bits_to_symbols(np.eye(BITS_PER_SYMBOL, dtype=int).ravel().tolist()),
                        np.float32)


def _as_words(table: np.ndarray) -> np.ndarray:
    """'<u8'[R] of a uint8[R, <= 8] table: byte d of word r is table[r, d],
    whatever the host's byte order."""
    padded = np.zeros((len(table), 8), np.uint8)
    padded[:, :table.shape[1]] = table
    return padded.view("<u8")[:, 0]


# GF(32) products and inverses as arrays, so field arithmetic over many
# codewords is a gather; the inverse of 0 reads as 0.
_INV = [0] + [gf_inv(a) for a in range(1, 32)]
_GF_MUL = np.array(MUL, np.uint8)
_GF_INV = np.array(_INV, np.uint8)
# Row q: q times g(x)'s coefficients x^0..x^4 (long division), and the
# same row packed with x^d in byte d.
_DIVISION_TAPS = _GF_MUL[:, GENERATOR_POLY]
_DIVISION_TAPS64 = _as_words(_DIVISION_TAPS)


def frame_blocks(start: int, stop: int):
    """Consecutive ranges of at most BLOCK_FRAMES frame indices."""
    for lo in range(start, stop, BLOCK_FRAMES):
        yield range(lo, min(lo + BLOCK_FRAMES, stop))


def _to_symbols(bits: np.ndarray) -> np.ndarray:
    """uint8 symbols from bits in info/parity order along the last axis:
    one float32 BLAS product (exact: its sums are at most 31)."""
    symbols = (bits.reshape(-1, BITS_PER_SYMBOL) @ _BIT_WEIGHTS).astype(np.uint8)
    return symbols.reshape(*bits.shape[:-1], bits.shape[-1] // BITS_PER_SYMBOL)


def _parity(messages: np.ndarray) -> np.ndarray:
    """uint8[M, 20] parity bits of uint8[M, 135] message bits."""
    return default_parity_matrix().products(messages)


def _divide(msg: np.ndarray) -> np.ndarray:
    """uint8[M, 31] codewords of uint8[M, 27] message symbols by long
    division, encode_reference's algorithm on all rows at once. Each row's
    window of 5 consecutive symbols is one uint64, the last in byte 0:
    step j brings down symbol j + 4 of m(x) x^4 and subtracts q * g(x)
    (packed as in _DIVISION_TAPS64) with q = symbol j, in byte 4, which
    clears it. After step 26 the window holds the remainder. The taps are
    read with `take`: indexing by a uint64 array casts it to intp first,
    which made the 27 steps 20-60% slower (2-core Xeon)."""
    dividend = np.zeros((N_SYMBOLS, len(msg)), np.uint64)
    dividend[:K_SYMBOLS] = msg.T
    work = np.ascontiguousarray(msg[:, :N_PARITY]).view(">u4")[:, 0].astype(np.uint64)
    for col in dividend[N_PARITY:]:
        work <<= 8
        work |= col
        work ^= _DIVISION_TAPS64.take(work >> 32)
    return np.concatenate([msg, work.astype(">u4").view(np.uint8).reshape(-1, N_PARITY)], axis=1)


def encode_frames(info, encoder: str = "parallel") -> np.ndarray:
    """uint8[N, 320] frames from uint8[N, 270] info bits; row n equals
    build_frame(info[n]) whichever encoder computes the parity.
    `parallel` is one GF(2) matrix product on bits; `reference` (long
    division) and `lfsr` (the shift-register recurrence) each run 27 steps
    across all 2N codewords at once on GF(32) symbols, a row's working
    symbols packed in one machine word, and only their 4 parity symbols
    are turned back into bits. Each half then gets its 20 parity bits
    appended, and one gather by _TO_WIRE puts every encoder's codewords on
    the wire."""
    info = np.asarray(info, dtype=np.uint8)
    if info.ndim != 2 or info.shape[1] != INFO_BITS_PER_FRAME:
        raise ValueError(f"expected shape (N, {INFO_BITS_PER_FRAME}), got {info.shape}")
    n = len(info)
    halves = (info ^ _PRBS_ARRAY).reshape(2 * n, HALF_INFO_BITS)
    if encoder == "parallel":
        parity = _parity(halves)
    elif encoder in ("reference", "lfsr"):
        encode = _divide if encoder == "reference" else shift_in_block
        parity = _SYMBOL_BITS.take(encode(_to_symbols(halves))[:, K_SYMBOLS:], axis=0)
        parity = parity.reshape(2 * n, N_PARITY_BITS)
    else:
        raise ValueError(f"unknown encoder {encoder!r}")
    words = np.concatenate([halves, parity], axis=1)
    frames = np.empty((n, FRAME_BITS), np.uint8)
    frames[:, :HEADER_BITS] = _HEADER_ARRAY
    frames[:, HEADER_BITS:] = words.reshape(n, 2 * WORD_BITS)[:, _TO_WIRE]
    return frames


@functools.cache
def _syndrome_map() -> LinearMap:
    """155 -> 20: output 5*i + b is bit b of syndrome S(i+1) of a codeword
    in info/parity bit order. Probed from compute_syndromes, row by row;
    syndromes are GF(2)-linear in the bits."""
    return LinearMap.probe(lambda words: [symbols_to_bits(compute_syndromes(w))
                                          for w in _to_symbols(words).tolist()], WORD_BITS)


# The key of a syndrome's class: S1..S4 divided by their lead (S1, or S2
# when S1 is 0), 5 bits each with S1 highest. S1/lead is 0 or 1, so keys
# are below 2^16; S1 = S2 = 0 reads as key 0 through the inverse of 0.
_KEY_WEIGHTS = np.array([1 << 15, 1 << 10, 1 << 5, 1])


def _class_of(synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lead, key), each int[D], of the syndromes S1..S4 in int[D, 4]."""
    lead = np.where(synd[:, 0] != 0, synd[:, 0], synd[:, 1])
    return lead, _GF_MUL[_GF_INV[lead][:, None], synd] @ _KEY_WEIGHTS


@functools.cache
def _correction_table() -> np.ndarray:
    """uint8[2^16, 4]: at each key, (first, y1, last, y2) of the error
    pattern of weight 1 or 2 whose syndromes divided by their lead have
    that key, values y1 at position first and y2 at last (first < last, or
    y2 = 0 and first == last); all 0 where there is none.

    Scaling a pattern by c scales its syndromes by c, so each class holds
    one pattern with y1 = 1: the 31 single errors and 465 * 31 pairs, with
    syndromes powers[first] + y2 * powers[last] (powers[j]: value 1 at j).
    A nonzero pattern of weight <= 2 has S1 or S2 nonzero: key 0 is empty."""
    powers = _to_symbols(_syndrome_map().array[::BITS_PER_SYMBOL])
    j1, j2, y2 = np.indices((N_SYMBOLS, N_SYMBOLS, 32), np.uint8)
    keep = np.where(j1 == j2, y2 == 0, (j1 < j2) & (y2 > 0))
    j1, j2, y2 = j1[keep], j2[keep], y2[keep]
    lead, key = _class_of(powers[j1] ^ _GF_MUL[y2[:, None], powers[j2]])
    inv = _GF_INV[lead]
    table = np.zeros((1 << 16, 4), np.uint8)
    table[key] = np.stack([j1, inv, j2, _GF_MUL[inv, y2]], axis=1)
    return table


# Dirty codewords up to which `_correct` solves each row on its own
# (`_lookup_lists` and per-row writes), not in table gathers
# (`_lookup_arrays` and fancy-index writes); both see only the dirty rows,
# so one count serves any block size. `_correct` on 16 codewords with D of
# them dirty, per-row against array form (us, median of five runs of the
# min of 300 x 20 calls, 2-core Xeon):
#
#     D     0     1     2     4     8    10    11    12    14    16
#   row    13    18    19    23    35    38    42    38    44    50
#   array  19    41    40    43    40    42    42    41    41    43
#
# Per-row adds about 2.3 us a dirty row, the array form about 28 us at any
# count: per-row is faster up to 10, level at 11 and 12, slower from 14.
_FEW_DIRTY = 12


def _correct(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode uint8[M, 155] codewords in info/parity bit order:
    (ok bool[M], bits uint8[M, 31, 5], nu int[M]).

    One product gives the syndromes of all rows; a row with zero syndrome
    is clean and costs nothing more. A dirty row gets the error pattern of
    weight <= 2 with its syndromes from `_correction_table`, and is
    uncorrectable if there is none. For at most _FEW_DIRTY dirty rows the
    lookup is `_lookup_lists`, and each row's fix is written on its own
    (its nu and its two 5-bit groups, or ok False); for more, the lookup
    is `_lookup_arrays` and the fixes are written by fancy indexing. bits
    is a copy of words, one 5-bit group per symbol, with each error value
    XORed into its group. ok is False only for the codewords decode reports
    uncorrectable, which stay as received; nu is the number of symbols
    corrected. Row for row this is what decode returns."""
    synd = _to_symbols(_syndrome_map().products(words))
    rows = np.flatnonzero(synd.any(axis=1))
    ok, nu = np.ones(len(words), bool), np.zeros(len(words), int)
    bits = words.reshape(-1, N_SYMBOLS, BITS_PER_SYMBOL).copy()
    if not len(rows):
        return ok, bits, nu
    if len(rows) <= _FEW_DIRTY:
        for r, (fix_nu, first, y1, last, y2) in zip(rows.tolist(),
                                                    _lookup_lists(synd[rows].tolist())):
            if fix_nu:
                nu[r] = fix_nu
                bits[r, first] ^= _SYMBOL_BITS[y1]
                bits[r, last] ^= _SYMBOL_BITS[y2]
            else:
                ok[r] = False
        return ok, bits, nu
    fix_nu, first, y1, last, y2 = _lookup_arrays(synd[rows])
    ok[rows], nu[rows] = fix_nu > 0, fix_nu
    bits[rows, first] ^= _SYMBOL_BITS[y1]
    bits[rows, last] ^= _SYMBOL_BITS[y2]
    return ok, bits, nu


def _lookup_arrays(synd: np.ndarray) -> tuple[np.ndarray, ...]:
    """(nu, first, y1, last, y2), each [D], of the nonzero uint8[D, 4]
    syndromes of D dirty rows: their table entries, the values times their
    lead, and nu the number of nonzero values (0 if uncorrectable). The
    syndromes are cast to intp first: numpy gathers faster by intp indices
    than by uint8 ones."""
    lead, key = _class_of(synd.astype(np.intp))
    first, y1, last, y2 = _correction_table()[key].T
    return (y1 > 0) + (y2 > 0).astype(int), first, _GF_MUL[lead, y1], last, _GF_MUL[lead, y2]


def _lookup_lists(synd: list[list[int]]) -> list[tuple[int, int, int, int, int]]:
    """`_lookup_arrays` one row at a time, on lists and a flat memoryview of
    the table (entry k is items 4k..4k+3), cheaper per item than numpy."""
    table = memoryview(_correction_table()).cast("B")
    fixes = []
    for s1, s2, s3, s4 in synd:
        lead = s1 or s2
        m, scale = MUL[_INV[lead]], MUL[lead]
        at = 4 * (m[s1] << 15 | m[s2] << 10 | m[s3] << 5 | m[s4])
        first, y1, last, y2 = table[at:at + 4]
        fixes.append(((y1 > 0) + (y2 > 0), first, scale[y1], last, scale[y2]))
    return fixes


def decode_frames(frames) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch unframe: (info uint8[N, 270], ok bool[2N], nu int[2N],
    header_ok bool[N]), codewords A and B of each frame in turn. All 2N
    codewords go through `_correct` together; ok is False exactly for the
    codewords decode reports uncorrectable, whose received message passes
    through, and nu is the number of symbols corrected."""
    frames = np.asarray(frames, dtype=np.uint8)
    if frames.ndim != 2 or frames.shape[1] != FRAME_BITS:
        raise ValueError(f"expected shape (N, {FRAME_BITS}), got {frames.shape}")
    n = len(frames)
    header_ok = (frames[:, :HEADER_BITS] == _HEADER_ARRAY).all(axis=1)
    ok, bits, nu = _correct(frames[:, HEADER_BITS:][:, _FROM_WIRE].reshape(2 * n, WORD_BITS))
    info = bits[:, :K_SYMBOLS].reshape(n, INFO_BITS_PER_FRAME) ^ _PRBS_ARRAY
    return info, ok, nu, header_ok
