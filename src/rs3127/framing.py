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
codeword B], and `_FROM_WIRE` inverts it. `interleave`/`deinterleave`
gather by it, and all else moves each symbol as the 5-bit frame field
read off it (`_SYMBOL_FIELDS`). Its independent oracles are
`interleave_reference` and `frame_reference` in the tests.

`build_frame`/`unframe` work on one frame as a 320-bit int: build_frame
XORs one `_frame_table` entry per scrambled info byte, as table-driven
CRCs do (Sarwate, CACM 1988).

The batch kernels work on bytes; none unpacks a bit. The field codec,
`_encode_fields`, reads the scrambled info's 54 message symbols as 5-bit
fields (`_read_fields`), runs a block encoder on all 2N messages, and
writes the header and the 62 symbols as fields of the wire bytes
(`_write_fields`); `encode_frames` runs it for `reference` and `lfsr`.
With `parallel`, record bytes to wire bytes is one GF(2)-affine map, so
it is read off one probe, `_unit_frames`: the field codec through
`xor_block` on the zero record and the 270 unit-bit records. Two spans
of its columns serve the two chains: `_wire_table`, an array that makes
a block one gather and one reduction, and `_frame_table`, Python ints,
so the scalar chain builds no array. `decode_frames` is its inverse:
header, syndromes and clean info are XORs of byte-table entries
(`_byte_tables`), the dirty codewords are looked up in one
`decoder.block_fixes` call, and each fix is a mask of record bytes.
Both refuse a value that is not a byte (`_byte_records`). The CLI and
the simulator call them on blocks of at most BLOCK_FRAMES frames.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .decoder import DecodeResult, _syndrome_columns, block_fixes, decode
from .parallel_gen import (BITS_PER_SYMBOL, N_PARITY_BITS, SYMBOL_BITS, WORD_BITS, bits_to_symbols,
                           default_parity_matrix, span, symbols_to_bits)
from .rs_core import K_SYMBOLS, N_SYMBOLS, divide_block
from .serial_encoder import shift_in_block

FRAME_BITS = 320
HEADER_BITS = 10
PAYLOAD_BITS = 310
INFO_BITS_PER_FRAME = 270
HALF_INFO_BITS = 135
FRAME_BYTES = 40

DEFAULT_SYNC_HEADER = 0b1101010010

# Frames per kernel call in the CLI and the simulator, which bounds their
# memory. On a 4,096-frame file CLI encode took 1.17, 0.85, 0.69 and 0.58 us
# a frame, clean decode 0.79, 0.50, 0.39 and 0.35, at 64, 128, 256 and 512
# (2-core Xeon): numpy's cost per call. 128 stays, as _FEW_FLIPS is tuned at it.
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
# A frame is 64 5-bit fields, MSB first: the header is fields 0 and 1, and
# symbol s of [codeword A | codeword B] is field _SYMBOL_FIELDS[s], so of a
# frame as one 320-bit int (bit 0 its MSB) it is `frame >> _SYMBOL_SHIFTS[s] & 31`.
FRAME_FIELDS = FRAME_BITS // BITS_PER_SYMBOL
_SYMBOL_FIELDS = 2 + _FROM_WIRE[::BITS_PER_SYMBOL] // BITS_PER_SYMBOL
_SYMBOL_SHIFTS = (FRAME_BITS - BITS_PER_SYMBOL * (1 + _SYMBOL_FIELDS)).tolist()
# 0/1 bytes to binary digits and back; every other byte becomes "x", which
# int(..., 2) rejects (a space, "_" or "+" could be read as part of a number).
_TO_DIGITS = b"01" + b"x" * 254
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")
# The five bits of each symbol in info/parity order, one byte each.
_SYMBOL_BYTES = [row.tobytes() for row in SYMBOL_BITS]
# The info packs into 34 bytes of a record, 2 zero bits after it.
INFO_BYTES = -(-INFO_BITS_PER_FRAME // 8)
_PAD_BITS = 8 * INFO_BYTES - INFO_BITS_PER_FRAME


def _bit_bytes(bits, size: int) -> bytearray:
    """The values of `size` bits, one byte each, from a list or tuple of
    ints or from an array (through its tolist). A value outside 0..255 or
    not an int (a float included) raises ValueError("bits must be 0 or
    1"), as bytearray() refuses it; `scramble` and `_packed` also reject
    2..255, and `frame_to_bytes` packs them as 1."""
    if len(bits) != size:
        raise ValueError(f"expected {size} bits, got {len(bits)}")
    try:
        return bytearray(bits.tolist() if isinstance(bits, np.ndarray) else bits)
    except (TypeError, ValueError):
        raise ValueError("bits must be 0 or 1") from None


def _packed(bits, size: int) -> int:
    """`size` bits as one int, bits[0] the MSB; ValueError("bits must be 0
    or 1") for any other value, a float included."""
    digits = _bit_bytes(bits, size).translate(_TO_DIGITS)
    try:
        return int(digits, 2)
    except ValueError:
        raise ValueError("bits must be 0 or 1") from None


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


@functools.cache
def _unit_frames() -> np.ndarray:
    """uint8[271, 40]: the frames of the zero record and of the 270
    unit-bit records (row 1 + k has info bit k set) through `xor_block`,
    the probe that `_wire_table` and `_frame_table` are spanned from."""
    units = np.packbits(np.eye(1 + INFO_BITS_PER_FRAME, INFO_BITS_PER_FRAME, -1, np.uint8), axis=1)
    return _encode_fields(units, xor_block)


@functools.cache
def _frame_table() -> list[list[int]]:
    """34 rows of 256 frames as ints: entry [j][v] is the frame part of
    scrambled info byte j holding v (info bit 8*j + 7 - b is bit b of v,
    and bits 270, 271 are 0), with the header in every entry of row 0, so
    a frame is the XOR of one entry per byte. Each row is built by
    doubling from 8 columns, a unit frame XOR the zero frame each
    (`_unit_frames`); the scrambled zero info's frame is the header."""
    zero, *ints = [int.from_bytes(row, "big") for row in _unit_frames()]
    columns = [column ^ zero for column in ints] + [0] * _PAD_BITS
    table = []
    for j in range(INFO_BYTES):
        row = [0 if j else DEFAULT_SYNC_HEADER << PAYLOAD_BITS]
        for column in reversed(columns[8 * j:8 * j + 8]):
            row += [r ^ column for r in row]
        table.append(row)
    return table


def build_frame(info: list[int]) -> list[int]:
    """Scramble, pack the scrambled bits into 34 bytes, and XOR one
    `_frame_table` entry per byte: the header and both codewords on the
    wire, each half (the first is codeword A) with its parity. scramble
    checks the length and the values."""
    scrambled = _packed(scramble(info), INFO_BITS_PER_FRAME) << _PAD_BITS
    frame = 0
    for row, byte in zip(_frame_table(), scrambled.to_bytes(INFO_BYTES, "big")):
        frame ^= row[byte]
    return list(format(frame, f"0{FRAME_BITS}b").encode().translate(_FROM_DIGITS))


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
    unmodified. The frame is packed into one int once, each symbol of both
    codewords is a shift and a mask of it (`_SYMBOL_SHIFTS`), and the
    scrambled info is decode's two messages, each symbol's five bits
    joined as bytes. A value other than 0 or 1 anywhere raises
    ValueError."""
    packed = _packed(frame, FRAME_BITS)
    symbols = [packed >> shift & 31 for shift in _SYMBOL_SHIFTS]
    res_a = decode(symbols[:N_SYMBOLS])
    res_b = decode(symbols[N_SYMBOLS:])
    scrambled = b"".join([_SYMBOL_BYTES[v] for v in res_a.message + res_b.message])
    header_ok = packed >> PAYLOAD_BITS == DEFAULT_SYNC_HEADER
    return UnframeResult(descramble(scrambled), res_a, res_b, header_ok)


def frame_to_bytes(frame: list[int]) -> bytes:
    """Pack 320 bits big-endian: frame bit 0 is the MSB of byte 0. A
    nonzero value packs as 1; one outside 0..255, or a float, raises
    ValueError("bits must be 0 or 1")."""
    data = _bit_bytes(frame, FRAME_BITS)
    return np.packbits(np.frombuffer(data, np.uint8)).tobytes()


def bytes_to_frame(data: bytes) -> list[int]:
    if len(data) != FRAME_BYTES:
        raise ValueError(f"expected {FRAME_BYTES} bytes, got {len(data)}")
    return np.unpackbits(np.frombuffer(data, np.uint8)).tolist()


# --- batch kernels -------------------------------------------------------------

# The PRBS packed as decode_frames packs the info: uint8[34].
PRBS_BYTES = np.packbits(_PRBS_FRAME)

# Record field j holds message symbol j of A, then of B, bit-reversed (info
# bit 5j + i is bit i of symbol j): _RECORD_FIELD maps either to the other.
_RECORD_FIELD = np.packbits(SYMBOL_BITS, axis=1)[:, 0] >> 8 - BITS_PER_SYMBOL
# Field f starts in byte _FIELD_BYTE[f] and is bits _FIELD_SHIFT[f].. of the
# 16-bit window of that byte and the next.
_FIELD_BYTE, _FIELD_SHIFT = np.divmod(BITS_PER_SYMBOL * np.arange(FRAME_FIELDS), 8)
_FIELD_SHIFT = (16 - BITS_PER_SYMBOL - _FIELD_SHIFT).astype(np.uint16)[:, None]
_SYMBOL_ROWS = (np.arange(K_SYMBOLS, dtype=np.uint16) << BITS_PER_SYMBOL)[:, None]  # flat table

# Flat index of byte value 0 in row b of a [40, 256] table, one row per
# frame byte, as uint16: int64 offsets would promote the whole index array.
_BYTE_OFFSETS = (np.arange(FRAME_BYTES, dtype=np.uint16) << 8)[:, None]
# Bits of one packed syndrome, and the mask that takes it.
_SYNDROME_BITS = 4 * BITS_PER_SYMBOL
_SYNDROME_MASK = (1 << _SYNDROME_BITS) - 1


def frame_blocks(start: int, stop: int):
    """Consecutive ranges of at most BLOCK_FRAMES frame indices."""
    for lo in range(start, stop, BLOCK_FRAMES):
        yield range(lo, min(lo + BLOCK_FRAMES, stop))


def _read_fields(by_byte: np.ndarray, count: int) -> np.ndarray:
    """uint8[count, N]: the first `count` 5-bit fields, MSB first, of N
    records given byte-major, uint8[B, N], each shifted out of the 16-bit
    window of its first byte and the next; one starting in the last byte ends there."""
    windows = by_byte.astype(np.uint16, order="C") << 8
    windows[:-1] |= by_byte[1:]
    return (windows.take(_FIELD_BYTE[:count], axis=0) >> _FIELD_SHIFT[:count] & 31).astype(np.uint8)


def _write_fields(fields: np.ndarray) -> np.ndarray:
    """The inverse of _read_fields: uint8[ceil(5F / 8), N] holding fields
    uint8[F, N], any bits after the last 0. No two even fields start in
    one byte, nor two odd ones, so two assignments sum the 16-bit windows
    starting at each byte; a byte is the high half of its sum and the low
    half of the one before."""
    windows = fields.astype(np.uint16) << _FIELD_SHIFT[:len(fields)]
    starts = np.zeros((-(-BITS_PER_SYMBOL * len(fields) // 8), fields.shape[1]), np.uint16)
    starts[_FIELD_BYTE[:len(fields):2]] = windows[0::2]
    starts[_FIELD_BYTE[1:len(fields):2]] |= windows[1::2]
    out = (starts >> 8).astype(np.uint8)
    out[1:] |= starts[:-1].astype(np.uint8)
    return out


def _byte_records(data, width: int) -> np.ndarray:
    """uint8[N, width] of an array or nested lists of bytes; ValueError for
    another shape, a dtype that is not an integer one (a float, a bool) or a
    value outside 0..255. A uint8 array passes after one dtype test."""
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[1] != width:
        raise ValueError(f"expected shape (N, {width}), got {data.shape}")
    if data.dtype != np.uint8:
        if data.dtype.kind not in "iu":
            raise ValueError(f"expected integer bytes, got dtype {data.dtype}")
        if data.size and (data.min() < 0 or data.max() > 255):
            raise ValueError("bytes must be in 0..255")
        data = data.astype(np.uint8)
    return data


def xor_block(msg: np.ndarray) -> np.ndarray:
    """uint8[M, 31] codewords of uint8[M, 27] message symbols: a row's 20
    parity bits are the XOR of the parity matrix's `symbol_table` entries
    of its symbols, parity symbol s their bits 5s..5s+4."""
    table = default_parity_matrix().symbol_table
    parity = np.bitwise_xor.reduce(table.take(msg.T + _SYMBOL_ROWS), axis=0)[:, None]
    parity = parity >> np.arange(0, N_PARITY_BITS, BITS_PER_SYMBOL, dtype=np.uint32) & 31
    return np.concatenate([msg, parity.astype(np.uint8)], axis=1)


def _encode_fields(info: np.ndarray, encode) -> np.ndarray:
    """encode_frames of checked info bytes through the field codec and
    the block encoder `encode`."""
    n = len(info)
    fields = _read_fields((info ^ PRBS_BYTES).T, 2 * K_SYMBOLS)
    words = encode(_RECORD_FIELD.take(fields.T).reshape(2 * n, K_SYMBOLS))
    frame_fields = np.empty((FRAME_FIELDS, n), np.uint8)
    frame_fields[0], frame_fields[1] = divmod(DEFAULT_SYNC_HEADER, 1 << BITS_PER_SYMBOL)
    frame_fields[_SYMBOL_FIELDS] = words.reshape(n, 2 * N_SYMBOLS).T
    return np.ascontiguousarray(_write_fields(frame_fields).T)


@functools.cache
def _wire_table() -> tuple[np.ndarray, np.ndarray]:
    """(uint64[34 * 256, 5], uint64[5]): entry 256 * j + v is the wire
    bytes, as five words, that record byte j holding v XORs into a frame
    (info bit 8*j + 7 - b is bit b of v), spanned from `_unit_frames`;
    the base is the zero record's frame."""
    frames = _unit_frames()
    columns = np.zeros((8 * INFO_BYTES, FRAME_BYTES), np.uint8)
    columns[:INFO_BITS_PER_FRAME] = frames[1:] ^ frames[0]
    table = span(columns.reshape(INFO_BYTES, 8, FRAME_BYTES)[:, ::-1])
    return table.view(np.uint64).reshape(-1, FRAME_BYTES // 8), frames[0].view(np.uint64)


def encode_frames(info, encoder: str = "parallel") -> np.ndarray:
    """uint8[N, 40] wire bytes from uint8[N, 34] info bytes as decode_frames
    returns them (bits 270, 271 zero): row n is build_frame of row n's
    bits, packed. `parallel` is one gather and one reduction over
    `_wire_table`; `reference` and `lfsr` run long division
    (`divide_block`) or the shift register (`shift_in_block`) on all 2N
    messages at once through the field codec (`_encode_fields`)."""
    info = _byte_records(info, INFO_BYTES)
    if (info[:, -1] & (1 << _PAD_BITS) - 1).any():
        raise ValueError(f"info bits {INFO_BITS_PER_FRAME}..{8 * INFO_BYTES - 1} must be 0")
    if encoder == "parallel":
        table, base = _wire_table()
        parts = table.take(info.T + _BYTE_OFFSETS[:INFO_BYTES], axis=0)
        return (np.bitwise_xor.reduce(parts, axis=0) ^ base).view(np.uint8)
    encode = {"reference": divide_block, "lfsr": shift_in_block}.get(encoder)
    if encode is None:
        raise ValueError(f"unknown encoder {encoder!r}")
    return _encode_fields(info, encode)


@functools.cache
def flip_table() -> list:
    """Per frame bit, what flipping it does: None for a header bit, else
    (half, column, symbol, value). The bit lies in codeword A (half 0) or
    B (half 1), it XORs value into the symbol at index symbol, and column
    into that codeword's packed syndromes: the decoder's
    `_syndrome_columns` entry of that value at that symbol. Probed on the
    unit frames by the field reader, so _TO_WIRE states the layout once."""
    units = np.packbits(np.eye(FRAME_BITS, dtype=np.uint8), axis=1).T
    symbols = _read_fields(units, FRAME_FIELDS)[_SYMBOL_FIELDS]  # [62, frame bit]
    at = symbols.argmax(axis=0)
    values = symbols[at, np.arange(FRAME_BITS)]
    columns = _syndrome_columns()
    return [(s // N_SYMBOLS, columns[s % N_SYMBOLS][v], s % N_SYMBOLS, v) if v else None
            for s, v in zip(at.tolist(), values.tolist())]


def _byte_rows(effects: np.ndarray) -> np.ndarray:
    """[40, 256, X] from the effects [320, X] of single frame bits: frame
    bit 8b + i is bit 7 - i of the value of byte b."""
    return span(effects.reshape(FRAME_BYTES, 8, -1)[:, ::-1])


@dataclass(frozen=True)
class _ByteTables:
    """decode_frames' tables (see `_byte_tables`). The flat ones are
    [rows, 256] tables raveled, indexed by 256 * row + byte value."""

    syndromes: np.ndarray   # uint64[40 * 256]: header << 40 | A's packed syndrome << 20 | B's
    info_from: np.ndarray   # intp[P]: the frame byte of each (record byte, frame byte) pair
    info_at: np.ndarray     # uint16[P, 1]: 256 * p, the offset of pair p's row
    info: np.ndarray        # uint8[P * 256]: [p, v], the record byte bits of pair p
    info_slots: tuple       # (start, stop) of the pairs of each slot
    info_order: np.ndarray  # intp[34]: the row of each record byte in the slots
    masks: np.ndarray       # uint8[2 * 31 * 32, 34]: [c, j, y], a fix in record bytes


@functools.cache
def _byte_tables() -> _ByteTables:
    """The maps from the 40 wire bytes of a frame, probed from the layout
    and built once, on the first decode_frames call.

    The header, the syndromes and the clean info of a frame are
    GF(2)-affine in its bits, so each is the XOR of one table entry per
    frame byte, as table-driven software CRCs are (Sarwate, CACM 1988).
    All are probed on the unit frames: the header bits at their place
    in DEFAULT_SYNC_HEADER, the syndromes and info bits through
    `flip_table`. A record byte's bits come from 2 to 4 frame bytes, so the
    info table keeps only those 105 (record byte, frame byte) pairs, with
    the PRBS XORed into each record byte's first pair. Slot s holds the
    s-th pair of each record byte that has one, record bytes with more
    pairs first, so summing a slot into the first is a slice. A fix of
    value y at symbol j of codeword c flips the info bits of that
    symbol's frame bits selected by y (their `flip_table` values), so its
    mask is the XOR of their packed info; parity symbols have none."""
    effects = flip_table()
    synd = [1 << 2 * _SYNDROME_BITS + HEADER_BITS - 1 - bit if bit < HEADER_BITS else
            e[1] << _SYNDROME_BITS * (1 - e[0]) for bit, e in enumerate(effects)]
    # [31c + j, i]: bit i of symbol j of codeword c in record bytes, none for parity
    symbol_bits = np.zeros((2 * N_SYMBOLS, BITS_PER_SYMBOL, INFO_BYTES), np.uint8)
    symbol_bits.reshape(2, N_SYMBOLS, -1)[:, :K_SYMBOLS] = np.packbits(
        np.eye(INFO_BITS_PER_FRAME, dtype=np.uint8), axis=1).reshape(2, K_SYMBOLS, -1)
    info_bytes = np.zeros((FRAME_BITS, INFO_BYTES), np.uint8)
    for bit, e in enumerate(effects):
        if e is not None:
            info_bytes[bit] = symbol_bits[N_SYMBOLS * e[0] + e[2], e[3].bit_length() - 1]
    info_rows = _byte_rows(info_bytes)
    used = info_rows.any(axis=1).T  # [34, 40]: the (record byte, frame byte) pairs
    counts = used.sum(axis=1)
    order = np.argsort(-counts, kind="stable")
    pairs, slots = [], []
    for rank in range(counts.max()):
        slot = [(r, np.flatnonzero(used[r])[rank]) for r in order if counts[r] > rank]
        slots.append((len(pairs), len(pairs) + len(slot)))
        pairs += slot
    record, source = np.array(pairs).T
    info = info_rows[source, :, record]
    info[:INFO_BYTES] ^= PRBS_BYTES[order, None]  # the zero frame's info
    return _ByteTables(_byte_rows(np.array(synd, np.uint64)[:, None]).ravel(), source,
                       (np.arange(len(source), dtype=np.uint16) << 8)[:, None], info.ravel(),
                       tuple(slots), np.argsort(order), span(symbol_bits).reshape(-1, INFO_BYTES))


def _clean_info(by_byte: np.ndarray, tables: _ByteTables) -> np.ndarray:
    """uint8[N, 34]: the info of frames given byte-major, uint8[40, N], as
    if no codeword had an error: per record byte, the XOR of one
    `tables.info` entry per pair, summed slot by slot into the first."""
    parts = tables.info.take(by_byte[tables.info_from] + tables.info_at)
    sums = parts[:INFO_BYTES]
    for start, stop in tables.info_slots[1:]:
        sums[:stop - start] ^= parts[start:stop]
    return np.ascontiguousarray(sums[tables.info_order].T)


def decode_frames(frames) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch unframe on wire bytes: uint8[N, 40] frames, as a 40-byte
    record each (frame bit 0 the MSB of byte 0), to (info uint8[N, 34],
    ok bool[2N], nu int[2N], header_ok bool[N]), codewords A and B of each
    frame in turn. info holds each frame's 270 info bits packed the same
    way, the last 2 bits 0. ok is False exactly for the codewords decode
    reports uncorrectable, whose received message passes through, and nu
    is the number of symbols corrected.

    Each step is a gather of `_byte_tables` by the frame bytes: the
    header and the packed syndromes of both codewords are the XOR of one
    entry per frame byte, the clean info the XOR of one entry per (record
    byte, frame byte) pair, read from a byte-major copy so that each
    gather takes a row. The dirty codewords are looked up all at once
    (`decoder.block_fixes`), and each fix is two masks XORed into its
    frame's info. No step unpacks a bit."""
    frames = _byte_records(frames, FRAME_BYTES)
    tables = _byte_tables()
    by_byte = np.ascontiguousarray(frames.T)
    pairs = np.bitwise_xor.reduce(tables.syndromes.take(by_byte + _BYTE_OFFSETS), axis=0)
    header_ok = pairs >> 2 * _SYNDROME_BITS == DEFAULT_SYNC_HEADER
    synd = np.empty(2 * len(frames), np.int64)
    synd[0::2], synd[1::2] = pairs >> _SYNDROME_BITS & _SYNDROME_MASK, pairs & _SYNDROME_MASK
    info = _clean_info(by_byte, tables)
    ok, nu, rows, first, y1, last, y2 = block_fixes(synd)
    if len(rows):
        base = (rows & 1) * (N_SYMBOLS << BITS_PER_SYMBOL)
        fixes = tables.masks.take(base + 32 * first + y1, axis=0)
        fixes ^= tables.masks.take(base + 32 * last + y2, axis=0)
        errors = np.zeros((len(synd), INFO_BYTES), np.uint8)
        errors[rows] = fixes
        info ^= errors[0::2] ^ errors[1::2]
    return info, ok, nu, header_ok
