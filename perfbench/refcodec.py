"""Independent model of the rs3127 frame format, used only to make and
check benchmark inputs and outputs.

It shares no code with the package under test: field products come from
shift-and-reduce, parity from long division written here, and the frame
layout from the documented format (10-bit header 1101010010, additive
x^7 + x^6 + 1 scrambler reseeded to all-ones per frame over the 270 info
bits, two RS(31,27) codewords whose 5-bit symbols alternate MSB first,
info bit 5j + i = bit i of message symbol j).

Arrays of bits are numpy uint8, one bit per element.
"""

from __future__ import annotations

import numpy as np

PRIM = 0x25
FRAME_BITS = 320
FRAME_BYTES = 40
HEADER_BITS = 10
INFO_BITS = 270
HALF_BITS = 135
N_SYM = 31
K_SYM = 27
HEADER = np.array([1, 1, 0, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)


def gf_mul(a: int, b: int) -> int:
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        b >>= 1
        a <<= 1
        if a & 0x20:
            a ^= PRIM
    return prod


def _generator() -> list[int]:
    """g(x) = prod_{i=1..4} (x + alpha^i), ascending coefficients."""
    g, root = [1], 1
    for _ in range(4):
        root = gf_mul(root, 2)
        g = [(g[d - 1] if d else 0) ^ (gf_mul(root, g[d]) if d < len(g) else 0)
             for d in range(len(g) + 1)]
    return g


GEN = _generator()
_MUL = [[gf_mul(a, b) for b in range(32)] for a in range(32)]


def rs_encode(msg: list[int]) -> list[int]:
    """Systematic codeword, index 0 = highest-degree term, parity last."""
    rem = [0, 0, 0, 0]  # rem[d] = coefficient of x^d
    for m in msg:
        row = _MUL[m ^ rem[3]]
        rem = [row[GEN[0]], rem[0] ^ row[GEN[1]], rem[1] ^ row[GEN[2]], rem[2] ^ row[GEN[3]]]
    return list(msg) + rem[::-1]


def _prbs(n: int) -> np.ndarray:
    reg, out = [1] * 7, []
    for _ in range(n):
        out.append(reg[0])
        reg = reg[1:] + [reg[0] ^ reg[1]]
    return np.array(out, dtype=np.uint8)


PRBS = _prbs(INFO_BITS)
_LSB_WEIGHTS = 1 << np.arange(5)
_MSB_SHIFTS = np.arange(4, -1, -1)


def build_frames(info: np.ndarray) -> np.ndarray:
    """(n, 270) info bits -> (n, 320) frame bits."""
    halves = (info ^ PRBS).reshape(len(info), 2, K_SYM, 5)
    msgs = (halves * _LSB_WEIGHTS).sum(axis=3)
    words = np.array([[rs_encode(m) for m in pair] for pair in msgs.tolist()],
                     dtype=np.int64).reshape(len(info), 2, N_SYM)
    sym_bits = (words[..., None] >> _MSB_SHIFTS) & 1  # (n, 2, 31, 5)
    payload = sym_bits.transpose(0, 2, 1, 3).reshape(len(info), 310)
    header = np.broadcast_to(HEADER, (len(info), HEADER_BITS))
    return np.concatenate([header, payload], axis=1).astype(np.uint8)


def passthrough_info(frames: np.ndarray) -> np.ndarray:
    """Info bits a receiver returns when it leaves both message regions as
    received: (n, 320) frame bits -> (n, 270)."""
    sym_bits = frames[:, HEADER_BITS:].reshape(len(frames), N_SYM, 2, 5)
    msg_bits = sym_bits[:, :K_SYM, :, ::-1].transpose(0, 2, 1, 3)
    return msg_bits.reshape(len(frames), INFO_BITS) ^ PRBS


def symbol_weights(flips: np.ndarray) -> np.ndarray:
    """(n, 320) flip mask -> (n, 2) count of corrupted symbols in codeword A, B."""
    sym = flips[:, HEADER_BITS:].reshape(len(flips), N_SYM, 2, 5).any(axis=3)
    return sym.sum(axis=1)


def to_bytes(bits: np.ndarray) -> bytes:
    """(n, 320) bits -> n * 40 bytes, bit 0 = MSB of byte 0."""
    return np.packbits(bits, axis=1).tobytes()


def from_bytes(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).reshape(-1, FRAME_BITS)


def records(info: np.ndarray) -> np.ndarray:
    """(n, 270) info bits -> (n, 320) payload-record bits (50 zero pad bits)."""
    return np.concatenate([info, np.zeros((len(info), FRAME_BITS - INFO_BITS), np.uint8)], axis=1)
