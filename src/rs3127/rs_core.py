"""RS(31,27) code definition and the reference systematic encoder, long
division on one message (`encode_reference`) and on a block of them at
once (`divide_block`, the frame kernels' `reference` encoder).

Symbol order: codeword index j carries the coefficient of x^(30-j), so
index 0 is the highest-degree term and is transmitted first; the four
parity symbols occupy indices 27..30. The generator polynomial has roots
alpha^1..alpha^4 (narrow-sense construction).
"""

from __future__ import annotations

import numpy as np

from .gf32 import ALPHA, EXP, FIELD_SIZE, GROUP_ORDER, MUL, gf_pow

N_SYMBOLS = 31
K_SYMBOLS = 27
N_PARITY = N_SYMBOLS - K_SYMBOLS  # 4
T_CORRECT = N_PARITY // 2  # 2
FIRST_ROOT = 1
_SYMBOLS = bytes(range(FIELD_SIZE))


def build_generator_poly() -> list[int]:
    """Expand g(x) = prod_{i=1..4} (x - alpha^i); index d is the x^d term.

    In characteristic 2 each factor is (x + alpha^i). The result is monic
    of degree 4.
    """
    g = [1]
    for i in range(FIRST_ROOT, FIRST_ROOT + N_PARITY):
        root = gf_pow(ALPHA, i)
        nxt = [0] * (len(g) + 1)
        for d, c in enumerate(g):
            nxt[d + 1] ^= c
            nxt[d] ^= MUL[c][root]
        g = nxt
    return g


GENERATOR_POLY = build_generator_poly()


def check_symbols(word, size: int, name: str) -> None:
    """ValueError, calling word a `name`, unless it has `size` symbols in 0..31,
    each an int, a numpy int or a bool: bytes() takes those and refuses a float
    (1.0 == 1 passes a set test), and deleting 0..31 from its bytes leaves
    nothing. Anything but a list goes through one, or bytes() would read an
    array's memory. 0.6 us on 31 symbols, a set test 0.5 (2-core Xeon)."""
    if len(word) != size:
        raise ValueError(f"{name} must have {size} symbols, got {len(word)}")
    try:
        outside = bytes(word if type(word) is list else list(word)).translate(None, _SYMBOLS)
    except (TypeError, ValueError):
        outside = True
    if outside:
        raise ValueError(f"{name} symbols must be in 0..{FIELD_SIZE - 1}")


def encode_reference(msg: list[int]) -> list[int]:
    """Systematic encode by long division: parity = m(x) * x^4 mod g(x)."""
    check_symbols(msg, K_SYMBOLS, "message")
    work = list(msg) + [0] * N_PARITY
    for j in range(K_SYMBOLS):
        q = work[j]
        if q:
            row = MUL[q]
            # subtract q * x^(26-j) * g(x); g is monic so work[j] drops to 0
            for d in range(N_PARITY + 1):
                work[j + d] ^= row[GENERATOR_POLY[N_PARITY - d]]
    return list(msg) + work[K_SYMBOLS:]


# Row i, column q: q times g(x)'s coefficient of x^(3-i), the symbols that
# subtracting q * g(x) from a window led by q XORs into the 4 after q.
_DIVISION_TAPS = np.ascontiguousarray(
    np.array(MUL, np.uint8)[:, GENERATOR_POLY[N_PARITY - 1::-1]].T)


def divide_block(msg: np.ndarray) -> np.ndarray:
    """uint8[M, 31] codewords of uint8[M, 27] message symbols by long
    division, encode_reference's algorithm on all rows at once, as
    synthetic division over a byte window: row j of a uint8[31, M] buffer
    holds the coefficient of x^(30-j) of m(x) x^4, and step j XORs
    q * g(x)'s lower four coefficients (_DIVISION_TAPS), with q = row j,
    into rows j+1..j+4. After step 26 rows 27..30 hold the remainder.
    A step is two numpy calls on M bytes each, one `take` and one XOR in
    place, since at M = 256 numpy's cost per call dominates a step: on
    256 messages (2-core Xeon) that cut the 27 steps from about 120 us,
    with each row's window packed into one uint64 (five calls a step), to
    about 75 us. The XOR goes through a named view, because
    `buf[a:b] ^= x` also writes the result back over itself."""
    buf = np.zeros((N_SYMBOLS, len(msg)), np.uint8)
    buf[:K_SYMBOLS] = msg.T
    for j in range(K_SYMBOLS):
        window = buf[j + 1:j + 1 + N_PARITY]
        window ^= _DIVISION_TAPS.take(buf[j], axis=1)
    return np.concatenate([msg, buf[K_SYMBOLS:].T], axis=1)


def poly_eval(coeffs, x: int) -> int:
    """Horner's rule; coeffs run from the highest-degree term down."""
    row = MUL[x]
    acc = 0
    for c in coeffs:
        acc = row[acc] ^ c
    return acc


def compute_syndromes(received: list[int]) -> list[int]:
    """s[i] = r(alpha^(i+1)), symbol 0 being the highest-degree coefficient."""
    check_symbols(received, N_SYMBOLS, "received word")
    return [poly_eval(received, EXP[i % GROUP_ORDER])
            for i in range(FIRST_ROOT, FIRST_ROOT + N_PARITY)]


def is_codeword(word: list[int]) -> bool:
    """True iff the word evaluates to zero at all four generator roots."""
    check_symbols(word, N_SYMBOLS, "codeword")
    return not any(compute_syndromes(word))
