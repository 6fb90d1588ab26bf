"""RS(31,27) code definition and the reference systematic encoder.

Symbol order: codeword index j carries the coefficient of x^(30-j), so
index 0 is the highest-degree term and is transmitted first; the four
parity symbols occupy indices 27..30. The generator polynomial has roots
alpha^1..alpha^4 (narrow-sense construction).
"""

from __future__ import annotations

from .gf32 import ALPHA, EXP, GROUP_ORDER, MUL, gf_pow

N_SYMBOLS = 31
K_SYMBOLS = 27
N_PARITY = N_SYMBOLS - K_SYMBOLS  # 4
T_CORRECT = N_PARITY // 2  # 2
FIRST_ROOT = 1


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


def encode_reference(msg: list[int]) -> list[int]:
    """Systematic encode by long division: parity = m(x) * x^4 mod g(x)."""
    if len(msg) != K_SYMBOLS:
        raise ValueError(f"message must have {K_SYMBOLS} symbols, got {len(msg)}")
    work = list(msg) + [0] * N_PARITY
    for j in range(K_SYMBOLS):
        q = work[j]
        if q:
            row = MUL[q]
            # subtract q * x^(26-j) * g(x); g is monic so work[j] drops to 0
            for d in range(N_PARITY + 1):
                work[j + d] ^= row[GENERATOR_POLY[N_PARITY - d]]
    return list(msg) + work[K_SYMBOLS:]


def poly_eval(coeffs, x: int) -> int:
    """Horner's rule; coeffs run from the highest-degree term down."""
    row = MUL[x]
    acc = 0
    for c in coeffs:
        acc = row[acc] ^ c
    return acc


def compute_syndromes(received: list[int]) -> list[int]:
    """s[i] = r(alpha^(i+1)), symbol 0 being the highest-degree coefficient."""
    if len(received) != N_SYMBOLS:
        raise ValueError(f"received word must have {N_SYMBOLS} symbols, got {len(received)}")
    return [poly_eval(received, EXP[i % GROUP_ORDER])
            for i in range(FIRST_ROOT, FIRST_ROOT + N_PARITY)]


def is_codeword(word: list[int]) -> bool:
    """True iff the word evaluates to zero at all four generator roots."""
    if len(word) != N_SYMBOLS:
        raise ValueError(f"codeword must have {N_SYMBOLS} symbols, got {len(word)}")
    return not any(compute_syndromes(word))
