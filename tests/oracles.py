"""Independent reference implementations used only to produce expected
values in tests. None of these share code with the package paths they
check: field products are recomputed by shift-and-reduce, the generator
polynomial by symbolic convolution, the locator by the classical
division-based Berlekamp-Massey iteration. The reference decoder and the
syndrome oracles build on the package's algebra (`compute_syndromes`,
`solve_locator`, `chien_search`, `forney`), which no decode path of the
package calls: every decode there is a class-table lookup.
"""

import functools
from math import comb

import numpy as np

PRIM = 0x25  # x^5 + x^2 + 1, same constant the package is built around


def clmul_reduce(a: int, b: int, poly: int = PRIM) -> int:
    """Carry-less polynomial multiply, then reduce modulo poly."""
    prod = 0
    for i in range(5):
        if (b >> i) & 1:
            prod ^= a << i
    for d in range(8, 4, -1):
        if (prod >> d) & 1:
            prod ^= poly << (d - 5)
    return prod


def brute_inverse(a: int) -> int:
    """Scan all 31 nonzero candidates for the multiplicative inverse."""
    for b in range(1, 32):
        if clmul_reduce(a, b) == 1:
            return b
    raise ValueError(f"no inverse for {a}")


def alpha_power(e: int) -> int:
    """alpha^e by repeated shift-and-reduce multiplication."""
    x = 1
    for _ in range(e % 31):
        x = clmul_reduce(x, 2)
    return x


def expand_generator(roots: list[int]) -> list[int]:
    """(x + r1)(x + r2)... by symbolic convolution; ascending coefficients."""
    g = [1]
    for r in roots:
        shifted = [0] + g
        scaled = [clmul_reduce(r, c) for c in g] + [0]
        g = [s ^ t for s, t in zip(shifted, scaled)]
    return g


def classical_bm(synd: list[int]) -> list[int]:
    """Division-based Berlekamp-Massey (LFSR synthesis form); returns the
    locator with constant term 1, ascending coefficients."""
    from rs3127 import gf_inv, gf_mul

    n = len(synd)
    cur = [1] + [0] * n
    prev = [1] + [0] * n
    length, gap, prev_disc = 0, 1, 1
    for i in range(n):
        disc = synd[i]
        for j in range(1, length + 1):
            disc ^= gf_mul(cur[j], synd[i - j])
        if disc == 0:
            gap += 1
            continue
        saved = cur[:]
        coef = gf_mul(disc, gf_inv(prev_disc))
        for j in range(n + 1 - gap):
            if prev[j]:
                cur[j + gap] ^= gf_mul(coef, prev[j])
        if 2 * length <= i:
            length, prev, prev_disc, gap = i + 1 - length, saved, disc, 1
        else:
            gap += 1
    return cur[:length + 1]


def poly_roots(coeffs: list[int]) -> set[int]:
    """Nonzero field elements where the polynomial vanishes."""
    from rs3127 import gf_mul

    roots = set()
    for x in range(1, 32):
        acc = 0
        for c in reversed(coeffs):
            acc = gf_mul(acc, x) ^ c
        if acc == 0:
            roots.add(x)
    return roots


def prbs_reference(n: int) -> list[int]:
    """x^7 + x^6 + 1 sequence from the all-ones state, oldest bit out."""
    reg = [1] * 7
    out = []
    for _ in range(n):
        out.append(reg[0])
        reg = reg[1:] + [reg[0] ^ reg[1]]
    return out


SYNC_HEADER = 0b1101010010


def rs_encode_reference(msg: list[int]) -> list[int]:
    """Systematic RS(31,27) codeword: remainder of m(x) * x^4 by g(x),
    with symbol j the coefficient of x^(30-j)."""
    g = expand_generator([alpha_power(i) for i in range(1, 5)])
    rem = [0] * 4 + msg[::-1]  # ascending: rem[d] is the x^d coefficient
    for d in range(30, 3, -1):
        c = rem[d]
        for k in range(5):
            rem[d - 4 + k] ^= clmul_reduce(c, g[k])
    return msg + [rem[3 - p] for p in range(4)]


def probe_matrix_from_reference_encoder() -> tuple[int, ...]:
    """The parity matrix rows read off the long-division encoder: column c
    is the parity of the unit-bit message with only information bit c set
    (bit i of symbol j is information bit 5*j + i) — the basis-probing
    oracle. It shares no code with the block LFSR the package probes."""
    from rs3127 import encode_reference

    rows = [0] * 20
    for c in range(135):
        msg = [0] * 27
        msg[c // 5] = 1 << (c % 5)
        parity = encode_reference(msg)[27:]
        for jp in range(4):
            for i in range(5):
                if (parity[jp] >> i) & 1:
                    rows[5 * jp + i] |= 1 << c
    return tuple(rows)


def interleave_reference(a: list[int], b: list[int]) -> list[int]:
    """The 310 payload bits of codewords A and B (31 symbols each), written
    bit by bit from the layout in the framing module docstring: symbol s
    of A, then symbol s of B, five bits each, MSB first."""
    wire = []
    for s in range(31):
        for word in (a, b):
            wire += [(word[s] >> (4 - i)) & 1 for i in range(5)]
    return wire


def frame_reference(info: list[int]) -> list[int]:
    """The 320-bit frame for 270 info bits, written bit by bit from the
    layout in the framing module docstring: scramble with the PRBS,
    info bits 5*j + i -> bit i of message symbol j (first 135 bits feed
    codeword A), 10-bit header MSB first, then interleave_reference."""
    scrambled = [b ^ p for b, p in zip(info, prbs_reference(270))]
    words = []
    for half in (scrambled[:135], scrambled[135:]):
        msg = [sum(half[5 * j + i] << i for i in range(5)) for j in range(27)]
        words.append(rs_encode_reference(msg))
    header = [(SYNC_HEADER >> (9 - k)) & 1 for k in range(10)]
    return header + interleave_reference(*words)


def binom_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(comb(n, i) * p**i * (1 - p)**(n - i) for i in range(k, n + 1))


def clean_info_reference(frame: list[int]) -> list[int]:
    """The 270 info bits of a 320-bit frame read as if neither codeword
    had an error, bit by bit from the layout in the framing module
    docstring: message symbol s of codeword h (0 for A) sits at payload
    bit 10*s + 5*h, MSB first; info bit 135*h + 5*s + i is its bit i; and
    the PRBS descrambles."""
    info = []
    for h in range(2):
        for s in range(27):
            at = 10 + 10 * s + 5 * h
            info += [frame[at + 4 - i] for i in range(5)]
    return [x ^ p for x, p in zip(info, prbs_reference(270))]


def frame_words_reference(frames) -> np.ndarray:
    """uint8[2N, 155]: codewords A and B of each of N frames of bits in
    turn, in info/parity bit order (bit 5*s + i is bit i of symbol s),
    read bit by bit from the layout in the framing module docstring."""
    frames = np.asarray(frames, np.uint8)
    words = np.zeros((2 * len(frames), 155), np.uint8)
    for s in range(31):
        for c in range(2):
            for i in range(5):
                words[c::2, 5 * s + i] = frames[:, 10 + 10 * s + 5 * c + 4 - i]
    return words


def word_symbols(words) -> np.ndarray:
    """int64[M, 31] symbols of uint8[M, 155] words in info/parity bit order
    (bit 5*s + i is bit i of symbol s), by integer shifts."""
    bits = np.asarray(words, np.int64).reshape(len(words), 31, 5)
    return (bits << np.arange(5)).sum(axis=2)


def pack_syndromes(synd) -> int:
    """S1..S4 as one int: S1 << 15 | S2 << 10 | S3 << 5 | S4."""
    s1, s2, s3, s4 = synd
    return s1 << 15 | s2 << 10 | s3 << 5 | s4


def packed_syndromes(words) -> np.ndarray:
    """int64[M]: the packed syndromes of uint8[M, 155] words, by
    compute_syndromes on each word's symbols."""
    from rs3127 import compute_syndromes

    return np.array([pack_syndromes(compute_syndromes(w)) for w in word_symbols(words).tolist()],
                    np.int64)


@functools.cache
def parity_region_syndromes() -> np.ndarray:
    """int64[2^20]: entry k is the packed syndrome of the word whose message
    symbols are 0 and whose parity symbol 27 + s is k >> 5*s & 31. The map
    from k is GF(2)-linear, so the entries are XORs of those of the 20 unit
    words (compute_syndromes), built by doubling; it is one to one, so
    every syndrome appears once."""
    from rs3127 import compute_syndromes

    synd = np.zeros(1 << 20, np.int64)
    for bit in range(20):
        word = [0] * 31
        word[27 + bit // 5] = 1 << bit % 5
        synd[1 << bit:2 << bit] = synd[:1 << bit] ^ pack_syndromes(compute_syndromes(word))
    return synd


@functools.cache
def syndrome_map():
    """155 -> 20 LinearMap: output 5*i + b is bit b of syndrome S(i+1) of a
    codeword in info/parity bit order, probed from compute_syndromes."""
    from rs3127 import compute_syndromes
    from rs3127.parallel_gen import LinearMap, symbols_to_bits

    return LinearMap.probe(lambda words: [symbols_to_bits(compute_syndromes(w))
                                          for w in word_symbols(words).tolist()], 155)


def decode_reference(received):
    """The reference decoder, a DecodeResult: syndromes, inverse-free
    Berlekamp-Massey, Chien search and Forney magnitudes, and a re-check
    that the corrected word is a codeword. A locator of degree > 2, a root
    count other than its degree or a failed re-check is uncorrectable,
    with the received message passed through."""
    from rs3127 import (CORRECTED, OK, UNCORRECTABLE, chien_search, compute_syndromes,
                        forney, is_codeword, solve_locator)
    from rs3127.decoder import DecodeResult

    received = list(received)
    synd = compute_syndromes(received)
    if not any(synd):
        return DecodeResult(received[:27], 0, OK)
    loc = solve_locator(synd)
    nu = len(np.trim_zeros(np.array(loc.lam), "b")) - 1
    positions = chien_search(loc.lam)
    if nu > 2 or len(positions) != nu:
        return DecodeResult(received[:27], 0, UNCORRECTABLE)
    fixed = received[:]
    for j in positions:
        fixed[j] ^= forney(loc.lam, loc.omega, j)
    if not is_codeword(fixed):
        return DecodeResult(received[:27], 0, UNCORRECTABLE)
    return DecodeResult(fixed[:27], nu, CORRECTED)
