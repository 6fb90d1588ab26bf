"""RS(31,27) decoder in two forms: `decode` on one codeword of symbols
(syndromes, inverse-free Berlekamp-Massey, Chien search, and Forney
magnitudes), and `decode_words` on a block of codewords in bits, by the
classes of their syndromes, packed in one 20-bit int and divided by their
lead through one scaling table, with decode's result row for row. Both
correct up to 2 symbol errors; anything that fails the consistency checks
is flagged uncorrectable with the received message region left untouched.

The locator iteration is division-free: lambda <- gamma*lambda +
delta*x*B, which tracks the classical Berlekamp-Massey locator up to a
nonzero scalar. The scalar cancels in the Forney ratio omega/lambda', so
no normalization step is needed. With generator roots starting at
alpha^1, the Forney correction factor X^(1-b) is 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf32 import EXP, GROUP_ORDER, MUL, gf_div, gf_inv
from .parallel_gen import (BITS_PER_SYMBOL, SYMBOL_BITS, WORD_BITS, LinearMap,
                           bits_to_symbol_array, symbols_to_bits)
from .rs_core import K_SYMBOLS, N_SYMBOLS, T_CORRECT, compute_syndromes, is_codeword, poly_eval

OK = "ok"
CORRECTED = "corrected"
UNCORRECTABLE = "uncorrectable"


@dataclass(frozen=True)
class ErrorLocator:
    """lam: locator coefficients, ascending; omega: S(x)*lam(x) mod x^4."""

    lam: tuple[int, ...]
    omega: tuple[int, ...]


@dataclass(frozen=True)
class DecodeResult:
    message: list[int]
    corrected_symbols: int
    status: str


def solve_locator(synd: list[int]) -> ErrorLocator:
    """Division-free Berlekamp-Massey, one iteration per syndrome."""
    lam = [1, 0, 0, 0, 0]
    b = [1, 0, 0, 0, 0]
    gamma = 1
    k = 0
    for r in range(2 * T_CORRECT):
        delta = 0
        for i in range(r + 1):
            if lam[i] and synd[r - i]:
                delta ^= MUL[lam[i]][synd[r - i]]
        grow = MUL[gamma]
        drow = MUL[delta]
        new_lam = [grow[lam[0]]]
        new_lam += [grow[lam[d]] ^ drow[b[d - 1]] for d in range(1, len(lam))]
        if delta and k >= 0:
            b = lam
            gamma = delta
            k = -k - 1
        else:
            b = [0] + b[:-1]
            k += 1
        lam = new_lam
    omega = []
    for d in range(2 * T_CORRECT):
        acc = 0
        for j in range(d + 1):
            if lam[j] and synd[d - j]:
                acc ^= MUL[lam[j]][synd[d - j]]
        omega.append(acc)
    return ErrorLocator(tuple(lam), tuple(omega))


def _trim(poly) -> list[int]:
    out = list(poly)
    while out and out[-1] == 0:
        out.pop()
    return out


def chien_search(lam) -> list[int]:
    """Positions j where lam vanishes at alpha^-(30-j), i.e. alpha^(j+1).

    Tries all 31 positions, evaluating lam at each by Horner's rule
    (poly_eval, as forney does); the zero polynomial reports no roots.
    """
    coeffs = _trim(lam)[::-1]
    if not coeffs:
        return []
    return [j for j in range(N_SYMBOLS) if not poly_eval(coeffs, EXP[(j + 1) % GROUP_ORDER])]


def forney(lam, omega, position: int) -> int:
    """Error magnitude at a verified locator root.

    magnitude = omega(X^-1) / lam'(X^-1) with X = alpha^(30-j); in
    characteristic 2 the formal derivative keeps odd-degree terms only.
    The derivative cannot vanish at a simple root, so a zero denominator
    is asserted away rather than handled.
    """
    point = EXP[(position + 1) % GROUP_ORDER]  # X^-1 for position j
    num = poly_eval(omega[::-1], point)
    deriv = [c if d % 2 else 0 for d, c in enumerate(lam)][1:]
    den = poly_eval(deriv[::-1], point)
    assert den != 0, "locator derivative vanished at a verified simple root"
    return gf_div(num, den)


def decode(received: list[int]) -> DecodeResult:
    """Full pipeline; all failure modes are reported in-band via status."""
    received = list(received)
    synd = compute_syndromes(received)  # checks the length and the range
    if not any(synd):
        return DecodeResult(received[:K_SYMBOLS], 0, OK)
    loc = solve_locator(synd)
    nu = len(_trim(loc.lam)) - 1
    positions = chien_search(loc.lam)
    if nu > T_CORRECT or len(positions) != nu:
        return DecodeResult(received[:K_SYMBOLS], 0, UNCORRECTABLE)
    fixed = received[:]
    for j in positions:
        fixed[j] ^= forney(loc.lam, loc.omega, j)
    if not is_codeword(fixed):
        return DecodeResult(received[:K_SYMBOLS], 0, UNCORRECTABLE)
    return DecodeResult(fixed[:K_SYMBOLS], nu, CORRECTED)


# GF(32) products and inverses as arrays, so field arithmetic over many
# codewords is a gather; the inverse of 0 reads as 0. Syndromes S1..S4 pack
# into one int by _KEY_WEIGHTS, 5 bits each with S1 highest, and c times a
# packed pair of symbols a << 5 | b is _SCALED[c, a << 5 | b] = c*a << 5 | c*b.
_INV = [0] + [gf_inv(a) for a in range(1, 32)]
_GF_MUL = np.array(MUL, np.uint8)
_GF_INV = np.array(_INV, np.uint8)
_KEY_WEIGHTS = np.array([1 << 15, 1 << 10, 1 << 5, 1])
_SCALED = (_GF_MUL[:, :, None].astype(np.uint16) << 5 | _GF_MUL[:, None]).reshape(32, -1)


@functools.cache
def _syndrome_map() -> LinearMap:
    """155 -> 20: output 5*i + b is bit b of syndrome S(i+1) of a codeword
    in info/parity bit order. Probed from compute_syndromes, row by row;
    syndromes are GF(2)-linear in the bits."""
    return LinearMap.probe(lambda words: [symbols_to_bits(compute_syndromes(w)) for w in
                                          bits_to_symbol_array(words).tolist()], WORD_BITS)


def packed_syndromes(words: np.ndarray) -> np.ndarray:
    """int[M]: the syndromes of uint8[M, 155] words in info/parity bit
    order, packed by _KEY_WEIGHTS: the one form the lookups take."""
    return bits_to_symbol_array(_syndrome_map().products(words)) @ _KEY_WEIGHTS


def _class_of(synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lead, key), each [D], of packed syndromes int[D]: key packs them over
    their lead (S1, or S2 if S1 is 0), below 2^16; S1 = S2 = 0 reads as 0."""
    lead = np.where(synd >> 15, synd >> 15, synd >> 10 & 31)
    inv = _GF_INV[lead]
    return lead, _SCALED[inv, synd >> 10] << 10 | _SCALED[inv, synd & 1023]


@functools.cache
def _correction_table() -> np.ndarray:
    """uint8[2^16, 4]: at each key, (first, y1, last, y2) of the error
    pattern of weight 1 or 2 whose syndromes divided by their lead have
    that key, values y1 at position first and y2 at last (first < last, or
    y2 = 0 and first == last); all 0 where there is none.

    Scaling a pattern by c scales its syndromes by c, so each class holds
    one pattern with y1 = 1: the 31 single errors and 465 * 31 pairs, with
    syndromes powers[first] ^ y2 * powers[last] (powers[j]: those of 1 at
    j; single[y, j]: y times them). A nonzero pattern of weight <= 2 has S1
    or S2 nonzero: key 0 is empty."""
    powers = packed_syndromes(np.identity(WORD_BITS, np.uint8)[::BITS_PER_SYMBOL])
    single = _SCALED[:, powers >> 10].astype(int) << 10 | _SCALED[:, powers & 1023]
    j1, j2, y2 = np.indices((N_SYMBOLS, N_SYMBOLS, 32), np.uint8)
    keep = np.where(j1 == j2, y2 == 0, (j1 < j2) & (y2 > 0))
    j1, j2, y2 = j1[keep], j2[keep], y2[keep]
    lead, key = _class_of(powers[j1] ^ single[y2, j2])
    inv = _GF_INV[lead]
    table = np.zeros((1 << 16, 4), np.uint8)
    table[key] = np.stack([j1, inv, j2, _GF_MUL[inv, y2]], axis=1)
    return table


def decode_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode uint8[M, 155] codewords in info/parity bit order:
    (ok bool[M], bits uint8[M, 31, 5], nu int[M]).

    One product gives the syndromes of all rows; a row with zero syndrome
    is clean and costs nothing more. The dirty rows get, in one
    `_lookup_arrays` call, the error pattern of weight <= 2 with their
    syndromes from `_correction_table` (uncorrectable if there is none),
    written by fancy indexing into bits, a copy of words with one 5-bit
    group per symbol. ok is False only for the codewords decode reports
    uncorrectable, which stay as received; nu is the number of symbols
    corrected. Row for row this is what decode returns."""
    synd = packed_syndromes(words)
    rows = np.flatnonzero(synd)
    ok, nu = np.ones(len(words), bool), np.zeros(len(words), int)
    bits = words.reshape(-1, N_SYMBOLS, BITS_PER_SYMBOL).copy()
    if len(rows):
        fix_nu, first, y1, last, y2 = _lookup_arrays(synd[rows])
        ok[rows], nu[rows] = fix_nu > 0, fix_nu
        bits[rows, first] ^= SYMBOL_BITS[y1]
        bits[rows, last] ^= SYMBOL_BITS[y2]
    return ok, bits, nu


def _lookup_arrays(synd: np.ndarray) -> tuple[np.ndarray, ...]:
    """(nu, first, y1, last, y2), each [D], of the nonzero packed
    syndromes int[D] of D dirty rows: their table entries, the values times
    their lead, and nu the number of nonzero values (0 if uncorrectable)."""
    lead, key = _class_of(synd)
    first, y1, last, y2 = _correction_table()[key].T
    return (y1 > 0) + (y2 > 0).astype(int), first, _GF_MUL[lead, y1], last, _GF_MUL[lead, y2]


def lookup_lists(synd: list[int]) -> list[tuple[int, int, int, int, int]]:
    """The fix (nu, first, y1, last, y2) of each nonzero packed syndrome:
    nu is 0 where the codeword is uncorrectable, else values y1 at symbol
    first and y2 at last (y2 = 0 when nu is 1) are XORed in. This is
    `_lookup_arrays` one row at a time, on ints and flat memoryviews of
    _SCALED and of the table, cheaper per item than numpy for a few rows."""
    scaled, table = memoryview(_SCALED.ravel()), memoryview(_correction_table()).cast("B")
    fixes = []
    for s in synd:
        lead = s >> 15 or s >> 10 & 31
        row, scale = _INV[lead] << 10, MUL[lead]
        at = 4 * (scaled[row | s >> 10] << 10 | scaled[row | s & 1023])
        first, y1, last, y2 = table[at:at + 4]
        fixes.append(((y1 > 0) + (y2 > 0), first, scale[y1], last, scale[y2]))
    return fixes
