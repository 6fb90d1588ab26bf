"""RS(31,27) decoder: every decode is a lookup in one class table on
packed syndromes, S1..S4 packed into one 20-bit int, S1 highest.
`decode` on one codeword of symbols reads its packed syndrome as the XOR
of one single-symbol syndrome per symbol (`_syndrome_columns`, the
syndrome map's `symbol_table`), and looks a dirty one up with
`lookup_lists`, as the simulator's sparse blocks do. `block_fixes` takes
a block's packed syndromes however they were made (by byte tables in
`framing.decode_frames`, which the CLI and the simulator's dense blocks
call) and looks up the dirty ones at once, each step a `take` from a
table read as flat. The table is keyed by the classes of the packed
syndromes, divided by their lead through one scaling table. Both
correct up to 2 symbol errors; anything else is flagged uncorrectable
with the received message region left untouched.

`solve_locator`, `chien_search` and `forney` are the reference decoder
the table is tested against: inverse-free Berlekamp-Massey, Chien search
and Forney magnitudes. The locator iteration is division-free: lambda <-
gamma*lambda + delta*x*B, which tracks the classical Berlekamp-Massey
locator up to a nonzero scalar. The scalar cancels in the Forney ratio
omega/lambda', so no normalization step is needed. With generator roots
starting at alpha^1, the Forney correction factor X^(1-b) is 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf32 import EXP, GROUP_ORDER, MUL, gf_div, gf_inv
from .parallel_gen import syndrome_map
from .rs_core import K_SYMBOLS, N_SYMBOLS, T_CORRECT, check_symbols, compute_syndromes, poly_eval

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
    """Full pipeline; all failure modes are reported in-band via status.
    The packed syndrome is the XOR of one `_syndrome_columns` entry per
    symbol, so a clean word returns after 31 lookups; a dirty one takes
    its fix from one `lookup_lists` row, which zeroes the syndrome."""
    received = list(received)
    check_symbols(received, N_SYMBOLS, "received word")
    packed = 0
    for column, v in zip(_syndrome_columns(), received):
        packed ^= column[v]
    if not packed:
        return DecodeResult(received[:K_SYMBOLS], 0, OK)
    [(nu, first, y1, last, y2)] = lookup_lists([packed])
    if not nu:
        return DecodeResult(received[:K_SYMBOLS], 0, UNCORRECTABLE)
    received[first] ^= y1
    received[last] ^= y2
    return DecodeResult(received[:K_SYMBOLS], nu, CORRECTED)


# GF(32) products and inverses as arrays, so field arithmetic over many
# codewords is a gather; the inverse of 0 reads as 0. Syndromes S1..S4 pack
# into one int as S1 << 15 | S2 << 10 | S3 << 5 | S4, and c times a packed
# pair of symbols a << 5 | b is _SCALED[c, a << 5 | b] = c*a << 5 | c*b.
_INV = [0] + [gf_inv(a) for a in range(1, 32)]
_GF_MUL = np.array(MUL, np.uint8)
_GF_INV = np.array(_INV, np.uint8)
_SCALED = (_GF_MUL[:, :, None].astype(np.uint16) << 5 | _GF_MUL[:, None]).reshape(32, -1)
# `take` reads a table as flat, so c*a is _GF_MUL.take(c << 5 | a). By
# S1 << 5 | S2 (a packed syndrome >> 10): the lead, and where the row of
# _SCALED that divides by it starts; 0 where S1 = S2 = 0.
_LEADS = np.where(np.arange(1024) >> 5, np.arange(1024) >> 5, np.arange(1024) & 31)
_INV_ROWS = _GF_INV[_LEADS].astype(int) << 10


def _class_of(synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lead, key), each [D], of packed syndromes int[D]: key packs them over
    their lead (S1, or S2 if S1 is 0), below 2^16; S1 = S2 = 0 reads as 0.
    Two 1-D takes by S1 << 5 | S2, and two from _SCALED."""
    high = synd >> 10
    row = _INV_ROWS.take(high)
    key = _SCALED.take(row | high) << 10 | _SCALED.take(row | synd & 1023)
    return _LEADS.take(high), key


@functools.cache
def _syndrome_columns() -> list[list[int]]:
    """[j][v]: the packed syndrome of value v alone at position j, as ints
    (`syndrome_map().symbol_table`); a word's is the XOR of its 31 entries."""
    return syndrome_map().symbol_table.tolist()


@functools.cache
def _correction_table() -> np.ndarray:
    """uint8[2^16, 4]: at each key, (first, y1, last, y2) of the error
    pattern of weight 1 or 2 whose syndromes divided by their lead have
    that key, values y1 at position first and y2 at last (first < last, or
    y2 = 0 and first == last); all 0 where there is none.

    Scaling a pattern by c scales its syndromes by c, so each class holds
    one pattern with y1 = 1: the 31 single errors and 465 * 31 pairs, with
    syndromes single[1, first] ^ single[y2, last] (single[y, j]: entry
    [j][y] of `_syndrome_columns`). A nonzero pattern of weight <= 2 has S1
    or S2 nonzero: key 0 is empty."""
    single = np.array(_syndrome_columns()).T
    j1, j2, y2 = np.indices((N_SYMBOLS, N_SYMBOLS, 32), np.uint8)
    keep = np.where(j1 == j2, y2 == 0, (j1 < j2) & (y2 > 0))
    j1, j2, y2 = j1[keep], j2[keep], y2[keep]
    lead, key = _class_of(single[1, j1] ^ single[y2, j2])
    inv = _GF_INV[lead]
    table = np.zeros((1 << 16, 4), np.uint8)
    table[key] = np.stack([j1, inv, j2, _GF_MUL[inv, y2]], axis=1)
    return table


@functools.cache
def _lookup_views() -> tuple[memoryview, memoryview]:
    """Flat views of _SCALED and the class table, made once for lookup_lists."""
    return memoryview(_SCALED.ravel()), memoryview(_correction_table()).cast("B")


def block_fixes(synd: np.ndarray) -> tuple[np.ndarray, ...]:
    """(ok bool[M], nu int[M], rows, first, y1, last, y2) of packed
    syndromes int[M]: rows are the dirty ones (nonzero syndrome), and
    first, y1, last, y2 their fixes from one `_lookup_arrays` call, so a
    clean block costs no lookup. ok is False only for the codewords decode
    reports uncorrectable, whose fixes are 0; nu is the number of symbols
    corrected."""
    rows = np.flatnonzero(synd)
    ok, nu = np.ones(len(synd), bool), np.zeros(len(synd), int)
    if not len(rows):
        return ok, nu, rows, rows, rows, rows, rows
    fix_nu, first, y1, last, y2 = _lookup_arrays(synd[rows])
    ok[rows], nu[rows] = fix_nu > 0, fix_nu
    return ok, nu, rows, first, y1, last, y2


def _lookup_arrays(synd: np.ndarray) -> tuple[np.ndarray, ...]:
    """(nu, first, y1, last, y2), each [D], of the nonzero packed
    syndromes int[D] of D dirty rows: their table entries, the values times
    their lead, and nu the number of nonzero values (0 if uncorrectable).
    Every step is a 1-D `take` from a table read as flat: `_class_of`'s,
    the class table as one little-endian uint32 (first, y1, last, y2) per
    key, and _GF_MUL."""
    lead, key = _class_of(synd)
    entry = _correction_table().view("<u4").take(key)
    scale = lead << 5
    y1 = _GF_MUL.take(scale | entry >> 8 & 31)
    y2 = _GF_MUL.take(scale | entry >> 24)
    return (y1 > 0) + (y2 > 0).astype(int), entry & 31, y1, entry >> 16 & 31, y2


def lookup_lists(synd: list[int]) -> list[tuple[int, int, int, int, int]]:
    """The fix (nu, first, y1, last, y2) of each nonzero packed syndrome:
    nu is 0 where the codeword is uncorrectable, else values y1 at symbol
    first and y2 at last (y2 = 0 when nu is 1) are XORed in. This is
    `_lookup_arrays` one row at a time, on ints and flat memoryviews of
    _SCALED and of the table, cheaper per item than numpy for a few rows."""
    scaled, table = _lookup_views()
    fixes = []
    for s in synd:
        lead = s >> 15 or s >> 10 & 31
        row, scale = _INV[lead] << 10, MUL[lead]
        at = 4 * (scaled[row | s >> 10] << 10 | scaled[row | s & 1023])
        first, y1, last, y2 = table[at:at + 4]
        fixes.append(((y1 > 0) + (y2 > 0), first, scale[y1], last, scale[y2]))
    return fixes
