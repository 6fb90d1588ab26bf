"""RS(31,27) decoder: syndromes, inverse-free Berlekamp-Massey, Chien
search, and Forney magnitudes. Corrects up to 2 symbol errors; anything
that fails the consistency checks is flagged uncorrectable with the
received message region left untouched.

The locator iteration is division-free: lambda <- gamma*lambda +
delta*x*B, which tracks the classical Berlekamp-Massey locator up to a
nonzero scalar. The scalar cancels in the Forney ratio omega/lambda', so
no normalization step is needed. With generator roots starting at
alpha^1, the Forney correction factor X^(1-b) is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf32 import EXP, GROUP_ORDER, MUL, gf_div
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
    synd = compute_syndromes(received)  # checks the length
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
