"""Reads the 20x135 GF(2) parity matrix off the serial encoder and
schedules it as XOR3 trees, emitting a structural netlist. `LinearMap`
holds a fixed GF(2) map as one input-bit mask per output: the parity
matrix (135 -> 20) and the decoder's syndrome map (155 -> 20) are both
LinearMaps, both read off the unit vectors by `LinearMap.probe`, and an
XorNetwork reads the same masks off its gates. The parity matrix is
probed from the block LFSR (`serial_encoder.shift_in_block`), which is
GF(2)-linear in the message bits.

Bit indexing: information bit 5*j + i is bit i (LSB = x^0 coefficient)
of message symbol j; parity bit 5*jp + i likewise for parity symbol jp.
`symbols_to_bits`/`bits_to_symbols` (lists) and `SYMBOL_BITS`/
`bits_to_symbol_array` (arrays) convert in this one order, and no other
module shifts symbol bits itself. Where those bits go on the wire is
framing's business alone (`_TO_WIRE`).

Netlist text format (one item per line, `#` starts a comment)::

    # rs3127 parity netlist prim=0x25 groots=1..4 maxdepth=<D>
    wire w<id> = XOR3(<ref>, <ref>, <ref>)
    out p<k> = <ref>

where <ref> is d<0..134> (information bit), w<id> (an earlier gate), or
ZERO; <k> is 0..19; gate ids are dense and ascending.

Matrix text format: header line `# rs3127 parity-matrix prim=0x25
groots=1..4`, then exactly 20 lines of 135 characters from {0,1}; row r
column c is 1 iff information bit c feeds parity bit r.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .gf32 import PRIMITIVE_POLY
from .rs_core import FIRST_ROOT, K_SYMBOLS, N_PARITY, N_SYMBOLS
from .serial_encoder import shift_in_block

BITS_PER_SYMBOL = 5
N_INFO_BITS = K_SYMBOLS * BITS_PER_SYMBOL  # 135
N_PARITY_BITS = N_PARITY * BITS_PER_SYMBOL  # 20
WORD_BITS = N_SYMBOLS * BITS_PER_SYMBOL  # 155

# The five bits of every symbol value, x^0 coefficient first, and the
# symbol of every such 5-tuple. Both are dicts, so a value outside them
# is an error, not wrapped: a list would read symbol -1 as 31.
_BITS_OF = {s: tuple(s >> i & 1 for i in range(BITS_PER_SYMBOL)) for s in range(32)}
_SYMBOL_OF = {bits: s for s, bits in _BITS_OF.items()}


def symbols_to_bits(symbols) -> list[int]:
    """Bit 5*j + i is bit i of symbol j; KeyError for a symbol outside 0..31."""
    return list(chain.from_iterable(map(_BITS_OF.__getitem__, symbols)))


def bits_to_symbols(bits) -> list[int]:
    """Exact inverse of symbols_to_bits, from a list, a tuple or an array
    row of bits; ValueError unless there are a multiple of 5, all 0 or 1."""
    groups = zip(*[iter(bits)] * BITS_PER_SYMBOL, strict=True)
    try:
        return list(map(_SYMBOL_OF.__getitem__, groups))
    except KeyError:
        raise ValueError("bits must be 0 or 1") from None


# The same order as arrays, probed from the converter pair: row s holds the
# five bits of symbol s, and a symbol is its bits times _BIT_WEIGHTS.
SYMBOL_BITS = np.array(symbols_to_bits(range(32)), np.uint8).reshape(32, BITS_PER_SYMBOL)
_BIT_WEIGHTS = np.array(bits_to_symbols(np.eye(BITS_PER_SYMBOL, dtype=int).ravel().tolist()),
                        np.float32)


def bits_to_symbol_array(bits: np.ndarray) -> np.ndarray:
    """uint8 symbols from bits in info/parity order along the last axis:
    one float32 BLAS product (exact: its sums are at most 31)."""
    symbols = (bits.reshape(-1, BITS_PER_SYMBOL) @ _BIT_WEIGHTS).astype(np.uint8)
    return symbols.reshape(*bits.shape[:-1], bits.shape[-1] // BITS_PER_SYMBOL)


def parity_by_symbols(encode, messages: np.ndarray) -> np.ndarray:
    """uint8[M, 20] parity bits of uint8[M, 135] message bits by `encode`,
    a block encoder of uint8[M, 27] message symbols into [M, 31] codewords."""
    parity = SYMBOL_BITS.take(encode(bits_to_symbol_array(messages))[:, K_SYMBOLS:], axis=0)
    return parity.reshape(len(messages), N_PARITY_BITS)


ZERO = "ZERO"

_GROOTS = f"{FIRST_ROOT}..{FIRST_ROOT + N_PARITY - 1}"
NETLIST_HEADER_PREFIX = f"# rs3127 parity netlist prim=0x{PRIMITIVE_POLY:x} groots={_GROOTS}"
MATRIX_HEADER = f"# rs3127 parity-matrix prim=0x{PRIMITIVE_POLY:x} groots={_GROOTS}"


def _gf2_rank(masks) -> int:
    basis: dict[int, int] = {}
    rank = 0
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = m
                rank += 1
                break
            m ^= basis[top]
    return rank


@dataclass(frozen=True)
class LinearMap:
    """A GF(2)-linear map from n_in bits to len(bitmasks) bits: output r is
    the XOR of the input bits c set in bitmasks[r]. The rows must be
    nonempty, inside n_in bits and linearly independent."""

    bitmasks: tuple[int, ...]
    n_in: int

    def __post_init__(self) -> None:
        for r, mask in enumerate(self.bitmasks):
            if not mask:
                raise ValueError(f"output {r} depends on no input bit")
            if mask >> self.n_in:
                raise ValueError(f"output {r} has a bit index outside 0..{self.n_in - 1}")
        if _gf2_rank(self.bitmasks) != len(self.bitmasks):
            raise ValueError("linear map is rank-deficient")

    @classmethod
    def probe(cls, fn, n_in: int) -> LinearMap:
        """The map of a GF(2)-linear fn, read off the unit vectors in one
        call: fn maps uint8[M, n_in] bits to M rows of 0/1 output bits, and
        row c of fn(identity) is column c."""
        columns = np.asarray(fn(np.eye(n_in, dtype=np.uint8)), np.uint8)
        rows = np.packbits(columns.T, axis=1, bitorder="little")  # bit c: bit c % 8 of byte c // 8
        return cls(tuple(int.from_bytes(row.tobytes(), "little") for row in rows), n_in)

    @cached_property
    def array(self) -> np.ndarray:
        """float32[n_in, n_out]: entry [c, r] is 1 iff input bit c feeds output r."""
        bits = [[m >> c & 1 for m in self.bitmasks] for c in range(self.n_in)]
        return np.array(bits, np.float32)

    def products(self, bits: np.ndarray) -> np.ndarray:
        """uint8[M, n_out] outputs of uint8[M, n_in] bits: one float32 BLAS
        product (exact: its sums are of at most n_in ones), then `& 1`."""
        return (bits.astype(np.float32) @ self.array).astype(np.uint8) & 1

    @property
    def max_fanin(self) -> int:
        return max(m.bit_count() for m in self.bitmasks)


def derive_parity_matrix() -> LinearMap:
    """The parity bits of the block LFSR, probed on the 135 unit-bit messages."""
    return LinearMap.probe(functools.partial(parity_by_symbols, shift_in_block), N_INFO_BITS)


@functools.cache
def default_parity_matrix() -> LinearMap:
    """The matrix for the active field constants, derived once per process."""
    return derive_parity_matrix()


@dataclass(frozen=True)
class XorNetwork:
    """Acyclic netlist of 3-input XOR gates computing the outputs of a
    LinearMap (the 20 parity bits, for a parsed netlist).

    Gate inputs and outputs are refs in the netlist grammar ("d<k>",
    "w<id>", "ZERO"); every gate references only input bits or earlier
    gates.
    """

    gates: tuple[tuple[str, str, str], ...]
    outputs: tuple[str, ...]

    @cached_property
    def _forms(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(masks, depths) of the outputs in one pass over the gates: a wire's
        mask is the XOR of its inputs' (one reached twice cancels), its depth
        one more than the deepest input's."""
        forms = {ZERO: (0, 0)}

        def form(ref: str) -> tuple[int, int]:  # an input d<k> has mask bit k
            return (1 << int(ref[1:]), 0) if ref[0] == "d" else forms[ref]

        for gid, gate in enumerate(self.gates):
            (ma, da), (mb, db), (mc, dc) = map(form, gate)
            forms[f"w{gid}"] = ma ^ mb ^ mc, 1 + max(da, db, dc)
        return tuple(zip(*map(form, self.outputs)))

    @property
    def bitmasks(self) -> tuple[int, ...]:
        """Each output's mask, as LinearMap.bitmasks holds each row."""
        return self._forms[0]

    @property
    def depths(self) -> tuple[int, ...]:
        """XOR3 levels between the inputs and each output."""
        return self._forms[1]

    @property
    def max_depth(self) -> int:
        return max(self.depths)


def build_xor3_network(matrix: LinearMap) -> XorNetwork:
    """Balanced ternary tree per output row.

    Leaves are grouped left-to-right in ascending bit-index order; the last
    gate of a level is padded with ZERO when the item count is not a
    multiple of 3. Fan-in 1 yields no gates (the output is a wire).
    """
    gates: list[tuple[str, str, str]] = []
    outputs = []
    for mask in matrix.bitmasks:
        level = [f"d{t}" for t in range(matrix.n_in) if mask >> t & 1]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 3):
                chunk = level[i:i + 3]
                chunk += [ZERO] * (3 - len(chunk))
                gates.append((chunk[0], chunk[1], chunk[2]))
                nxt.append(f"w{len(gates) - 1}")
            level = nxt
        outputs.append(level[0])
    return XorNetwork(tuple(gates), tuple(outputs))


def emit_netlist(net: XorNetwork) -> str:
    """Canonical text form: header, gates in id order, then the 20 outputs."""
    lines = [f"{NETLIST_HEADER_PREFIX} maxdepth={net.max_depth}"]
    for gid, (a, b, c) in enumerate(net.gates):
        lines.append(f"wire w{gid} = XOR3({a}, {b}, {c})")
    for k, ref in enumerate(net.outputs):
        lines.append(f"out p{k} = {ref}")
    return "\n".join(lines) + "\n"


# Numbers are 1-9 ASCII digits without leading zeros, so every ref has one
# spelling (d7, never d007 or a non-ASCII digit) and int() never sees a long one.
_NUM = "(0|[1-9][0-9]{0,8})"
_WIRE_RE = re.compile(rf"wire w{_NUM} = XOR3\((\S+), (\S+), (\S+)\)")
_OUT_RE = re.compile(rf"out p{_NUM} = (\S+)")
_REF_RE = re.compile(rf"([dw]){_NUM}")


# Errors quote a prefix only: a netlist line or ref can be thousands of characters long.
def _quote(text: str) -> str:
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def _check_ref(ref: str, n_gates: int, lineno: int) -> None:
    if ref == ZERO:
        return
    m = _REF_RE.fullmatch(ref)
    if not m:
        raise ValueError(f"line {lineno}: malformed reference {_quote(ref)}")
    if m.group(1) == "d" and int(m.group(2)) >= N_INFO_BITS:
        raise ValueError(f"line {lineno}: input {ref} out of range")
    if m.group(1) == "w" and int(m.group(2)) >= n_gates:
        raise ValueError(
            f"line {lineno}: reference to undefined wire {ref} "
            "(forward or cyclic reference)")


def parse_netlist(text: str) -> XorNetwork:
    """Parse the netlist grammar back into an XorNetwork.

    Enforces dense ascending gate ids and topological order, so cycles and
    forward references are reported as undefined wires. Every gate is an
    XOR3 of inputs, earlier wires and ZERO, so every parsed netlist is
    GF(2)-linear.
    """
    gates: list[tuple[str, str, str]] = []
    outputs: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _WIRE_RE.fullmatch(line)
        if m:
            gid = int(m.group(1))
            if gid != len(gates):
                raise ValueError(
                    f"line {lineno}: gate ids must be dense and ascending "
                    f"(expected w{len(gates)}, got w{gid})")
            refs = m.group(2, 3, 4)
            for ref in refs:
                _check_ref(ref, len(gates), lineno)
            gates.append(refs)
            continue
        m = _OUT_RE.fullmatch(line)
        if m:
            k = int(m.group(1))
            if not 0 <= k < N_PARITY_BITS:
                raise ValueError(f"line {lineno}: output p{k} out of range")
            if k in outputs:
                raise ValueError(f"line {lineno}: output p{k} defined twice")
            _check_ref(m.group(2), len(gates), lineno)
            outputs[k] = m.group(2)
            continue
        raise ValueError(f"line {lineno}: syntax error: {_quote(raw.strip())}")
    missing = [k for k in range(N_PARITY_BITS) if k not in outputs]
    if missing:
        raise ValueError(f"missing outputs: {['p%d' % k for k in missing]}")
    return XorNetwork(tuple(gates), tuple(outputs[k] for k in range(N_PARITY_BITS)))


def expected_depth(fanin: int) -> int:
    """Tree depth law: ceil(log3(fan-in)), with fan-in 1 a plain wire.

    Computed with integer arithmetic; float log rounds the wrong way on
    exact powers of three.
    """
    depth, cap = 0, 1
    while cap < fanin:
        cap *= 3
        depth += 1
    return depth


def matrix_to_text(matrix: LinearMap) -> str:
    rows = [f"{mask:0{N_INFO_BITS}b}"[::-1] for mask in matrix.bitmasks]  # column c first
    return "\n".join([MATRIX_HEADER, *rows]) + "\n"


def matrix_from_text(text: str) -> LinearMap:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line) != N_INFO_BITS or set(line) - {"0", "1"}:
            raise ValueError(
                f"line {lineno}: expected {N_INFO_BITS} characters of 0/1")
        rows.append(int(line[::-1], 2))
    if len(rows) != N_PARITY_BITS:
        raise ValueError(f"expected {N_PARITY_BITS} matrix rows, got {len(rows)}")
    return LinearMap(tuple(rows), N_INFO_BITS)
