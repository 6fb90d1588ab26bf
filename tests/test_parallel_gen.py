import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rs3127 import parity_bits
from rs3127.parallel_gen import (MATRIX_HEADER, N_INFO_BITS, N_PARITY_BITS,
                                 LinearMap, bits_to_symbols, build_xor3_network,
                                 derive_parity_matrix, emit_netlist,
                                 expected_depth, matrix_from_text,
                                 matrix_to_text, parse_netlist, symbols_to_bits)

from oracles import probe_matrix_from_reference_encoder


def test_derived_matrix_equals_basis_probing_oracle():
    assert derive_parity_matrix().bitmasks == probe_matrix_from_reference_encoder()


def test_matrix_rank_is_20_and_rows_nonempty():
    matrix = derive_parity_matrix()
    assert all(matrix.bitmasks)
    # rank 20 is asserted by the constructor; a deficient matrix must fail
    broken = list(matrix.bitmasks)
    broken[1] = broken[0]
    with pytest.raises(ValueError, match="rank"):
        LinearMap(tuple(broken), N_INFO_BITS)


def test_matrix_applied_to_zero_vector():
    matrix = derive_parity_matrix()
    assert parity_bits([0] * N_INFO_BITS, matrix) == [0] * N_PARITY_BITS


def test_matrix_max_fanin_fits_depth_4_trees():
    matrix = derive_parity_matrix()
    assert matrix.max_fanin == 79  # this field's constants; <= 81 = 3^4
    assert matrix.max_fanin <= 81


def test_derivation_is_deterministic():
    assert derive_parity_matrix() == derive_parity_matrix()


def synthetic_matrix():
    """Disjoint supports keep the rows independent: one 70-term row, one
    9-term row, eighteen single-term rows."""
    rows = [(1 << 70) - 1, (1 << 79) - (1 << 70)]
    rows += [1 << (79 + k) for k in range(18)]
    return LinearMap(tuple(rows), N_INFO_BITS)


def test_tree_shapes_on_synthetic_rows():
    net = build_xor3_network(synthetic_matrix())
    # 70 terms: 24 + 8 + 3 + 1 gates, depth 4 (70 <= 3^4 = 81)
    # 9 terms: 3 leaves + 1 root, depth 2; single terms: plain wires
    assert net.depths == (4, 2) + (0,) * 18
    assert len(net.gates) == 24 + 8 + 3 + 1 + 4
    assert net.outputs[2:] == tuple(f"d{79 + k}" for k in range(18))


def test_depth_law_on_the_real_matrix():
    matrix = derive_parity_matrix()
    net = build_xor3_network(matrix)
    for mask, depth in zip(matrix.bitmasks, net.depths):
        assert depth == expected_depth(mask.bit_count())
    assert net.max_depth == 4


def test_expected_depth_integer_law():
    assert [expected_depth(n) for n in (1, 2, 3, 4, 9, 10, 27, 28, 81, 82)] \
        == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]


def test_no_gate_is_all_zero_inputs():
    net = build_xor3_network(derive_parity_matrix())
    assert all(g != ("ZERO", "ZERO", "ZERO") for g in net.gates)


def test_emit_parse_emit_is_byte_identical():
    net = build_xor3_network(derive_parity_matrix())
    text = emit_netlist(net)
    again = emit_netlist(parse_netlist(text))
    assert again == text
    assert text.startswith("# rs3127 parity netlist prim=0x25 groots=1..4 maxdepth=4\n")


def test_parsed_network_evaluates_like_the_matrix():
    matrix = derive_parity_matrix()
    net = parse_netlist(emit_netlist(build_xor3_network(matrix)))
    rnd = random.Random(3001)
    for _ in range(10000):
        info = [rnd.getrandbits(1) for _ in range(N_INFO_BITS)]
        assert parity_bits(info, net) == parity_bits(info, matrix)


def hand_netlist(first_line="wire w0 = XOR3(d0, d1, d2)"):
    lines = [first_line, "out p0 = w0"]
    lines += [f"out p{k} = d{k}" for k in range(1, N_PARITY_BITS)]
    return "\n".join(lines) + "\n"


def test_hand_written_single_gate_truth_table():
    net = parse_netlist(hand_netlist())
    for x in range(8):
        bits = [0] * N_INFO_BITS
        bits[0], bits[1], bits[2] = (x >> 2) & 1, (x >> 1) & 1, x & 1
        assert parity_bits(bits, net)[0] == (bits[0] ^ bits[1] ^ bits[2])


def test_output_forms_of_a_hand_netlist():
    """A repeated input cancels in the mask, a ZERO pad adds a level but no
    input, and parity_bits of the network agrees with XOR-ing gate by gate."""
    lines = ["wire w0 = XOR3(d0, d0, d1)", "wire w1 = XOR3(w0, w0, d2)",
             "wire w2 = XOR3(w1, ZERO, ZERO)", "out p0 = w2"]
    lines += [f"out p{k} = d{k}" for k in range(1, N_PARITY_BITS)]
    net = parse_netlist("\n".join(lines) + "\n")
    assert net.bitmasks[0] == 1 << 2 and net.depths[0] == 3
    assert net.bitmasks[1:] == tuple(1 << k for k in range(1, N_PARITY_BITS))
    for x in range(8):
        bits = [0] * N_INFO_BITS
        bits[0], bits[1], bits[2] = (x >> 2) & 1, (x >> 1) & 1, x & 1
        w0 = bits[0] ^ bits[0] ^ bits[1]
        w1 = w0 ^ w0 ^ bits[2]
        w2 = w1 ^ 0 ^ 0
        assert parity_bits(bits, net) == [w2] + bits[1:N_PARITY_BITS]


def test_built_network_masks_are_the_matrix_rows():
    matrix = derive_parity_matrix()
    assert build_xor3_network(matrix).bitmasks == matrix.bitmasks
    net = build_xor3_network(synthetic_matrix())
    assert net.bitmasks == synthetic_matrix().bitmasks


def test_parse_rejects_forward_reference():
    bad = hand_netlist("wire w0 = XOR3(d0, w1, d2)")
    with pytest.raises(ValueError, match="undefined wire"):
        parse_netlist(bad)


def test_parse_rejects_self_reference_cycle():
    bad = hand_netlist("wire w0 = XOR3(d0, w0, d2)")
    with pytest.raises(ValueError, match="undefined wire"):
        parse_netlist(bad)


def test_parse_rejects_non_dense_gate_ids():
    bad = hand_netlist("wire w3 = XOR3(d0, d1, d2)")
    with pytest.raises(ValueError, match="dense and ascending"):
        parse_netlist(bad)


def test_parse_rejects_syntax_garbage_with_line_number():
    bad = hand_netlist() + "gate q = AND(d0, d1)\n"
    with pytest.raises(ValueError, match="line 22"):
        parse_netlist(bad)


def test_parse_rejects_out_of_range_input():
    bad = hand_netlist("wire w0 = XOR3(d135, d1, d2)")
    with pytest.raises(ValueError, match="out of range"):
        parse_netlist(bad)


def test_parse_rejects_duplicate_and_missing_outputs():
    with pytest.raises(ValueError, match="defined twice"):
        parse_netlist(hand_netlist() + "out p0 = d5\n")
    with pytest.raises(ValueError, match="missing outputs"):
        parse_netlist("wire w0 = XOR3(d0, d1, d2)\nout p0 = w0\n")


def test_matrix_text_round_trip():
    matrix = derive_parity_matrix()
    text = matrix_to_text(matrix)
    assert text.splitlines()[0] == MATRIX_HEADER
    assert len(text.splitlines()) == 1 + N_PARITY_BITS
    assert matrix_from_text(text) == matrix


def test_matrix_text_rejects_malformed_rows():
    with pytest.raises(ValueError, match="135 characters"):
        matrix_from_text("01\n")
    good = matrix_to_text(derive_parity_matrix())
    with pytest.raises(ValueError, match="20 matrix rows"):
        matrix_from_text("\n".join(good.splitlines()[:-1]) + "\n")


# --- symbol/bit converters ----------------------------------------------------

def test_converters_put_bit_i_of_symbol_j_at_5j_plus_i():
    """All 32 symbols round-trip, bit 5*j + i is bit i of symbol j,
    bits_to_symbols reads a list, a tuple and an array row alike, and a
    length that is not a multiple of 5 raises ValueError."""
    symbols = list(range(32))
    bits = symbols_to_bits(symbols)
    assert bits == [s >> i & 1 for s in symbols for i in range(5)]
    for form in (bits, tuple(bits), np.array([bits], np.uint8)[0]):
        assert bits_to_symbols(form) == symbols
    for length in (1, 4, 6, 159):
        with pytest.raises(ValueError):
            bits_to_symbols([0] * length)


# --- LinearMap ---------------------------------------------------------------

def test_probe_reads_a_hand_map_off_the_unit_vectors():
    def fn(block):
        return [[x0 ^ x2, x1, x0 ^ x1 ^ x3] for x0, x1, x2, x3 in block.tolist()]

    linear = LinearMap.probe(fn, 4)
    assert linear == LinearMap((0b0101, 0b0010, 0b1011), 4)
    assert linear.max_fanin == 3
    # one symbol of 5 input bits, the 5th beyond n_in: entry v packs fn of v's low 4 bits
    table = linear.symbol_table
    assert table.dtype == np.uint32 and table.shape == (1, 32)
    inputs = np.array([[x >> c & 1 for c in range(4)] for x in range(32)], np.uint8)
    assert table[0].tolist() == [sum(bit << r for r, bit in enumerate(out))
                                 for out in fn(inputs)]


def test_probe_symbols_reads_a_symbol_map_in_bits():
    """Two symbols in; their XOR and the first symbol's bits rotated up by
    one out: output bit 5s + i reads input bits 5j + i."""
    def fn(symbols):
        first = symbols[:, 0]
        return np.stack([first ^ symbols[:, 1], (first << 1 | first >> 4) & 31], axis=1)

    linear = LinearMap.probe_symbols(fn, 2)
    assert linear.n_in == 10
    assert linear.bitmasks == (tuple(1 << i | 1 << 5 + i for i in range(5))
                               + tuple(1 << (i - 1) % 5 for i in range(5)))
    pairs = np.array([(a, b) for a in range(32) for b in range(32)], np.uint8)
    table = linear.symbol_table
    got = table[0, pairs[:, 0]] ^ table[1, pairs[:, 1]]
    want = fn(pairs).astype(np.uint32)
    assert got.tolist() == (want[:, 0] | want[:, 1] << 5).tolist()


@pytest.mark.parametrize("n_in", [N_INFO_BITS, 155])
def test_linear_map_rejects_an_empty_row_a_wide_bit_and_a_dependent_row(n_in):
    good = tuple(1 << c for c in range(n_in - N_PARITY_BITS, n_in))
    assert LinearMap(good, n_in).max_fanin == 1  # bit n_in - 1 is in range
    with pytest.raises(ValueError, match="output 0 depends on no input bit"):
        LinearMap((0,) + good[1:], n_in)
    with pytest.raises(ValueError, match=f"output 19 has a bit index outside 0..{n_in - 1}"):
        LinearMap(good[:-1] + (1 << n_in,), n_in)
    with pytest.raises(ValueError, match="rank"):
        LinearMap(good[:-1] + (good[0] ^ good[1],), n_in)


def test_symbol_table_gives_parity_bits_row_for_row():
    """The XOR of one symbol table entry per message symbol, unpacked,
    is parity_bits of the message's bits."""
    matrix = derive_parity_matrix()
    bits = np.random.default_rng(3002).integers(0, 2, (500, N_INFO_BITS), dtype=np.uint8)
    bits[0], bits[1] = 0, 1
    symbols = np.array([bits_to_symbols(row) for row in bits.tolist()])
    packed = np.bitwise_xor.reduce(matrix.symbol_table[np.arange(27), symbols], axis=1)
    got = packed[:, None] >> np.arange(N_PARITY_BITS) & 1
    assert got.tolist() == [parity_bits(row, matrix) for row in bits.tolist()]


# --- canonical refs and parser fuzzing ---------------------------------------

@pytest.mark.parametrize("lines, lineno", [
    (["wire w0 = XOR3(d007, d1, d2)"], 1),
    (["wire w0 = XOR3(d0, d00, d2)"], 1),
    (["wire w0 = XOR3(d\u0663, d1, d2)"], 1),  # ARABIC-INDIC DIGIT THREE
    (["wire w0 = XOR3(d0, d1, d2)", "wire w1 = XOR3(w00, d1, d2)"], 2),
    (["wire w0 = XOR3(d0, d1, d2)", "wire w1 = XOR3(w\u0660, d1, d2)"], 2),
    (["wire w0 = XOR3(d1000000000, d1, d2)"], 1),  # 10 digits
    (["wire w0 = XOR3(d0, d1, d2)", "wire w1 = XOR3(w" + "1" * 5000 + ", d1, d2)"], 2),
], ids=["d007", "d00", "d-non-ascii", "w00", "w-non-ascii", "d-10-digits", "w-5000-digits"])
def test_parse_rejects_a_non_canonical_ref_naming_its_line(lines, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}: malformed reference") as exc:
        parse_netlist(hand_netlist("\n".join(lines)))
    assert len(str(exc.value)) < 120


@pytest.mark.parametrize("first_line", ["wire w00 = XOR3(d0, d1, d2)",
                                        "wire w\u0660 = XOR3(d0, d1, d2)"],
                         ids=["w00", "w-non-ascii"])
def test_parse_rejects_a_non_canonical_gate_id(first_line):
    with pytest.raises(ValueError, match="line 1: syntax error"):
        parse_netlist(hand_netlist(first_line))


def test_parse_rejects_a_non_canonical_output_index():
    with pytest.raises(ValueError, match="line 2: syntax error"):
        parse_netlist(hand_netlist().replace("out p0 =", "out p00 ="))


EMITTED_NETLIST = emit_netlist(build_xor3_network(derive_parity_matrix()))
MATRIX_TEXT = matrix_to_text(derive_parity_matrix())
# Characters of both grammars, plus a non-ASCII digit and a few separators.
_FUZZ_CHARS = "0123456789dwpZEROXiut()=,# \t\n\u0663\u00b2"


def _mutate(text, edits):
    for pos, op, ch in edits:
        pos %= len(text) + 1
        text = text[:pos] + ch * (op != "delete") + text[pos + (op != "insert"):]
    return text


def _mutated(base):
    """One to four character edits of base. About half land where a number
    starts (after d, w or p) and half write a 0 or a non-ASCII digit, so
    padded and non-ASCII refs come up often."""
    number_starts = [m.end() for m in re.finditer(r"\b[dwp](?=[0-9])", base)] or [0]
    edit = st.tuples(st.one_of(st.integers(0, len(base)), st.sampled_from(number_starts)),
                     st.sampled_from(["insert", "delete", "replace"]),
                     st.one_of(st.sampled_from(_FUZZ_CHARS), st.sampled_from("0\u0663")))
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _mutate(base, edits))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutated(hand_netlist()), _mutated(EMITTED_NETLIST),
                 st.text(_FUZZ_CHARS), st.text()))
@example(hand_netlist("wire w0 = XOR3(d007, d1, d2)"))
@example(hand_netlist("wire w0 = XOR3(d0, d1, d2)\nwire w1 = XOR3(w00, d1, d2)"))
def test_fuzzed_netlist_raises_only_value_error_and_parses_canonically(text):
    try:
        net = parse_netlist(text)
    except ValueError:
        return
    assert len(net.bitmasks) == len(net.depths) == N_PARITY_BITS
    assert parse_netlist(emit_netlist(net)) == net


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutated(MATRIX_TEXT), st.text("01\n# \u0661"), st.text()))
def test_fuzzed_matrix_text_raises_only_value_error(text):
    try:
        matrix = matrix_from_text(text)
    except ValueError:
        return
    assert matrix_from_text(matrix_to_text(matrix)) == matrix
