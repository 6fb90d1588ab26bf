import random

import pytest

from rs3127 import encode_reference, parity_bits
from rs3127.parallel_gen import (MATRIX_HEADER, N_INFO_BITS, N_PARITY_BITS,
                                 ParityMatrix, build_xor3_network,
                                 derive_parity_matrix, emit_netlist,
                                 expected_depth, matrix_from_text,
                                 matrix_to_text, parse_netlist)


def probe_matrix_from_reference_encoder():
    """Column c of the matrix is the parity of the unit-bit message with
    only information bit c set — the basis-probing oracle."""
    rows = [set() for _ in range(N_PARITY_BITS)]
    for c in range(N_INFO_BITS):
        msg = [0] * 27
        msg[c // 5] = 1 << (c % 5)
        parity = encode_reference(msg)[27:]
        for jp in range(4):
            for i in range(5):
                if (parity[jp] >> i) & 1:
                    rows[5 * jp + i].add(c)
    return tuple(frozenset(r) for r in rows)


def test_derived_matrix_equals_basis_probing_oracle():
    assert derive_parity_matrix().rows == probe_matrix_from_reference_encoder()


def test_matrix_rank_is_20_and_rows_nonempty():
    matrix = derive_parity_matrix()
    assert all(matrix.rows)
    # rank 20 is asserted by the constructor; a deficient matrix must fail
    broken = list(matrix.rows)
    broken[1] = broken[0]
    with pytest.raises(ValueError, match="rank"):
        ParityMatrix(tuple(broken))


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
    rows = [frozenset(range(70)), frozenset(range(70, 79))]
    rows += [frozenset({79 + k}) for k in range(18)]
    return ParityMatrix(tuple(rows))


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
    for row, depth in zip(matrix.rows, net.depths):
        assert depth == expected_depth(len(row))
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
        assert net.evaluate(info) == parity_bits(info, matrix)


def hand_netlist(first_line="wire w0 = XOR3(d0, d1, d2)"):
    lines = [first_line, "out p0 = w0"]
    lines += [f"out p{k} = d{k}" for k in range(1, N_PARITY_BITS)]
    return "\n".join(lines) + "\n"


def test_hand_written_single_gate_truth_table():
    net = parse_netlist(hand_netlist())
    for x in range(8):
        bits = [0] * N_INFO_BITS
        bits[0], bits[1], bits[2] = (x >> 2) & 1, (x >> 1) & 1, x & 1
        assert net.evaluate(bits)[0] == (bits[0] ^ bits[1] ^ bits[2])


def test_output_forms_of_a_hand_netlist():
    """A repeated input cancels in the mask, a ZERO pad adds a level but no
    input, and evaluate agrees with XOR-ing gate by gate."""
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
        assert net.evaluate(bits) == [w2] + bits[1:N_PARITY_BITS]


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
