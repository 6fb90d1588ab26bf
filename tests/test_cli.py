import contextlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rs3127
from rs3127 import cli, framing, matrix_from_text, parse_netlist
from rs3127.cli import build_parser, main

from oracles import probe_matrix_from_reference_encoder


def test_gen_matrix(tmp_path):
    out = tmp_path / "m.txt"
    assert main(["gen-matrix", "-o", str(out)]) == 0
    assert matrix_from_text(out.read_text()).bitmasks == probe_matrix_from_reference_encoder()


def test_emit_and_check_netlist(tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    nfile = tmp_path / "n.txt"
    assert main(["gen-matrix", "-o", str(mfile)]) == 0
    assert main(["emit-netlist", "-m", str(mfile), "-o", str(nfile)]) == 0
    printed = capsys.readouterr().out
    assert "max fan-in: 79" in printed and "70" in printed
    assert "max XOR3 depth: 4" in printed
    parse_netlist(nfile.read_text())

    assert main(["check-netlist", "-n", str(nfile), "-m", str(mfile)]) == 0
    assert "equivalent on all 2^135 inputs" in capsys.readouterr().out


def test_check_netlist_catches_a_wrong_gate(tmp_path, capsys):
    nfile = tmp_path / "n.txt"
    assert main(["emit-netlist", "-o", str(nfile)]) == 0
    text = nfile.read_text()
    # swap one input of the first gate for a different information bit:
    # still well-formed, no longer equivalent
    first_gate = next(l for l in text.splitlines() if l.startswith("wire w0"))
    inputs = first_gate.split("XOR3(")[1].rstrip(")").split(", ")
    spare = next(f"d{k}" for k in range(135) if f"d{k}" not in inputs)
    nfile.write_text(text.replace(first_gate,
                                  f"wire w0 = XOR3({spare}, {inputs[1]}, {inputs[2]})"))
    capsys.readouterr()
    assert main(["check-netlist", "-n", str(nfile)]) == 2
    assert "mismatch: output p" in capsys.readouterr().err


def test_check_netlist_rejects_a_zero_padded_ref(tmp_path, capsys):
    """d007 names no input: a data error (exit 2) naming the line, not a
    traceback."""
    nfile = tmp_path / "n.txt"
    assert main(["emit-netlist", "-o", str(nfile)]) == 0
    nfile.write_text(re.sub(r"\(d([0-9]+),", r"(d0\1,", nfile.read_text()))
    capsys.readouterr()
    assert main(["check-netlist", "-n", str(nfile)]) == 2
    assert capsys.readouterr().err.startswith("rs3127: error: line 2: malformed reference 'd0")


@pytest.mark.parametrize("target, old, new, message", [
    ("netlist", "(d1,", "(d\u0663,", "line 2: non-ASCII byte 0xd9"),
    ("netlist", "(d1,", "(d" + "1" * 5000 + ",", "line 2: malformed reference 'd111"),
    ("matrix", "\n0", "\n\u00b20", "line 2: non-ASCII byte 0xc2"),
], ids=["netlist-non-ascii", "netlist-5000-digits", "matrix-non-ascii"])
def test_check_netlist_names_the_line_of_an_unreadable_input(tmp_path, capsys,
                                                             target, old, new, message):
    files = {"netlist": tmp_path / "n.txt", "matrix": tmp_path / "m.txt"}
    assert main(["gen-matrix", "-o", str(files["matrix"])]) == 0
    assert main(["emit-netlist", "-o", str(files["netlist"])]) == 0
    text = files[target].read_text()
    files[target].write_bytes(text.replace(old, new, 1).encode())
    capsys.readouterr()
    assert main(["check-netlist", "-n", str(files["netlist"]), "-m", str(files["matrix"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rs3127: error: {message}")
    assert "Traceback" not in err and "codec" not in err and "digits" not in err
    assert len(err) < 120


def test_check_netlist_quotes_a_prefix_of_a_long_syntax_error(tmp_path, capsys):
    nfile = tmp_path / "n.txt"
    nfile.write_text("wire w0 = XOR3(d0, d1, d2" + "1" * 5000 + "\n")
    assert main(["check-netlist", "-n", str(nfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rs3127: error: line 1: syntax error: 'wire w0 = XOR3(d0, d'...")
    assert "Traceback" not in err and len(err) < 120


def _rewire_outputs(nfile, extra):
    """Route each output p<k> of extra, keys ascending, through one more
    gate XOR3(<its ref>, a, b), numbered after the last wire."""
    lines = nfile.read_text().splitlines()
    n_gates = sum(line.startswith("wire ") for line in lines)
    for k, (a, b) in extra.items():
        at = next(i for i, line in enumerate(lines) if line.startswith(f"out p{k} = "))
        lines[at:at + 1] = [f"wire w{n_gates} = XOR3({lines[at].split()[-1]}, {a}, {b})",
                            f"out p{k} = w{n_gates}"]
        n_gates += 1
    nfile.write_text("\n".join(lines) + "\n")


def test_check_netlist_proves_and_names_a_one_column_difference(tmp_path, capsys):
    """Output p0 with one extra input d134 differs from the matrix in one
    column only, so each random input vector catches it with probability
    1/2; comparing the output masks always does, and names the bit. Sampling
    options are gone: a trial count is a usage error."""
    nfile = tmp_path / "n.txt"
    assert main(["emit-netlist", "-o", str(nfile)]) == 0
    _rewire_outputs(nfile, {0: ("d134", "ZERO")})
    capsys.readouterr()
    assert main(["check-netlist", "-n", str(nfile)]) == 2
    assert "mismatch: output p0 on information bit d134" in capsys.readouterr().err
    assert main(["check-netlist", "-n", str(nfile), "--trials", "5"]) == 1
    capsys.readouterr()


def test_check_netlist_proves_a_rewired_equivalent_output(tmp_path, capsys):
    """Different gates, same function: d134 enters p0 twice and cancels."""
    nfile = tmp_path / "n.txt"
    assert main(["emit-netlist", "-o", str(nfile)]) == 0
    _rewire_outputs(nfile, {0: ("d134", "d134")})
    capsys.readouterr()
    assert main(["check-netlist", "-n", str(nfile)]) == 0
    assert "equivalent on all 2^135 inputs" in capsys.readouterr().out


def test_check_netlist_names_the_lowest_bit_before_the_lowest_output(tmp_path, capsys):
    """p1 differs from the matrix on d5 and d9, p3 on d0 and d2, p7 on d0
    and d1: the named mismatch is the lowest information bit first, then
    the lowest output."""
    nfile = tmp_path / "n.txt"
    assert main(["emit-netlist", "-o", str(nfile)]) == 0
    _rewire_outputs(nfile, {1: ("d5", "d9"), 3: ("d0", "d2"), 7: ("d0", "d1")})
    capsys.readouterr()
    assert main(["check-netlist", "-n", str(nfile)]) == 2
    assert capsys.readouterr().err == "mismatch: output p3 on information bit d0\n"


def test_encode_decode_round_trip(tmp_path):
    payload = tmp_path / "payload.bin"
    frames = tmp_path / "frames.bin"
    out = tmp_path / "out.bin"
    # three 40-byte records; bits 270..319 of each record must stay zero,
    # i.e. bytes 34..39 clear and byte 33 only in its top 6 bits
    record = bytes(range(33)) + bytes([0b11111100]) + bytes(6)
    payload.write_bytes(record * 3)
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 0
    assert frames.stat().st_size == 120
    assert main(["decode", "-i", str(frames), "-o", str(out)]) == 0
    assert out.read_bytes() == payload.read_bytes()


@pytest.mark.parametrize("encoder", ["ref", "lfsr", "parallel"])
def test_encoder_variants_produce_identical_frames(tmp_path, encoder):
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(33) + bytes(7))
    frames = tmp_path / f"f_{encoder}.bin"
    assert main(["encode", "-i", str(payload), "-o", str(frames),
                 "--encoder", encoder]) == 0
    reference = tmp_path / "f_parallel_ref.bin"
    assert main(["encode", "-i", str(payload), "-o", str(reference)]) == 0
    assert frames.read_bytes() == reference.read_bytes()


def test_partial_record_is_zero_padded(tmp_path):
    payload = tmp_path / "p.bin"
    out = tmp_path / "o.bin"
    frames = tmp_path / "f.bin"
    payload.write_bytes(bytes([5] * 10))
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 0
    assert frames.stat().st_size == 40
    assert main(["decode", "-i", str(frames), "-o", str(out)]) == 0
    assert out.read_bytes() == bytes([5] * 10) + bytes(30)


def test_encode_rejects_nonzero_padding_bits(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    frames = tmp_path / "f.bin"
    payload.write_bytes(bytes(39) + bytes([1]))  # bit 319 set
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 2
    assert "nonzero padding" in capsys.readouterr().err
    assert not frames.exists()
    # a good record ahead of the bad one must not leave a partial file either
    payload.write_bytes(bytes(40) + bytes(33) + bytes([0x02]) + bytes(6))  # bit 270 set
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 2
    assert "record at byte 40 has nonzero padding" in capsys.readouterr().err
    assert not frames.exists()


def test_decode_rejects_misaligned_stream(tmp_path, capsys):
    frames = tmp_path / "f.bin"
    frames.write_bytes(bytes(41))
    assert main(["decode", "-i", str(frames), "-o", str(tmp_path / "o.bin")]) == 2
    assert "multiple of 40" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=200),
                 st.integers(0, 4).flatmap(lambda n: st.binary(min_size=40 * n,
                                                                max_size=40 * n))))
@example(b"")
@example(bytes(33) + b"\x03")
@example(bytes(80))
def test_fuzzed_records_exit_0_or_2_without_a_traceback(data):
    """Arbitrary bytes into the two record readers: encode exits 0 exactly
    when every zero-padded record has clear padding bits, decode exactly
    when the length is a multiple of 40, and the only other exit is 2 with
    one `rs3127: error:` line."""
    padded = data + bytes(-len(data) % 40)
    records = np.frombuffer(padded, np.uint8).reshape(-1, 40)
    clear = not (records[:, 33] & 0x03).any() and not records[:, 34:].any()
    with tempfile.TemporaryDirectory() as tmp:
        source, out = os.path.join(tmp, "in.bin"), os.path.join(tmp, "out.bin")
        Path(source).write_bytes(data)
        for command, good, size in (("encode", clear, len(padded)),
                                    ("decode", len(data) % 40 == 0, len(data))):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main([command, "-i", source, "-o", out])
            assert status == (0 if good else 2), command
            if good:
                assert err.getvalue() == "" and Path(out).stat().st_size == size
                os.remove(out)
            else:
                assert err.getvalue().startswith("rs3127: error: ")
                assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def test_decode_stats_file(tmp_path):
    payload = tmp_path / "p.bin"
    frames = tmp_path / "f.bin"
    stats = tmp_path / "s.txt"
    payload.write_bytes(bytes(80))
    main(["encode", "-i", str(payload), "-o", str(frames)])
    # flip one payload bit in frame 0 so it decodes with a correction
    data = bytearray(frames.read_bytes())
    data[2] ^= 0x10
    frames.write_bytes(bytes(data))
    assert main(["decode", "-i", str(frames), "-o", str(tmp_path / "o.bin"),
                 "--stats", str(stats)]) == 0
    lines = stats.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("frame=0 status_a=")
    assert "header_ok=1" in lines[1]
    assert "status_a=ok" in lines[1] and "status_b=ok" in lines[1]


# A codeword's state in a `decode --stats` line: (status, corrected symbols).
_CODEWORD_STATES = [(rs3127.UNCORRECTABLE, 0), (rs3127.OK, 0),
                    (rs3127.CORRECTED, 1), (rs3127.CORRECTED, 2)]


def _error_symbols(rng, state):
    """31 error symbols that leave a codeword in state 0..3 of
    _CODEWORD_STATES: nonzero values at 3 to 8 distinct positions, redrawn
    until decode calls them uncorrectable, or at state - 1 positions."""
    while True:
        count = rng.integers(3, 9) if state == 0 else state - 1
        errors = [0] * rs3127.N_SYMBOLS
        for at in rng.choice(rs3127.N_SYMBOLS, count, replace=False):
            errors[at] = int(rng.integers(1, 32))
        # a codeword's syndromes, and so its status, are those of its error word
        if state or rs3127.decode(errors).status == rs3127.UNCORRECTABLE:
            return errors


@pytest.mark.parametrize("block_frames", [128, 4], ids=["arrays", "few-dirty"])
def test_decode_stats_lines_cover_every_state_and_equal_unframe(
        tmp_path, monkeypatch, block_frames):
    """One frame for each of the 32 (state A, state B, header_ok), with its
    symbol errors placed by `interleave`: every record and `--stats` line
    equals the one formatted from scalar unframe, and each frame's line
    shows the state it was built for. In blocks of 4 frames, at most 8
    codewords are dirty, and `block_fixes` looks them up as it does the
    dirty codewords of a full block."""
    monkeypatch.setattr(framing, "BLOCK_FRAMES", block_frames)
    rng = np.random.default_rng(31)
    combos = list(itertools.product(range(4), range(4), (0, 1)))
    data = b""
    for state_a, state_b, header_ok in combos:
        frame = rs3127.build_frame(rng.integers(0, 2, 270).tolist())
        flips = [0] * framing.HEADER_BITS + rs3127.interleave(_error_symbols(rng, state_a),
                                                               _error_symbols(rng, state_b))
        if not header_ok:
            flips[rng.integers(framing.HEADER_BITS)] = 1
        data += rs3127.frame_to_bytes([b ^ f for b, f in zip(frame, flips)])
    frames, out, stats = tmp_path / "f.bin", tmp_path / "o.bin", tmp_path / "s.txt"
    frames.write_bytes(data)
    assert main(["decode", "-i", str(frames), "-o", str(out), "--stats", str(stats)]) == 0
    got, text = out.read_bytes(), stats.read_text()
    assert text.endswith("\n") and len(got) == len(data)
    lines = text.splitlines()
    assert len(lines) == len(combos)
    for k, (line, (state_a, state_b, header_ok)) in enumerate(zip(lines, combos)):
        res = rs3127.unframe(rs3127.bytes_to_frame(data[40 * k:40 * k + 40]))
        assert got[40 * k:40 * k + 40] == np.packbits(res.info + [0] * 50).tobytes(), k
        a, b = res.result_a, res.result_b
        assert line == (f"frame={k} status_a={a.status} corrected_a={a.corrected_symbols}"
                        f" status_b={b.status} corrected_b={b.corrected_symbols}"
                        f" header_ok={int(res.header_ok)}")
        assert ((a.status, a.corrected_symbols), (b.status, b.corrected_symbols),
                res.header_ok) == (_CODEWORD_STATES[state_a], _CODEWORD_STATES[state_b],
                                   bool(header_ok))
    assert len({line.split(" ", 1)[1] for line in lines}) == 32


def test_help_states_the_user_contract_alone(capsys):
    """`rs3127 -h` gives the record format, the round trip and the exit
    codes, and none of the implementation notes kept in the code."""
    assert main(["-h"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "Exit codes: 0 success, 1 usage error, 2 data/format error." in out
    assert "streams of 40-byte records" in out and "record bits 0..269" in out
    assert "trailing 50 bits must be zero" in out and "`encode | decode` round-trips" in out
    for note in ("ext4", "BLOCK_FRAMES", "encode_frames"):
        assert note not in out


def test_main_reuses_one_parser_with_a_fresh_namespace_per_call(tmp_path, capsys, monkeypatch):
    payload, frames, out, stats = (tmp_path / name for name in ("p.bin", "f.bin", "o.bin", "s.txt"))
    payload.write_bytes(bytes(80))
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 0
    parser = build_parser()
    assert build_parser() is parser
    decode_parser, seen = parser.commands["decode"], []
    parse_known_args = decode_parser.parse_known_args

    def spy(*args):
        result = parse_known_args(*args)
        seen.append(result[0])
        return result

    monkeypatch.setattr(decode_parser, "parse_known_args", spy)
    assert main(["decode", "-i", str(frames), "-o", str(out), "--stats", str(stats)]) == 0
    assert len(stats.read_text().splitlines()) == 2
    stats.unlink()
    assert main(["decode", "-i", str(frames), "-o", str(out)]) == 0
    assert not stats.exists()
    assert main(["decode", "-i", str(frames)]) == 1  # missing -o
    assert "required" in capsys.readouterr().err
    assert len(seen) == 2 and seen[0] is not seen[1]
    assert seen[0].stats == str(stats) and seen[1].stats is None


def test_main_parses_as_the_full_parser_does(tmp_path, capsys, monkeypatch):
    """main parses a codec command with that subcommand's own parser and
    falls back to the full one; on every argv shape, a good one or a
    usage error, it gives the exit code, stdout and stderr that the full
    parser's path gives."""
    payload, frames, out, stats = (str(tmp_path / name)
                                   for name in ("p.bin", "f.bin", "o.bin", "s.txt"))
    Path(payload).write_bytes(bytes(80))
    assert main(["encode", "-i", payload, "-o", frames]) == 0
    shapes = [
        [],
        ["bogus"],
        ["--bogus"],
        ["-h"],
        ["encode", "-h"],
        ["encode"],
        ["encode", "-o", out],
        ["encode", "-i", payload],
        ["encode", "-i", payload, "-o", out, "--bogus"],
        ["encode", "-i", payload, "-o", out, "extra"],
        ["encode", "--in", payload, "-o", out],
        ["encode", "-i", payload, "-o", out, "--encoder", "bogus"],
        ["encode", "-i", str(tmp_path / "missing.bin"), "-o", out],
        ["decode", "-i", frames, "-o", out, "--stat", stats],
        ["simulate", "--ber", "0", "--frames", "1", "--jobs", "0"],
        ["sweep", "--ber-list", "0", "--frames", "2", "--csv"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    got = [run(argv) for argv in shapes]
    monkeypatch.setattr(cli, "_parse_args", lambda parser, argv: parser.parse_args(argv))
    want = [run(argv) for argv in shapes]
    for argv, mine, full in zip(shapes, got, want):
        assert mine == full, argv
    assert {code for code, _, _ in got} == {0, 1, 2}


def test_simulate_zero_ber(capsys):
    assert main(["simulate", "--ber", "0", "--frames", "100", "--seed", "3"]) == 0
    line = capsys.readouterr().out.strip()
    assert "frames_total=100" in line
    assert "frames_err_pre=0" in line and "frames_err_post=0" in line


def test_simulate_replay_is_byte_identical(capsys):
    argv = ["simulate", "--ber", "0.002", "--frames", "150", "--seed", "21"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == first


def test_simulate_and_sweep_records_are_pinned(capsys):
    # the criterion-10 configs; a change here is a change of random stream
    assert main(["simulate", "--ber", "0.002", "--burst-len", "6",
                 "--burst-rate", "0.1", "--frames", "400", "--seed", "42"]) == 0
    assert capsys.readouterr().out == (
        "ber=0.002 burst_len=6 burst_rate=0.1 seed=42 frames=400 frames_total=400"
        " frames_err_pre=210 frames_err_post=7 frames_recovered=203 miscorrections=6"
        " detected_uncorrectable=2 bit_err_pre=514 bit_err_post=64\n")
    assert main(["sweep", "--ber-list", "0.0005,0.002,0.008",
                 "--frames", "150", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (
        "ber=0.0005 burst_len=0 burst_rate=0.0 seed=7 frames=150 frames_total=150"
        " frames_err_pre=20 frames_err_post=0 frames_recovered=20 miscorrections=0"
        " detected_uncorrectable=0 bit_err_pre=21 bit_err_post=0\n"
        "ber=0.002 burst_len=0 burst_rate=0.0 seed=7 frames=150 frames_total=150"
        " frames_err_pre=71 frames_err_post=0 frames_recovered=71 miscorrections=0"
        " detected_uncorrectable=0 bit_err_pre=89 bit_err_post=0\n"
        "ber=0.008 burst_len=0 burst_rate=0.0 seed=7 frames=150 frames_total=150"
        " frames_err_pre=132 frames_err_post=33 frames_recovered=99 miscorrections=12"
        " detected_uncorrectable=23 bit_err_pre=365 bit_err_post=149\n")


def test_sweep_emits_one_record_per_ber(capsys):
    assert main(["sweep", "--ber-list", "0.0001,0.001,0.01",
                 "--frames", "40", "--seed", "2", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # header + 3 records
    assert lines[0].startswith("ber,")


def test_usage_errors_exit_1(capsys):
    assert main(["encode"]) == 1               # missing required flags
    assert main(["simulate", "--ber", "0"]) == 1  # missing --frames
    assert main(["encode", "--bogus"]) == 1    # unknown flag
    assert main([]) == 1                       # no subcommand
    capsys.readouterr()


@pytest.mark.parametrize("command", [["simulate", "--ber", "1e-3"],
                                     ["sweep", "--ber-list", "1e-3"]])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(capsys, command, jobs):
    assert main(command + ["--frames", "10", "--jobs", jobs]) == 1
    assert "--jobs: expected a positive integer" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.bin"
    assert main(["encode", "-i", str(missing), "-o", str(tmp_path / "f.bin")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a netlist\n")
    assert main(["check-netlist", "-n", str(bad)]) == 2
    capsys.readouterr()


def test_sweep_rejects_bad_ber_list(capsys):
    assert main(["sweep", "--ber-list", "a,b", "--frames", "10", "--seed", "1"]) == 2
    assert main(["sweep", "--ber-list", ",", "--frames", "10", "--seed", "1"]) == 2
    capsys.readouterr()


def test_empty_input_gives_empty_output(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    frames, out, stats = tmp_path / "f.bin", tmp_path / "o.bin", tmp_path / "s.txt"
    assert main(["encode", "-i", str(empty), "-o", str(frames)]) == 0
    assert frames.read_bytes() == b""
    assert main(["decode", "-i", str(empty), "-o", str(out), "--stats", str(stats)]) == 0
    assert out.read_bytes() == b"" and stats.read_text() == ""


def test_bad_record_in_a_later_block_leaves_no_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(framing, "BLOCK_FRAMES", 3)
    payload, frames = tmp_path / "p.bin", tmp_path / "f.bin"
    records = bytearray(5 * 40)
    records[4 * 40 + 39] = 1  # record 4, in the second block, has bit 319 set
    payload.write_bytes(bytes(records))
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 2
    assert "record at byte 160 has nonzero padding" in capsys.readouterr().err
    assert not frames.exists()


def test_misaligned_decode_stream_leaves_no_output(tmp_path, capsys):
    frames, out, stats = tmp_path / "f.bin", tmp_path / "o.bin", tmp_path / "s.txt"
    frames.write_bytes(bytes(3 * 40 + 1))
    assert main(["decode", "-i", str(frames), "-o", str(out), "--stats", str(stats)]) == 2
    assert "multiple of 40" in capsys.readouterr().err
    assert not out.exists() and not stats.exists()


# Each command that writes files, with {out} (and {stats}) for its outputs.
_WRITERS = {
    "encode-ref": ["encode", "-i", "{payload}", "-o", "{out}", "--encoder", "ref"],
    "encode-lfsr": ["encode", "-i", "{payload}", "-o", "{out}", "--encoder", "lfsr"],
    "encode-parallel": ["encode", "-i", "{payload}", "-o", "{out}", "--encoder", "parallel"],
    "decode-stats": ["decode", "-i", "{frames}", "-o", "{out}", "--stats", "{stats}"],
    "gen-matrix": ["gen-matrix", "-o", "{out}"],
    "emit-netlist": ["emit-netlist", "-o", "{out}"],
}


def _writer_inputs(tmp_path):
    """A three-record payload and its frames, one bit flipped in frame 0."""
    payload, frames = tmp_path / "p.bin", tmp_path / "f.bin"
    payload.write_bytes((bytes(range(33)) + bytes([0b11111100]) + bytes(6)) * 3)
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 0
    data = bytearray(frames.read_bytes())
    data[2] ^= 0x10
    frames.write_bytes(bytes(data))
    return {"payload": str(payload), "frames": str(frames)}


def _run_writer(argv, paths):
    return main([arg.format(**{k: str(v) for k, v in paths.items()}) for arg in argv])


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_an_existing_longer_output_is_rewritten_exactly(tmp_path, capsys, name):
    """Every output over 10 KB more of stale 0xFF bytes than it writes
    ends with exactly the bytes a fresh path gets: no stale tail."""
    argv, inputs = _WRITERS[name], _writer_inputs(tmp_path)
    fresh = {**inputs, "out": tmp_path / "fresh.out", "stats": tmp_path / "fresh.stats"}
    assert _run_writer(argv, fresh) == 0
    stale = {**inputs, "out": tmp_path / "stale.out", "stats": tmp_path / "stale.stats"}
    for key in ("out", "stats"):
        if fresh[key].exists():
            stale[key].write_bytes(b"\xff" * (fresh[key].stat().st_size + 10_000))
    assert _run_writer(argv, stale) == 0
    capsys.readouterr()
    for key in ("out", "stats"):
        if fresh[key].exists():
            assert stale[key].read_bytes() == fresh[key].read_bytes()


@pytest.mark.parametrize("name", sorted(_WRITERS))
@pytest.mark.parametrize("shorter_by", [0, 1, 10_000], ids=["same-size", "1-byte-shorter",
                                                             "much-shorter"])
def test_an_existing_output_no_longer_than_it_is_rewritten_exactly(
        tmp_path, capsys, name, shorter_by):
    """An output whose stale file is as long as what it writes, or shorter
    (so it needs no truncate), also ends with exactly the fresh bytes."""
    argv, inputs = _WRITERS[name], _writer_inputs(tmp_path)
    fresh = {**inputs, "out": tmp_path / "fresh.out", "stats": tmp_path / "fresh.stats"}
    assert _run_writer(argv, fresh) == 0
    stale = {**inputs, "out": tmp_path / "stale.out", "stats": tmp_path / "stale.stats"}
    for key in ("out", "stats"):
        if fresh[key].exists():
            stale[key].write_bytes(b"\xff" * max(fresh[key].stat().st_size - shorter_by, 0))
    assert _run_writer(argv, stale) == 0
    capsys.readouterr()
    for key in ("out", "stats"):
        if fresh[key].exists():
            assert stale[key].read_bytes() == fresh[key].read_bytes()


def test_rewriting_an_output_keeps_its_inode_and_mode(tmp_path):
    paths = {**_writer_inputs(tmp_path), "out": tmp_path / "o.bin", "stats": tmp_path / "s.txt"}
    for key in ("out", "stats"):
        paths[key].write_bytes(b"\xff" * 10_000)
        paths[key].chmod(0o640)
    before = {key: paths[key].stat() for key in ("out", "stats")}
    assert _run_writer(_WRITERS["decode-stats"], paths) == 0
    for key in ("out", "stats"):
        after = paths[key].stat()
        assert (after.st_ino, after.st_mode) == (before[key].st_ino, before[key].st_mode)
        assert after.st_size < 10_000
    # a new output gets the mode open(path, "wb") gives it
    made, new = tmp_path / "made.bin", tmp_path / "new.bin"
    made.write_bytes(b"")
    assert main(["gen-matrix", "-o", str(new)]) == 0
    assert new.stat().st_mode == made.stat().st_mode


def test_outputs_to_the_null_device(tmp_path, capsys):
    paths = {**_writer_inputs(tmp_path), "out": os.devnull, "stats": os.devnull}
    for argv in _WRITERS.values():
        assert _run_writer(argv, paths) == 0
    capsys.readouterr()


def test_outputs_stay_exact_under_short_writes(tmp_path, capsys, monkeypatch):
    """With every os.write taking at most 7 bytes, as a pipe or a signal
    can cut a write short, each command writes what it writes unpatched."""
    inputs = _writer_inputs(tmp_path)
    want = {}
    for name, argv in _WRITERS.items():
        paths = {**inputs, "out": tmp_path / f"{name}.out", "stats": tmp_path / f"{name}.stats"}
        assert _run_writer(argv, paths) == 0
        want[name] = [p.read_bytes() for p in (paths["out"], paths["stats"]) if p.exists()]
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(min(len(data), 7))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(cli.os, "write", short_write)
    for name, argv in _WRITERS.items():
        paths = {**inputs, "out": tmp_path / f"{name}.short", "stats": tmp_path / f"{name}.st"}
        sizes.clear()
        assert _run_writer(argv, paths) == 0
        got = [p.read_bytes() for p in (paths["out"], paths["stats"]) if p.exists()]
        assert got == want[name]
        assert sum(sizes) == sum(map(len, got)) and max(sizes) == 7
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_input_is_read_whole(tmp_path):
    """A FIFO's fstat size is 0, so its bytes come in reads after the
    first: 2,000 records (80,000 bytes) fed by a thread, more than a
    pipe's buffer, encode as the same records in a regular file do."""
    rnd = np.random.default_rng(31)
    records = rnd.integers(0, 256, (2000, 40), dtype=np.uint8)
    records[:, 33] &= 0xFC
    records[:, 34:] = 0
    payload, fifo = tmp_path / "p.bin", tmp_path / "p.fifo"
    payload.write_bytes(records.tobytes())
    os.mkfifo(fifo)
    assert os.stat(fifo).st_size == 0

    def feed():
        with open(fifo, "wb") as fh:
            for k in range(0, len(records), 300):
                fh.write(records[k:k + 300].tobytes())

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    assert main(["encode", "-i", str(fifo), "-o", str(tmp_path / "fifo.bin")]) == 0
    feeder.join(timeout=30)
    assert not feeder.is_alive()
    assert main(["encode", "-i", str(payload), "-o", str(tmp_path / "file.bin")]) == 0
    assert (tmp_path / "fifo.bin").read_bytes() == (tmp_path / "file.bin").read_bytes()
    assert len((tmp_path / "fifo.bin").read_bytes()) == 80_000


def test_a_bad_record_leaves_an_existing_output_untouched(tmp_path, capsys):
    payload, frames = tmp_path / "p.bin", tmp_path / "f.bin"
    payload.write_bytes(bytes(40) + bytes(39) + bytes([1]))  # record 1 has bit 319 set
    old = bytes(range(256)) * 40
    frames.write_bytes(old)
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 2
    assert "record at byte 40 has nonzero padding" in capsys.readouterr().err
    assert frames.read_bytes() == old


def test_a_failure_mid_write_leaves_the_blocks_written(tmp_path, capsys, monkeypatch):
    """The output is cut at the last byte written even when a later block
    fails, so no stale tail follows the frames of the earlier blocks."""
    payload, frames = tmp_path / "p.bin", tmp_path / "f.bin"
    payload.write_bytes(bytes(40 * 3))
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 0
    first = frames.read_bytes()[:40]
    frames.write_bytes(b"\xff" * 10_000)
    monkeypatch.setattr(framing, "BLOCK_FRAMES", 1)
    encode_frames, calls = framing.encode_frames, []

    def fail_on_the_second_block(info, encoder):
        assert info.shape == (1, framing.INFO_BYTES)  # the record's info bytes
        calls.append(len(info))
        if len(calls) == 2:
            raise ValueError("injected failure")
        return encode_frames(info, encoder=encoder)

    monkeypatch.setattr(cli, "encode_frames", fail_on_the_second_block)
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 2
    assert "injected failure" in capsys.readouterr().err
    assert frames.read_bytes() == first


def test_a_failure_mid_decode_leaves_the_records_written_and_no_stats(
        tmp_path, capsys, monkeypatch):
    """decode writes each block's records as it goes, so a later block's
    failure keeps the earlier records, with no stale tail; the stats file
    is written only after every block has decoded, so it is not made."""
    payload, frames, out, stats = (tmp_path / name for name in
                                   ("p.bin", "f.bin", "o.bin", "s.txt"))
    payload.write_bytes(bytes(range(33)) + bytes([0b11111100]) + bytes(6) + bytes(80))
    assert main(["encode", "-i", str(payload), "-o", str(frames)]) == 0
    out.write_bytes(b"\xff" * 10_000)
    monkeypatch.setattr(framing, "BLOCK_FRAMES", 1)
    decode_frames, calls = framing.decode_frames, []

    def fail_on_the_second_block(block):
        calls.append(len(block))
        if len(calls) == 2:
            raise ValueError("injected failure")
        return decode_frames(block)

    monkeypatch.setattr(cli, "decode_frames", fail_on_the_second_block)
    assert main(["decode", "-i", str(frames), "-o", str(out), "--stats", str(stats)]) == 2
    assert "injected failure" in capsys.readouterr().err
    assert calls == [1, 1]
    assert out.read_bytes() == payload.read_bytes()[:40]
    assert not stats.exists()
    # nor is an existing stats file opened
    stats.write_text("old\n")
    calls.clear()
    assert main(["decode", "-i", str(frames), "-o", str(out), "--stats", str(stats)]) == 2
    assert stats.read_text() == "old\n"
    capsys.readouterr()


def _codec_and_simulate_outputs(tmp_path, capsys):
    """Every encoder's frames, decode output and stats of a noisy stream,
    and the pinned simulate record."""
    tmp_path.mkdir()
    rng = np.random.default_rng(8)
    records = rng.integers(0, 2, (10, 320), dtype=np.uint8)
    records[:, 270:] = 0
    payload = tmp_path / "p.bin"
    payload.write_bytes(np.packbits(records, axis=1).tobytes())
    outputs = []
    for encoder in ("parallel", "ref", "lfsr"):
        frames = tmp_path / f"f_{encoder}.bin"
        assert main(["encode", "-i", str(payload), "-o", str(frames),
                     "--encoder", encoder]) == 0
        outputs.append(frames.read_bytes())
    bits = np.unpackbits(np.frombuffer(outputs[0], np.uint8))
    noisy = tmp_path / "noisy.bin"
    noisy.write_bytes(np.packbits(bits ^ (rng.random(bits.size) < 0.01)).tobytes())
    out, stats = tmp_path / "o.bin", tmp_path / "s.txt"
    assert main(["decode", "-i", str(noisy), "-o", str(out), "--stats", str(stats)]) == 0
    outputs += [out.read_bytes(), stats.read_text()]
    capsys.readouterr()
    assert main(["simulate", "--ber", "0.002", "--burst-len", "6",
                 "--burst-rate", "0.1", "--frames", "400", "--seed", "42"]) == 0
    return outputs + [capsys.readouterr().out]


def test_block_size_changes_no_output(tmp_path, capsys, monkeypatch):
    whole = _codec_and_simulate_outputs(tmp_path / "whole", capsys)
    statuses = {tok.split("=")[1] for tok in whole[4].split() if tok.startswith("status_")}
    assert statuses == {"ok", "corrected", "uncorrectable"}
    monkeypatch.setattr(framing, "BLOCK_FRAMES", 3)
    assert _codec_and_simulate_outputs(tmp_path / "blocks", capsys) == whole


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_is_a_data_error(seed, capsys):
    assert main(["simulate", "--ber", "1e-3", "--frames", "2", "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rs3127: error: seed must be in [0, 2**64)")
    assert "Traceback" not in err
    assert main(["sweep", "--ber-list", "1e-3", "--frames", "2", "--seed", seed]) == 2
    assert main(["simulate", "--ber", "1e-3", "--frames", "2", "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("rate", ["nan", "inf", "320.5", "1e9", "320"])
def test_a_non_finite_burst_rate_is_a_data_error(rate, capsys):
    """A burst rate that is not finite, or above 320 expected bursts per
    frame (one per frame bit), exits 2 with one line and no traceback;
    320 itself runs."""
    argv = ["simulate", "--ber", "0", "--burst-len", "6", "--burst-rate", rate, "--frames", "4"]
    bound = "at most 320" if math.isfinite(float(rate)) else "finite"
    error = "" if rate == "320" else (
        f"rs3127: error: burst_rate must be {bound}, got {float(rate)}\n")
    assert main(argv) == (2 if error else 0)
    captured = capsys.readouterr()
    assert captured.err == error
    assert (captured.out == "") == bool(error)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["simulate", "--ber", "1e-3", "--burst-len", "6", "--burst-rate", "0.1",
            "--frames", "50", "--seed", "3"]
    assert main(argv) == 0
    src = str(Path(rs3127.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "rs3127", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out
