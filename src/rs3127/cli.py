"""Command-line front end: codegen, codec, framing and simulation as
subcommands.

Payload files are streamed in 40-byte records: the 270 payload bits of
one frame occupy record bits 0..269 (big-endian bit order) and the
trailing 50 bits must be zero. A final partial record is zero-padded.
With that convention `encode | decode` round-trips byte-identically.
Both commands push the records through the batch kernels in blocks of
framing.BLOCK_FRAMES frames as bytes, the info bytes of each record to
`encode_frames` and the frames as read to `decode_frames`: neither
unpacks a bit.
Every output file is rewritten in place and then, if it was longer, cut
to length, never truncated first: on ext4 mounted with `discard`,
freeing a file's blocks (truncate, unlink or rename over it) took
40-150 ms, against well under 1 ms to overwrite them.
Files are read and written on their raw descriptors, with no buffered
file object, which about halved the fixed I/O cost of a 128-frame call.
A read is sized by the file's size, not by a fixed buffer, so a regular
file is read, and held, once; a pipe or FIFO, whose size reads 0, is
read a pipe's buffer at a time to its end.

Exit codes: 0 success, 1 usage error, 2 data/format error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys

import numpy as np

from .decoder import CORRECTED, OK, UNCORRECTABLE
from .framing import (FRAME_BYTES, INFO_BITS_PER_FRAME, INFO_BYTES, decode_frames,
                      encode_frames, frame_blocks)
from .harness import ChannelConfig, emit_stats, run_simulation, run_sweep
from .parallel_gen import (build_xor3_network, derive_parity_matrix,
                           emit_netlist, matrix_from_text, matrix_to_text,
                           parse_netlist, N_INFO_BITS)

# The reference design's fan-in matches the mean row (1,408 taps / 20), not the widest.
REFERENCE_DESIGN_FANIN = 70
REFERENCE_DESIGN_DEPTH = 4

_ENCODER_NAMES = {"ref": "reference", "lfsr": "lfsr", "parallel": "parallel"}
# Bytes per read of an input whose size reads 0 (a FIFO or device): a
# Linux pipe's default buffer.
_PIPE_BUFFER = 1 << 16


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Output:
    """A binary output on path's raw descriptor, the file created if
    missing; `write` writes all of its bytes (or array), looping over
    short writes. An existing file is overwritten in place and then, if it
    was longer, truncated at the last byte written, so it ends with the
    bytes, inode and mode that opening with O_TRUNC gives, without freeing
    its blocks first. Only a regular file is truncated, so devices and
    pipes work too, and a same-size rewrite makes no truncate call."""

    def __init__(self, path: str) -> None:
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        self.written = 0

    def __enter__(self) -> _Output:
        return self

    def write(self, data) -> None:
        view = memoryview(data).cast("B")
        while view:
            count = os.write(self.fd, view)
            view = view[count:]
            self.written += count

    def __exit__(self, *exc_info) -> None:
        try:
            status = os.fstat(self.fd)
            if stat.S_ISREG(status.st_mode) and status.st_size > self.written:
                os.ftruncate(self.fd, self.written)
        finally:
            os.close(self.fd)


def _read(path: str) -> bytes:
    """The bytes of the file at path, read on its raw descriptor to its
    end. Each read asks for one byte more than fstat's size, so a regular
    file takes one read and one that finds its end; a FIFO or device,
    which reports size 0, is read a pipe's buffer at a time."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks, size = [], os.fstat(fd).st_size
        while chunk := os.read(fd, size + 1 if size else _PIPE_BUFFER):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


def _read_ascii(path: str) -> str:
    """A netlist or matrix file's text; a non-ASCII byte names its line."""
    data = _read(path)
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {lineno}: non-ASCII byte 0x{data[exc.start]:02x}") from None


def _load_matrix(path: str | None):
    if path is None:
        return derive_parity_matrix()
    return matrix_from_text(_read_ascii(path))


def _cmd_gen_matrix(args) -> int:
    with _Output(args.output) as fh:
        fh.write(matrix_to_text(derive_parity_matrix()).encode("ascii"))
    return 0


def _cmd_emit_netlist(args) -> int:
    matrix = _load_matrix(args.matrix)
    net = build_xor3_network(matrix)
    with _Output(args.output) as fh:
        fh.write(emit_netlist(net).encode("ascii"))
    print(f"max fan-in: {matrix.max_fanin} (reference design: {REFERENCE_DESIGN_FANIN})")
    print(f"max XOR3 depth: {net.max_depth} (reference design: {REFERENCE_DESIGN_DEPTH})")
    return 0


def _cmd_check_netlist(args) -> int:
    """Proof, not a sample: parse_netlist admits only XOR3 gates over
    inputs, earlier wires and ZERO, so every netlist is GF(2)-linear and
    its output masks, read off the gates, decide equality on all inputs."""
    net = parse_netlist(_read_ascii(args.netlist))
    diffs = [a ^ b for a, b in zip(net.bitmasks, _load_matrix(args.matrix).bitmasks)]
    # (lowest differing information bit, output) of every differing output
    mismatches = [((d & -d).bit_length() - 1, k) for k, d in enumerate(diffs) if d]
    if mismatches:
        bit, k = min(mismatches)
        print(f"mismatch: output p{k} on information bit d{bit}", file=sys.stderr)
        return 2
    print(f"equivalent on all 2^{N_INFO_BITS} inputs")
    return 0


# `decode --stats` line of a frame after its `frame=<i>`, indexed by
# 8 * state A + 2 * state B + header_ok. A codeword's state is ok + nu: 0
# uncorrectable, 1 ok, 2 and 3 corrected with 1 and 2 symbols (decode_frames
# gives nu = 0 whenever ok is False).
_STATES = ((UNCORRECTABLE, 0), (OK, 0), (CORRECTED, 1), (CORRECTED, 2))
_STATS_SUFFIX = tuple(
    f" status_a={status_a} corrected_a={count_a}"
    f" status_b={status_b} corrected_b={count_b} header_ok={good}\n"
    for (status_a, count_a), (status_b, count_b), good in itertools.product(
        _STATES, _STATES, (0, 1)))

# Record bits INFO_BITS_PER_FRAME..319 (the low bits, big-endian) must be
# zero; they lie in the record's last FRAME_BYTES - INFO_BYTES + 1 bytes.
_PADDING_MASK = np.frombuffer(
    ((1 << (8 * FRAME_BYTES - INFO_BITS_PER_FRAME)) - 1).to_bytes(FRAME_BYTES, "big"),
    np.uint8)[INFO_BYTES - 1:]


def _cmd_encode(args) -> int:
    data = _read(args.input)
    data += bytes(-len(data) % FRAME_BYTES)
    records = np.frombuffer(data, np.uint8).reshape(-1, FRAME_BYTES)
    # Check every record first, so a bad one leaves no partial output file.
    padding = records[:, INFO_BYTES - 1:] & _PADDING_MASK
    if padding.any():
        bad = np.flatnonzero(padding.any(axis=1))[0]
        raise ValueError(
            f"payload record at byte {bad * FRAME_BYTES} has nonzero padding bits "
            f"(bits {INFO_BITS_PER_FRAME}..319 must be zero)")
    with _Output(args.output) as fh:
        for block in frame_blocks(0, len(records)):
            info = records[block.start:block.stop, :INFO_BYTES]
            fh.write(encode_frames(info, encoder=_ENCODER_NAMES[args.encoder]))
    return 0


def _cmd_decode(args) -> int:
    data = _read(args.input)
    if len(data) % FRAME_BYTES:
        raise ValueError(f"frame stream length {len(data)} is not a multiple of {FRAME_BYTES}")
    frames = np.frombuffer(data, np.uint8).reshape(-1, FRAME_BYTES)
    stats_lines = []
    with _Output(args.output) as fh:
        for block in frame_blocks(0, len(frames)):
            info, ok, nu, header_ok = decode_frames(frames[block.start:block.stop])
            records = np.zeros((len(block), FRAME_BYTES), np.uint8)
            records[:, :INFO_BYTES] = info
            fh.write(records)
            if args.stats:
                state = (ok + nu).reshape(-1, 2)
                suffix = (8 * state[:, 0] + 2 * state[:, 1] + header_ok).tolist()
                stats_lines += [f"frame={index}{_STATS_SUFFIX[code]}"
                                for index, code in zip(block, suffix)]
    if args.stats:
        with _Output(args.stats) as fh:
            fh.write("".join(stats_lines).encode("ascii"))
    return 0


def _channel_config(args, ber: float) -> ChannelConfig:
    return ChannelConfig(ber=ber, burst_len=args.burst_len,
                         burst_rate=args.burst_rate, seed=args.seed,
                         frames=args.frames)


def _cmd_simulate(args) -> int:
    cfg = _channel_config(args, args.ber)
    stats = run_simulation(cfg, jobs=args.jobs)
    sys.stdout.write(emit_stats([(cfg, stats)], csv=args.csv))
    return 0


def _cmd_sweep(args) -> int:
    try:
        bers = [float(tok) for tok in args.ber_list.split(",") if tok]
    except ValueError:
        raise ValueError(f"--ber-list must be comma-separated floats, got {args.ber_list!r}")
    if not bers:
        raise ValueError("--ber-list is empty")
    cfgs = [_channel_config(args, ber) for ber in bers]
    stats = run_sweep(cfgs, jobs=args.jobs)
    sys.stdout.write(emit_stats(list(zip(cfgs, stats)), csv=args.csv))
    return 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_channel_flags(sub) -> None:
    sub.add_argument("--burst-len", type=int, default=0)
    sub.add_argument("--burst-rate", type=float, default=0.0)
    sub.add_argument("--frames", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--jobs", type=_positive_int, default=1)
    sub.add_argument("--csv", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser; parse_args makes a new namespace on every call, so
    main builds it once per process. Its `commands` maps each subcommand
    name to that subcommand's parser."""
    parser = _Parser(prog="rs3127", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("gen-matrix", help="derive and write the parity matrix")
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(func=_cmd_gen_matrix)

    sub = subs.add_parser("emit-netlist", help="build the XOR3 network and write the netlist")
    sub.add_argument("-m", "--matrix", help="matrix file (derived if omitted)")
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(func=_cmd_emit_netlist)

    sub = subs.add_parser("check-netlist", help="prove the netlist computes the matrix")
    sub.add_argument("-n", "--netlist", required=True)
    sub.add_argument("-m", "--matrix", help="matrix file (derived if omitted)")
    sub.set_defaults(func=_cmd_check_netlist)

    sub = subs.add_parser("encode", help="payload records -> 40-byte frames")
    sub.add_argument("-i", "--input", required=True)
    sub.add_argument("-o", "--output", required=True)
    sub.add_argument("--encoder", choices=sorted(_ENCODER_NAMES), default="parallel")
    sub.set_defaults(func=_cmd_encode)

    sub = subs.add_parser("decode", help="frames -> payload records (+ per-frame status)")
    sub.add_argument("-i", "--input", required=True)
    sub.add_argument("-o", "--output", required=True)
    sub.add_argument("--stats", help="write per-frame decode status lines here")
    sub.set_defaults(func=_cmd_decode)

    sub = subs.add_parser("simulate", help="full-chain channel trial, stats to stdout")
    sub.add_argument("--ber", type=float, required=True)
    _add_channel_flags(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("sweep", help="one stats record per BER point")
    sub.add_argument("--ber-list", required=True)
    _add_channel_flags(sub)
    sub.set_defaults(func=_cmd_sweep)

    parser.commands = subs.choices
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), through the named subcommand's parser alone
    when it leaves no argument over; else (no subcommand, or an argument
    left over) through the full parser. The full parser hands the rest of
    argv to that same subparser, so every namespace, usage message and
    exit code is the same, at under half the cost per call."""
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"rs3127: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
