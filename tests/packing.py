"""Tests write frames as uint8[N, 320] bits and info as uint8[N, 270] bits;
the batch kernels take and give bytes. These pack one into the other."""

import numpy as np

from rs3127.framing import INFO_BITS_PER_FRAME, decode_frames, encode_frames


def encode_bit_frames(info, encoder="parallel"):
    """encode_frames on info bits, uint8[N, 270]: each row packed into its
    34 record bytes, and the wire bytes unpacked into uint8[N, 320]."""
    info = np.asarray(info, np.uint8).reshape(len(info), INFO_BITS_PER_FRAME)
    return np.unpackbits(encode_frames(np.packbits(info, axis=1), encoder=encoder), axis=1)


def decode_bit_frames(frames):
    """decode_frames on frames of bits: each row packed into its 40 wire
    bytes, and the info unpacked into uint8[N, 270]. ok, nu and header_ok
    are decode_frames' own."""
    info, ok, nu, header_ok = decode_frames(np.packbits(np.asarray(frames, np.uint8), axis=1))
    return np.unpackbits(info, axis=1)[:, :INFO_BITS_PER_FRAME], ok, nu, header_ok
