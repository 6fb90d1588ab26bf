"""RS(31,27) codec toolkit over GF(32).

Three equivalent systematic encoders (reference long division, a
cycle-accurate serial LFSR, and a one-shot parallel form whose matrix
is probed from the LFSR), an XOR3-tree netlist generator for the parallel
form, a decoder that looks every fix up in one table of syndrome classes
(with inverse-free Berlekamp-Massey, Chien search and Forney as its
reference), the 320-bit interleaved frame format, and a channel-error
simulation harness.
"""

from .gf32 import gf_inv, gf_mul, gf_pow
from .rs_core import (GENERATOR_POLY, K_SYMBOLS, N_SYMBOLS, build_generator_poly,
                      encode_reference, is_codeword)
from .serial_encoder import lfsr_encode
from .parallel_gen import (build_xor3_network, default_parity_matrix, derive_parity_matrix,
                           expected_depth, matrix_from_text, parse_netlist)
from .parallel_encoder import bits_to_message, encode_parallel, message_to_bits, parity_bits
from .decoder import (CORRECTED, OK, UNCORRECTABLE, chien_search, compute_syndromes,
                      decode, forney, solve_locator)
from .framing import (DEFAULT_SYNC_HEADER, build_frame, bytes_to_frame, deinterleave,
                      descramble, frame_to_bytes, interleave, scramble, unframe)
from .harness import (ChannelConfig, TrialStats, apply_channel, emit_stats,
                      frame_rng, run_simulation, run_sweep)

__all__ = [
    "gf_inv", "gf_mul", "gf_pow",
    "GENERATOR_POLY", "K_SYMBOLS", "N_SYMBOLS",
    "build_generator_poly", "encode_reference", "is_codeword",
    "lfsr_encode",
    "build_xor3_network", "default_parity_matrix", "derive_parity_matrix",
    "expected_depth", "matrix_from_text", "parse_netlist",
    "bits_to_message", "encode_parallel", "message_to_bits", "parity_bits",
    "CORRECTED", "OK", "UNCORRECTABLE",
    "chien_search", "compute_syndromes", "decode", "forney", "solve_locator",
    "DEFAULT_SYNC_HEADER", "build_frame", "bytes_to_frame", "deinterleave",
    "descramble", "frame_to_bytes", "interleave", "scramble", "unframe",
    "ChannelConfig", "TrialStats", "apply_channel", "emit_stats",
    "frame_rng", "run_simulation", "run_sweep",
]
