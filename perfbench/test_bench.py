"""Self-tests of the benchmark: the reference model matches the package,
every output check passes on real outputs and fails on a corrupted one,
and the tracer wraps every import site.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refcodec as ref  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

import rs3127  # noqa: E402
from rs3127 import cli, decoder, framing, harness  # noqa: E402,F401


@pytest.fixture
def workdir():
    path = HERE / "out" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small(cls, **attrs):
    return type(cls.__name__, (cls,), {"items": 2, "min_steps": 2, **attrs})


def test_reference_model_matches_package():
    info = np.random.default_rng(0).integers(0, 2, (20, ref.INFO_BITS), dtype=np.uint8)
    frames = ref.build_frames(info)
    for i, f in zip(info, frames):
        assert framing.build_frame(i.tolist()) == f.tolist()
    assert np.array_equal(ref.passthrough_info(frames), info)
    assert ref.GEN == rs3127.GENERATOR_POLY


def test_symbol_weights_follow_the_interleave():
    flips = np.zeros((1, ref.FRAME_BITS), np.uint8)
    flips[0, [3, 10, 14, 15, 20, 319]] = 1  # header, A0 twice, B0, A1, B30
    assert ref.symbol_weights(flips).tolist() == [[2, 2]]


def test_stream_check_passes_real_outputs_and_catches_corruption(workdir):
    wl = _small(W.StreamClean, FRAMES=4)(rs3127, 1, workdir)
    step = wl.step(0)
    assert step.failed == 0 and step.attempted == 16
    info_len = 4 * ref.FRAME_BYTES
    outs = {enc: step.output[i * info_len:(i + 1) * info_len]
            for i, enc in enumerate((*W.ENCODERS, "decode"))}
    assert W.check_stream(wl.records[0], wl.expected[0], outs) == 0
    for key in outs:
        bad = bytearray(outs[key])
        bad[45] ^= 1  # frame 1
        assert W.check_stream(wl.records[0], wl.expected[0], {**outs, key: bytes(bad)}) >= 1
    assert W.check_stream(wl.records[0], wl.expected[0], {**outs, "decode": b""}) == 4


def _noisy(workdir):
    wl = _small(W.DecodeNoisy, FRAMES=64)(rs3127, 3, workdir)
    step = wl.step(0)
    assert step.failed == 0
    nbytes = wl.FRAMES * ref.FRAME_BYTES
    return wl, step.output[:nbytes], step.output[nbytes:].decode("ascii")


def test_noisy_check_covers_every_weight_class(workdir):
    wl, decoded, stats = _noisy(workdir)
    failed, outcomes = W.check_noisy(decoded, stats, *wl.chunks[0])
    assert failed == 0
    assert outcomes["ok"] and outcomes["corrected"] and outcomes["uncorrectable"]


def _corrupt_line(stats, frame, key, value):
    lines = stats.splitlines()
    tokens = dict(tok.split("=", 1) for tok in lines[frame].split())
    tokens[key] = value
    lines[frame] = " ".join(f"{k}={v}" for k, v in tokens.items())
    return "\n".join(lines) + "\n"


def test_noisy_check_catches_wrong_status_payload_and_header(workdir):
    wl, decoded, stats = _noisy(workdir)
    info, weights, header_hit, passthrough = wl.chunks[0]
    check = lambda d, s: W.check_noisy(d, s, *wl.chunks[0])[0]  # noqa: E731

    f, h = np.argwhere((weights >= 1) & (weights <= 2))[0].tolist()
    assert check(decoded, _corrupt_line(stats, f, f"status_{'ab'[h]}", "ok")) == 1
    assert check(decoded, _corrupt_line(stats, f, f"corrected_{'ab'[h]}", "3")) == 1
    bits = ref.from_bytes(decoded).copy()
    bits[f, h * ref.HALF_BITS] ^= 1
    assert check(ref.to_bytes(bits), stats) == 1

    lines = W._parse_records(stats)
    f, h = next((f, h) for f, h in np.argwhere(weights >= 3).tolist()
                if lines[f][f"status_{'ab'[h]}"] == "uncorrectable")
    bits = ref.from_bytes(decoded).copy()
    bits[f, h * ref.HALF_BITS + 7] ^= 1  # no longer the received message region
    assert check(ref.to_bytes(bits), stats) == 1
    assert check(decoded, _corrupt_line(stats, 0, "header_ok", str(int(header_hit[0])))) == 1
    assert check(decoded[:-1], stats) == wl.FRAMES


def test_noisy_check_does_not_trust_the_decoder(workdir):
    """A receiver that reports every codeword clean and passes the received
    message through fails on every corrupted codeword of weight 1..2."""
    wl, _, _ = _noisy(workdir)
    info, weights, header_hit, passthrough = wl.chunks[0]
    fake_stats = "".join(
        f"frame={f} status_a=ok corrected_a=0 status_b=ok corrected_b=0 "
        f"header_ok={int(not header_hit[f])}\n" for f in range(len(info)))
    fake = ref.to_bytes(ref.records(passthrough))
    failed, _ = W.check_noisy(fake, fake_stats, *wl.chunks[0])
    assert failed == int(((weights >= 1) & (weights <= 2)).any(axis=1).sum()) > 0


def test_sim_check_and_repeat_check():
    cfg = harness.ChannelConfig(ber=1e-2, burst_len=6, burst_rate=0.5, seed=4, frames=8)
    record = harness.emit_stats([(cfg, harness.run_simulation(cfg))])
    assert W.check_sim_record(record, 8)
    assert not W.check_sim_record(record, 9)
    stats = harness.run_simulation(cfg)
    stats.frames_recovered = stats.frames_err_pre + 1
    assert not W.check_sim_record(harness.emit_stats([(cfg, stats)]), 8)
    assert not W.check_sim_record("", 8)
    seen = {}
    assert W.check_repeat(seen, 0, record.encode())
    assert W.check_repeat(seen, 0, record.encode())
    assert not W.check_repeat(seen, 0, record.replace("seed=4", "seed=5").encode())


def test_frame_latency_check_catches_a_wrong_payload(workdir):
    good = _small(W.FrameLatency)(rs3127, 5, workdir)
    assert good.step(0).failed == 0

    def unframe(frame):
        res = framing.unframe(frame)
        res.info[0] ^= 1
        return res

    rs = SimpleNamespace(framing=SimpleNamespace(build_frame=framing.build_frame,
                                                 unframe=unframe))
    assert _small(W.FrameLatency)(rs, 5, workdir).step(0).failed == 1


def test_tracer_wraps_every_import_site_and_restores_them():
    original = decoder.decode
    tracer = Tracer()
    assert tracer.install() == []
    try:
        assert framing.decode is decoder.decode is rs3127.decode
        assert decoder.decode is not original
        assert framing.descramble is framing.scramble
        framing.unframe(framing.build_frame([0] * ref.INFO_BITS))
    finally:
        tracer.uninstall()
    assert framing.decode is original and decoder.decode is original
    stats = tracer.layer_stats()
    assert stats["framing.unframe"][0] == 1 and stats["decoder.decode"][0] == 2
    assert stats["framing.scramble"][0] == 2  # scramble, then descramble
    assert tracer.outcomes["ok"] == 2
    assert stats["decoder.decode"][2] >= stats["decoder.compute_syndromes"][2]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [("cli.main", 0, 100, -1, 0), ("framing.unframe", 10, 40, 0, 0),
                       ("decoder.decode", 15, 25, 1, 0), ("framing.unframe", 50, 70, 0, 0)]
    stats = tracer.layer_stats()
    assert stats["cli.main"] == (1, 50e-9, 100e-9)
    assert stats["framing.unframe"] == (2, 40e-9, 50e-9)
    assert stats["decoder.decode"] == (1, 10e-9, 10e-9)


@pytest.mark.parametrize("cls", list(W.WORKLOADS.values()))
def test_zero_call_predictions_hold_and_can_fail(cls, workdir):
    wl = _small(cls, **({"FRAMES": 16} if hasattr(cls, "FRAMES") else {}))(rs3127, 2, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(wl.items):
            assert wl.step(i).failed == 0
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert W.zero_call_violations(wl.must_not_call, stats) == []
    for name in wl.must_not_call:
        assert W.zero_call_violations(wl.must_not_call, {**stats, name: (1, 0.0, 0.0)}) == [name]


def test_stream_clean_bypasses_correction_and_decode_noisy_uses_it():
    assert "decoder.solve_locator" in W.StreamClean.must_not_call
    assert "decoder.solve_locator" not in W.DecodeNoisy.must_not_call
    assert all(W.HARNESS <= wl.must_not_call for wl in W.WORKLOADS.values()
               if wl.name != "simulate")


def test_run_refuses_a_tree_without_the_package():
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
