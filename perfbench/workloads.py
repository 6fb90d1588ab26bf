"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the seed once, then runs steps. A step
is one item (a chunk file, a channel config or a payload) pushed through
the public entry points: `cli.main`, `harness.run_simulation`, or the
`framing.build_frame`/`unframe` scalar API. Only the calls into the
package are timed; each step's outputs are then checked against the
independent model in refcodec, never against the package itself.

Items are cycled, so every item runs more than once in a run; run.py
requires a repeated item to give byte-identical output.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import refcodec as ref

ENCODERS = ("parallel", "ref", "lfsr")
HARNESS = {"harness.run_simulation", "harness.frame_rng", "harness.apply_channel"}
CORRECTION = {"decoder.solve_locator", "decoder.chien_search", "decoder.forney",
              "rs_core.is_codeword"}
SLOW_ENCODERS = {"rs_core.encode_reference", "serial_encoder.lfsr_encode"}


@dataclass
class Step:
    calls: list            # (kind, frames, seconds) per timed call into the package
    attempted: int         # frames whose output was checked
    failed: int            # of those, frames whose output failed the check
    output: bytes          # everything the step produced, for repeat comparison
    outcomes: Counter = field(default_factory=Counter)


def _frame_mismatch(got: bytes, want: bytes) -> np.ndarray:
    """Per 40-byte frame of `want`: True where `got` differs or is missing."""
    n = len(want) // ref.FRAME_BYTES
    bad = np.ones(n, dtype=bool)
    m = min(n, len(got) // ref.FRAME_BYTES)
    if m:
        a = np.frombuffer(got[:m * ref.FRAME_BYTES], np.uint8).reshape(m, -1)
        b = np.frombuffer(want[:m * ref.FRAME_BYTES], np.uint8).reshape(m, -1)
        bad[:m] = (a != b).any(axis=1)
    if len(got) != len(want):
        bad[m:] = True
    return bad


def check_stream(records: bytes, expected: bytes, outs: dict[str, bytes]) -> int:
    """stream_clean: each encoder's frames equal the model's and each other's
    byte for byte, and decoding gives back the input records. Returns the
    number of failed frame outputs (up to 4 per frame)."""
    failed = 0
    for enc in ENCODERS:
        failed += int((_frame_mismatch(outs[enc], expected)
                       | _frame_mismatch(outs[enc], outs["parallel"])).sum())
    return failed + int(_frame_mismatch(outs["decode"], records).sum())


def _parse_records(text: str) -> list[dict[str, str]]:
    return [dict(tok.split("=", 1) for tok in line.split()) for line in text.splitlines()]


def check_noisy(decoded: bytes, stats: str, info: np.ndarray, weights: np.ndarray,
                header_hit: np.ndarray, passthrough: np.ndarray) -> tuple[int, Counter]:
    """decode_noisy: judged by the symbol-error weight the benchmark injected.
    Weight 0 must be `ok`, weight 1..2 `corrected` with that many symbols,
    both giving the original payload. Weight >= 3 must be `uncorrectable`
    with the received message region passed through, or else be a
    miscorrection (a wrong payload under `ok`/`corrected`). Returns
    (failed frames, codeword outcome counts)."""
    n = len(info)
    outcomes: Counter = Counter()
    if len(decoded) != n * ref.FRAME_BYTES:
        return n, outcomes
    bits = ref.from_bytes(decoded)
    try:
        lines = _parse_records(stats)
    except ValueError:
        return n, outcomes
    failed = 0
    for f in range(n):
        line = lines[f] if f < len(lines) else {}
        ok = (line.get("frame") == str(f) and not bits[f, ref.INFO_BITS:].any()
              and line.get("header_ok") == str(int(not header_hit[f])))
        for h, tag in enumerate("ab"):
            lo, hi = h * ref.HALF_BITS, (h + 1) * ref.HALF_BITS
            got = bits[f, lo:hi]
            original = np.array_equal(got, info[f, lo:hi])
            status = line.get(f"status_{tag}")
            corrected = line.get(f"corrected_{tag}")
            w = int(weights[f, h])
            if w == 0:
                ok &= status == "ok" and corrected == "0" and original
                outcomes["ok"] += 1
            elif w <= 2:
                ok &= status == "corrected" and corrected == str(w) and original
                outcomes["corrected"] += 1
            elif status == "uncorrectable":
                ok &= corrected == "0" and np.array_equal(got, passthrough[f, lo:hi])
                outcomes["uncorrectable"] += 1
            else:
                ok &= status in ("ok", "corrected") and not original
                outcomes["miscorrected"] += 1
        failed += not ok
    return failed, outcomes


SIM_FIELDS = ("frames", "frames_total", "frames_err_pre", "frames_err_post",
              "frames_recovered", "miscorrections", "detected_uncorrectable",
              "bit_err_pre", "bit_err_post")


def check_sim_record(record: str, frames: int) -> bool:
    """simulate: one record whose counters obey their invariants."""
    try:
        (rec,) = _parse_records(record)
        c = {k: int(rec[k]) for k in SIM_FIELDS}
    except (ValueError, KeyError):
        return False
    return (c["frames"] == c["frames_total"] == frames
            and 0 <= c["frames_recovered"] <= c["frames_err_pre"] <= frames
            and c["frames_err_pre"] - c["frames_recovered"] <= c["frames_err_post"] <= frames
            and c["bit_err_pre"] >= c["frames_err_pre"]
            and c["bit_err_post"] >= c["frames_err_post"]
            and 0 <= c["miscorrections"] + c["detected_uncorrectable"] <= 2 * frames)


def zero_call_violations(must_not_call: set, layer_stats: dict) -> list[str]:
    """Functions a workload claims to bypass that the traced pass saw called."""
    return sorted(n for n in must_not_call if layer_stats.get(n, (0,))[0])


def check_repeat(seen: dict, item: int, output: bytes) -> bool:
    """The first output of an item is kept; a later one must equal it."""
    return seen.setdefault(item, output) == output


class Workload:
    name = ""
    items = 1          # distinct inputs, cycled
    min_steps = 1
    must_not_call: set = set()

    def __init__(self, rs, seed: int, workdir) -> None:
        self.rs = rs
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.workdir = workdir

    def _cli(self, argv) -> tuple[int, float]:
        start = time.perf_counter()
        rc = self.rs.cli.main([str(a) for a in argv])
        return rc, time.perf_counter() - start

    def input_facts(self) -> str:
        raise NotImplementedError

    def step(self, index: int) -> Step:
        raise NotImplementedError


class StreamClean(Workload):
    """CLI encode with each encoder, then CLI decode on a clean channel."""

    name = "stream_clean"
    items = 4
    FRAMES = 128
    min_steps = items
    must_not_call = HARNESS | CORRECTION

    def __init__(self, rs, seed, workdir):
        super().__init__(rs, seed, workdir)
        info = self.rng.integers(0, 2, (self.items, self.FRAMES, ref.INFO_BITS), dtype=np.uint8)
        self.records, self.expected, self.inputs = [], [], []
        for k in range(self.items):
            self.records.append(ref.to_bytes(ref.records(info[k])))
            self.expected.append(ref.to_bytes(ref.build_frames(info[k])))
            path = workdir / f"stream_clean_{k}.rec"
            path.write_bytes(self.records[k])
            self.inputs.append(path)

    def input_facts(self):
        return f"items={self.items} frames_per_call={self.FRAMES} record_bytes={ref.FRAME_BYTES}"

    def step(self, index):
        k = index % self.items
        calls, outs = [], {}
        for enc in ENCODERS:
            out = self.workdir / f"stream_clean_{enc}.frames"
            rc, secs = self._cli(["encode", "-i", self.inputs[k], "-o", out, "--encoder", enc])
            calls.append((f"encode_{enc}", self.FRAMES, secs))
            outs[enc] = out.read_bytes() if rc == 0 else b""
        out = self.workdir / "stream_clean.dec"
        rc, secs = self._cli(["decode", "-i", self.workdir / "stream_clean_parallel.frames",
                              "-o", out])
        calls.append(("decode", self.FRAMES, secs))
        outs["decode"] = out.read_bytes() if rc == 0 else b""
        failed = check_stream(self.records[k], self.expected[k], outs)
        output = b"".join(outs[key] for key in (*ENCODERS, "decode"))
        return Step(calls, 4 * self.FRAMES, failed, output)


class DecodeNoisy(Workload):
    """CLI decode --stats of frames with i.i.d. bit flips at BER 1e-2."""

    name = "decode_noisy"
    items = 4
    FRAMES = 128
    BER = 1e-2
    min_steps = items
    must_not_call = HARNESS | SLOW_ENCODERS

    def __init__(self, rs, seed, workdir):
        super().__init__(rs, seed, workdir)
        n = self.items * self.FRAMES
        info = self.rng.integers(0, 2, (n, ref.INFO_BITS), dtype=np.uint8)
        flips = (self.rng.random((n, ref.FRAME_BITS)) < self.BER).astype(np.uint8)
        received = ref.build_frames(info) ^ flips
        self.chunks, self.inputs = [], []
        for k in range(self.items):
            s = slice(k * self.FRAMES, (k + 1) * self.FRAMES)
            self.chunks.append((info[s], ref.symbol_weights(flips[s]),
                                flips[s, :ref.HEADER_BITS].any(axis=1),
                                ref.passthrough_info(received[s])))
            path = workdir / f"decode_noisy_{k}.frames"
            path.write_bytes(ref.to_bytes(received[s]))
            self.inputs.append(path)
        weights = np.concatenate([c[1] for c in self.chunks])
        self.weight_hist = np.bincount(np.minimum(weights.ravel(), 3), minlength=4)

    def input_facts(self):
        w = self.weight_hist
        return (f"items={self.items} frames_per_call={self.FRAMES} ber={self.BER} "
                f"codewords_by_symbol_errors=0:{w[0]},1:{w[1]},2:{w[2]},3+:{w[3]}")

    def step(self, index):
        k = index % self.items
        out, stats = self.workdir / "decode_noisy.dec", self.workdir / "decode_noisy.stats"
        rc, secs = self._cli(["decode", "-i", self.inputs[k], "-o", out, "--stats", stats])
        decoded = out.read_bytes() if rc == 0 else b""
        text = stats.read_text(encoding="ascii") if rc == 0 else ""
        failed, outcomes = check_noisy(decoded, text, *self.chunks[k])
        return Step([("decode", self.FRAMES, secs)], self.FRAMES, failed,
                    decoded + text.encode("ascii"), outcomes)


class Simulate(Workload):
    """run_simulation at BER 1e-3 with 6-bit bursts at rate 0.1, one process."""

    name = "simulate"
    items = 64
    FRAMES = 8
    min_steps = 2 * items  # every config runs twice, so its record must repeat
    must_not_call = SLOW_ENCODERS

    def __init__(self, rs, seed, workdir):
        super().__init__(rs, seed, workdir)
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31, self.items)]

    def input_facts(self):
        return (f"items={self.items} frames_per_call={self.FRAMES} ber=1e-3 "
                f"burst_len=6 burst_rate=0.1 jobs=1")

    def step(self, index):
        h = self.rs.harness
        cfg = h.ChannelConfig(ber=1e-3, burst_len=6, burst_rate=0.1,
                              seed=self.seeds[index % self.items], frames=self.FRAMES)
        start = time.perf_counter()
        stats = h.run_simulation(cfg, jobs=1)
        secs = time.perf_counter() - start
        record = h.emit_stats([(cfg, stats)])
        failed = 0 if check_sim_record(record, self.FRAMES) else self.FRAMES
        return Step([("simulate", self.FRAMES, secs)], self.FRAMES, failed,
                    record.encode("ascii"))


class FrameLatency(Workload):
    """Closed loop, one caller: unframe(build_frame(p)) timed per frame."""

    name = "frame_latency"
    items = 1024
    min_steps = items  # at least 1000 samples, so p99 has ten beyond it
    must_not_call = HARNESS | SLOW_ENCODERS | CORRECTION

    def __init__(self, rs, seed, workdir):
        super().__init__(rs, seed, workdir)
        self.payloads = self.rng.integers(0, 2, (self.items, ref.INFO_BITS),
                                          dtype=np.uint8).tolist()

    def input_facts(self):
        return f"items={self.items} frames_per_call=1 callers=1"

    def step(self, index):
        fr = self.rs.framing
        payload = self.payloads[index % self.items]
        start = time.perf_counter()
        res = fr.unframe(fr.build_frame(payload))
        secs = time.perf_counter() - start
        return Step([("round_trip", 1, secs)], 1, int(res.info != payload), bytes(res.info))


WORKLOADS = {w.name: w for w in (StreamClean, DecodeNoisy, Simulate, FrameLatency)}
