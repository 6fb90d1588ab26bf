"""In-memory span recorder that wraps the package's public functions from
outside the package.

A function is replaced in every rs3127 module namespace that holds it
(`decoder.decode` and the `decode` that `framing` imported by name are the
same object, so both names are wrapped), which is how calls between
modules are seen: a module looks its imports up in its own globals at
call time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Layer (module) -> the public functions whose spans the traced run records.
LAYERS = {
    "cli": ["main"],
    "framing": ["build_frame", "unframe", "scramble", "interleave",
                "deinterleave", "frame_to_bytes", "bytes_to_frame"],
    "parallel_encoder": ["encode_parallel", "parity_bits", "message_to_bits",
                         "bits_to_message"],
    "rs_core": ["encode_reference", "is_codeword"],
    "serial_encoder": ["lfsr_encode"],
    "decoder": ["decode", "compute_syndromes", "solve_locator", "chien_search",
                "forney"],
    "harness": ["run_simulation", "frame_rng", "apply_channel"],
    "parallel_gen": ["derive_parity_matrix"],
    "gf32": ["gf_div"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
DECODE_OUTCOMES = ("ok", "corrected", "uncorrectable")


class Tracer:
    """Spans are (name, start_ns, end_ns, parent_index, root_index); a span
    with no traced caller is its own root, so the spans of one top-level
    call share a root index."""

    def __init__(self) -> None:
        self.spans: list = []
        self.outcomes: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        outcomes = self.outcomes if name == "decoder.decode" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else index
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, root)
            if outcomes is not None:
                outcomes[result.status] += 1
            return result

        return traced

    def install(self, package: str = "rs3127") -> list[str]:
        """Wrap every function of LAYERS that exists; returns the span names
        that could not be found (a later version may have removed them)."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        missing = []
        for mod_name, fns in LAYERS.items():
            home = sys.modules.get(f"{package}.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self_s, total_s). Self time is a span's duration
        minus the time its direct children cover; spans of one thread nest,
        so children never overlap and their durations add."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        total_ns = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - covered
        return {name: (calls[name], self_ns[name] / 1e9, total_ns[name] / 1e9)
                for name in SPAN_NAMES}

    def metrics(self) -> dict[str, dict]:
        out = {}
        for name, (calls, self_s, total_s) in self.layer_stats().items():
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
            out[f"{name}.total_s"] = {"value": total_s, "unit": "s"}
        for status in DECODE_OUTCOMES:
            out[f"decoder.decode.{status}"] = {"value": self.outcomes[status], "unit": "count"}
        tried = self.outcomes["corrected"] + self.outcomes["uncorrectable"]
        ratio = self.outcomes["corrected"] / tried if tried else 0.0
        out["decoder.correct_ratio"] = {"value": ratio, "unit": "ratio"}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\troot\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(f"{index}\t{root}\t{parent}\t{name}\t{start}\t{end}\n")
