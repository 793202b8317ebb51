"""Spans around calls into voltlab's layers, recorded from outside the package.

The package is not instrumented.  Instead, `Tracer.install` swaps each
target function for a timing wrapper at every name that binds it: a
function imported with `from .processor import draw_flip_pattern` is
reachable as `processor.draw_flip_pattern`, `victims.draw_flip_pattern`
and `orchestrator.draw_flip_pattern`, and each of those names is patched.
Methods are patched on their class.  `Tracer.restore` puts every original
back.  A target that no longer exists is reported as absent and skipped.

Spans are kept in memory as (layer, parent span, start, end) tuples and
only summarised or written out after the traced operation ends.  The
wrappers draw no random numbers and change no arguments, so traced and
untraced runs produce the same output.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (layer name, module, attribute path).  Two functions may share a layer
# name; their spans are then reported together.
TARGETS = (
    ("cli.main", "voltlab.cli", "main"),
    ("orchestrator.setup_system", "voltlab.orchestrator", "setup_system"),
    ("orchestrator.phase1_find_window", "voltlab.orchestrator", "phase1_find_window"),
    ("orchestrator.phase3_attack", "voltlab.orchestrator", "phase3_attack"),
    ("victims.run_test_loop", "voltlab.victims", "run_test_loop"),
    ("victims.run_hmac_victim", "voltlab.victims", "run_hmac_victim"),
    ("victims.run_poc_enclave", "voltlab.victims", "run_poc_enclave"),
    ("victims.run_with_flips", "voltlab.victims", "_run_with_flips"),
    ("sha256sim.mac_with_faults", "voltlab.sha256sim", "HmacContext.mac_with_faults"),
    ("sha256sim.compress", "voltlab.sha256sim", "compress"),
    ("processor.draw_flip_pattern", "voltlab.processor", "draw_flip_pattern"),
    ("processor.marginals", "voltlab.processor", "mean_event_fault_probability"),
    ("processor.marginals", "voltlab.processor", "mean_crash_probability"),
    ("isa.parse_program", "voltlab.isa", "parse_program"),
    ("isa.interpret", "voltlab.isa", "interpret"),
    ("scanner.scan", "voltlab.scanner", "scan"),
    ("rng.stream", "voltlab.rng", "stream"),
)

ROOT = "op"


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.layers = [ROOT] + sorted({name for name, _, _ in targets})
        self.spans: list = []  # (layer index, parent span index, start, end)
        self._stack: list[int] = []
        self._undo: list = []  # (owner, attribute, original)
        self.absent: list[str] = []

    def _wrap(self, layer: int, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, parent, start, end)

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "voltlab" or name.startswith("voltlab."))
        ]
        for layer, module_name, path in self.targets:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(self.layers.index(layer), original)
            for where in [owner] if owner_path else modules:
                # Collect the names first: patching while iterating vars()
                # would change the dict under the loop.
                names = [k for k, v in vars(where).items() if v is original]
                for name in names:
                    setattr(where, name, wrapper)
                    self._undo.append((where, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @contextmanager
    def op(self):
        """One traced operation: clears old spans, records a root span."""
        self.spans.clear()
        self._stack.clear()
        self.spans.append(None)
        self._stack.append(0)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[0] = (0, -1, start, perf_counter())
            self._stack.clear()

    def summary(self) -> dict:
        """Per layer: calls, inclusive seconds and self seconds (duration
        minus child spans), plus counts of calls by parent layer."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "by_parent": {}}
            for name in self.layers
        }
        for i, (layer, parent, start, end) in enumerate(self.spans):
            row = out[self.layers[layer]]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            caller = self.layers[self.spans[parent][0]] if parent >= 0 else None
            row["by_parent"][caller] = row["by_parent"].get(caller, 0) + 1
        return out

    def write(self, path) -> None:
        """The recorded spans as JSON lines, times relative to the root."""
        t0 = self.spans[0][2]
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": parent,
                    "layer": self.layers[layer],
                    "start_s": start - t0,
                    "dur_s": end - start,
                }) + "\n")
