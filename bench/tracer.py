"""Layer spans recorded from outside the program.

The tracer swaps each layer's public function for a timing wrapper in
the module that calls it, because mgnet modules import those functions
by name: patching simulator.verify_rank_condition counts only the
horizon-pick check, while consensus.verify_rank_condition counts the
checks synthesis makes. Spans nest, so a layer's self time excludes the
layers it calls. Everything is put back when the context exits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from mgnet import consensus, graph, simulator

# (span name, object holding the name the caller looks up, attribute)
LAYERS = (
    ("graph.topology", simulator, "generate_preventive"),
    ("graph.topology", simulator, "generate_responsive"),
    ("graph.certificate", graph, "vertex_connectivity"),
    ("consensus.synthesis", simulator, "synthesize_weights"),
    ("consensus.rank_check_synthesis", consensus, "verify_rank_condition"),
    ("consensus.rank_check_horizon", simulator, "verify_rank_condition"),
    ("simulator.engine", simulator.RoundEngine, "run"),
    ("consensus.stack", simulator, "build_observability_stack"),
    ("consensus.decode", simulator, "decode_unknown_faults"),
    ("consensus.decode", simulator, "decode_known_faults"),
    ("consensus.decode_candidate", consensus, "decode_known_faults"),
)
PERIOD = "simulator.period"


@dataclass
class LayerTotals:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Per-layer call counts, inclusive and self time, for one period at a time."""

    def __init__(self) -> None:
        self.totals: dict[str, LayerTotals] = {}
        self._child_s: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        self._child_s.append(0.0)
        raised = False
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            raised = True
            raise
        finally:
            dt = perf_counter() - t0
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += dt
            t = self.totals.setdefault(name, LayerTotals())
            t.calls += 1
            t.raised += raised
            t.total_s += dt
            t.self_s += dt - child

    def take(self) -> dict[str, LayerTotals]:
        """Hand over what was recorded since the last take and start afresh."""
        out, self.totals = self.totals, {}
        return out

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in LAYERS]
        try:
            for name, owner, attr in LAYERS:
                setattr(owner, attr, self._wrapper(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
