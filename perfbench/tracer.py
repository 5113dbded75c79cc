"""In-memory span recorder that wraps the package's public layer functions.

Nothing under ``src/`` is edited: ``install`` replaces each public function
or method listed in ``SPANS`` with a wrapper that records a span (name,
start, end, parent) around the call, in every ``rosenblatt`` module that
binds it.  The command itself then runs unchanged through
``rosenblatt.cli.main``, so the traced run makes the same calls in the same
order as the CLI, and each lazily built cache is charged to the first call
that builds it.

Two calls are also counted: ``VolterraEngine.panel`` records which panels
were requested (the first request for a panel builds it), and
``VolterraEngine.delta_table`` which delta tables were, from which the bytes
the delta cache holds are computed.  ``delta_table`` gets no span, so the
cold delta tables stay in the time of the market or table call that needs
them.
"""
from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> span name; "Class.method" patches the class.
SPANS = {
    ("rosenblatt.cli", "main"): "cli.main",
    ("rosenblatt.kernel", "get_engine"): "kernel.get_engine",
    ("rosenblatt.kernel", "VolterraEngine.panel"): "kernel.panel",
    ("rosenblatt.kernel", "VolterraEngine.quadratic_increments"): "kernel.quadratic_increments",
    ("rosenblatt.kernel", "VolterraEngine.table_matrix"): "kernel.table_matrix",
    ("rosenblatt.paths", "derive_seed"): "paths.derive_seed",
    ("rosenblatt.paths", "make_noise"): "paths.make_noise",
    ("rosenblatt.paths", "simulate_ensemble"): "paths.simulate_ensemble",
    ("rosenblatt.paths", "write_ensemble"): "paths.write_ensemble",
    ("rosenblatt.stats", "increment_variance"): "stats.increment_variance",
    ("rosenblatt.stats", "covariance"): "stats.covariance",
    ("rosenblatt.stats", "skewness"): "stats.skewness",
    ("rosenblatt.stats", "qv_decay"): "stats.qv_decay",
    ("rosenblatt.stats", "histogram"): "stats.histogram",
    ("rosenblatt.market", "build_market"): "market.build_market",
    ("rosenblatt.market", "divergence_scan"): "market.divergence_scan",
    ("rosenblatt.market", "arbitrage_demo"): "market.arbitrage_demo",
    ("rosenblatt.market", "MarketPath.to_csv"): "market.write",
    ("rosenblatt.market", "ArbitrageReport.to_json"): "market.write",
}


class Recorder:
    """Spans as [name, start, end, parent index] (-1 for a root), plus the
    panels and delta tables requested as sets of (engine id, n, k)."""

    def __init__(self):
        self.spans: list[list] = []
        self.panels: set[tuple[int, int, int]] = set()
        self.deltas: set[tuple[int, int, int]] = set()
        self._stack: list[int] = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
        return traced

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "panels_built": len(self.panels),
            # computed, not measured: the cache holds one float64 (k, k)
            # table per requested k on grids up to 512, the size it serves
            "delta_table_bytes": sum(8 * k * k for _, n, k in self.deltas if n <= 512),
        }


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "rosenblatt" or name.startswith("rosenblatt."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Recorder:
    """Wrap every target in SPANS and the two counters; returns the recorder."""
    import rosenblatt.cli  # noqa: F401  (loads every layer module)
    from rosenblatt.kernel import VolterraEngine

    rec = Recorder()
    for (module_name, attr), span_name in SPANS.items():
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, rec.span(span_name, getattr(cls, meth)))
        else:
            original = getattr(module, attr)
            _rebind(original, rec.span(span_name, original))

    timed_panel = VolterraEngine.panel
    delta_table = VolterraEngine.delta_table

    def panel(self, k):
        rec.panels.add((id(self), self.n, k))
        return timed_panel(self, k)

    def counted_delta_table(self, k):
        rec.deltas.add((id(self), self.n, k))
        return delta_table(self, k)

    VolterraEngine.panel = panel
    VolterraEngine.delta_table = counted_delta_table
    return rec
