"""Spans and counts taken from outside the library.

A span records (name, start, end, parent) around a call into a layer;
spans live in memory and are summed into per-layer metrics.  The
sparse LU layer is reached by wrapping ``scipy.sparse.linalg.splu`` (the
name ``pricing.evolve`` looks up) and the ``solve`` of each factor it
returns.  Nothing in the library is edited.
"""

from __future__ import annotations

import contextlib
import time

import scipy.sparse.linalg as spla

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    def span(self, name):
        return _NULL

    def record_nnz(self, h):
        pass

    def record_paths(self, ensemble):
        pass

    def keep_terminal(self, ensemble):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[tuple] = []    # (name, start, end, parent index)
        self._stack: list[int] = []
        self.h_nnz = 0
        self.lu_nnz = 0
        self.a_nnz = 0
        self.path_bytes = 0
        self.terminal = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def record_nnz(self, h):
        self.h_nnz = h.matrix.nnz

    def record_paths(self, ensemble):
        self.path_bytes = sum(a.nbytes for a in (ensemble.times, ensemble.s_paths,
                                                 ensemble.v_paths) if a is not None)

    def keep_terminal(self, ensemble):
        self.terminal = (ensemble.s_paths[:, -1].copy(), ensemble.v_paths[:, -1].copy())

    @contextlib.contextmanager
    def instrument_splu(self):
        """Time every splu call and every solve of the factors it returns."""
        original = spla.splu
        tracer = self

        class TimedLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs, *args, **kwargs):
                with tracer.span("pricing.solve"):
                    return self._lu.solve(rhs, *args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._lu, name)

        def splu(a, *args, **kwargs):
            with self.span("pricing.factor"):
                lu = original(a, *args, **kwargs)
            self.lu_nnz += lu.nnz
            self.a_nnz += a.nnz
            return TimedLU(lu)

        spla.splu = splu
        try:
            yield
        finally:
            spla.splu = original

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: count, total duration and self time (duration
        minus the part covered by direct children)."""
        count, total, child = {}, {}, {}
        for name, start, end, parent in self.spans:
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + (end - start)
        self_time = {n: total[n] - child.get(n, 0.0) for n in total}
        return count, total, self_time

    def layer_metrics(self, n_options: int) -> dict:
        """Per-layer metrics, each per traced option priced."""
        count, total, self_time = self.totals()
        per = 1.0 / n_options
        evolved = count.get("pricing.evolve", 0) > 0
        return {
            "operators.build_s": total.get("operators.build", 0.0) * per,
            "operators.builds": count.get("operators.build", 0) * per,
            "operators.h_nnz": self.h_nnz,
            "pricing.factor_s": total.get("pricing.factor", 0.0) * per,
            "pricing.factorizations": count.get("pricing.factor", 0) * per,
            "pricing.solve_s": total.get("pricing.solve", 0.0) * per,
            "pricing.solves": count.get("pricing.solve", 0) * per,
            "pricing.lu_fill_ratio": self.lu_nnz / self.a_nnz if self.a_nnz else 0.0,
            "pricing.step_rest_s": self_time.get("pricing.evolve", 0.0) * per,
            "pricing.evolve_s": total.get("pricing.evolve", 0.0) * per,
            "pricing.outside_evolve_s": self_time.get("option", 0.0) * per if evolved else 0.0,
            "montecarlo.simulate_s": total.get("montecarlo.simulate", 0.0) * per,
            "montecarlo.path_bytes": self.path_bytes,
            "montecarlo.simulate_1thread_s": total.get("montecarlo.simulate_1thread", 0.0) * per,
            "montecarlo.mc_price_s": total.get("montecarlo.mc_price", 0.0) * per,
        }
