"""Spans and counters around the program's public functions, from outside it.

Each wrapper is installed where the caller looks the function up (for
example ``hyperspline.cli.solve`` for the final solve and
``hyperspline.solver.solve`` for the solves ``lcurve`` makes), so ``src/``
is not edited.  Spans carry a name, start, end, parent and operation id;
they stay in memory and are written when the run ends.  Calls made many
times per row (kinematics, basis rows, the domain map) are counted only.
"""

from __future__ import annotations

import time
from collections import Counter

import hyperspline.cli
import hyperspline.domain
import hyperspline.model
import hyperspline.solver
import hyperspline.splines

_SOLUTION = lambda sol: (sol.iterations, sol.kkt_residual)  # noqa: E731

# (namespace, attribute, span name, extractor of a payload from the result)
SPANS = (
    (hyperspline.cli, "ingest", "cli.ingest", None),
    (hyperspline.cli, "load_model", "cli.load_model", None),
    (hyperspline.cli, "default_spec", "model.default_spec", None),
    (hyperspline.cli, "assemble_design", "model.assemble_design", lambda r: r[0].shape[0]),
    (hyperspline.cli, "metrics", "model.metrics", None),
    (hyperspline.cli, "activation", "model.activation", None),
    (hyperspline.cli, "predict_stress", "model.predict", None),
    (hyperspline.cli, "predict_stress_clamped", "model.predict", None),
    (hyperspline.model, "predict_stress", "model.predict", None),
    (hyperspline.cli, "curvature_operator", "operators.curvature", lambda r: r.rows.shape[0]),
    (hyperspline.cli, "inequality_operator", "operators.inequality", lambda r: r.rows.shape[0]),
    (hyperspline.cli, "lcurve", "solver.lcurve", lambda r: r.lambdas.size),
    (hyperspline.cli, "solve", "solver.solve", _SOLUTION),
    (hyperspline.solver, "solve", "solver.solve", _SOLUTION),
    (hyperspline.splines.DirectionOps, "value_row", "splines.value_row", None),
    (hyperspline.domain, "boundary", "domain.boundary", None),
)

# (namespace, attribute, counter name)
COUNTS = (
    (hyperspline.splines, "basis_row", "splines.basis_row"),
    (hyperspline.model, "map_forward", "domain.map"),
    (hyperspline.model, "map_inverse", "domain.map"),
    (hyperspline.model, "map_jacobian", "domain.map"),
    (hyperspline.model, "invariants", "kinematics"),
    (hyperspline.model, "stress_coefficients", "kinematics"),
    (hyperspline.model, "max_invariants", "kinematics"),
)

OP_SPAN = "cli.main"


class Span:
    __slots__ = ("op", "name", "start", "end", "parent", "ok", "payload")

    def __init__(self, op, name, start, parent):
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ok = True
        self.payload = None


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.ridge_warnings = 0
        self.op = 0
        self.active = False  # only calls made during an operation are recorded
        self._stack: list[int] = []
        self._saved = []

    def span(self, name: str, fn, payload=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(self.op, name, time.perf_counter(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if payload is not None:
                span.payload = payload(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for owner, attr, name, payload in SPANS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, payload))
        for owner, attr, name in COUNTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.count(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def write(self, path, t0: float):
        """Spans as CSV, times in seconds from ``t0``."""
        lines = ["op,span,parent,name,start_s,end_s,ok"]
        for i, s in enumerate(self.spans):
            lines.append(f"{s.op},{i},{s.parent},{s.name},{s.start - t0:.9f},"
                         f"{s.end - t0:.9f},{int(s.ok)}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics over every span and count recorded."""
        total = Counter()
        calls = Counter()
        child = Counter()
        for s in self.spans:
            d = s.end - s.start
            total[s.name] += d
            calls[s.name] += 1
            if s.parent >= 0:
                child[s.parent] += d
        cli_self = sum(s.end - s.start - child[i]
                       for i, s in enumerate(self.spans) if s.name == OP_SPAN)
        solves = [s for s in self.spans if s.name == "solver.solve"]
        done = [s for s in solves if s.ok]
        iterations = sum(s.payload[0] for s in done)
        done_s = sum(s.end - s.start for s in done)
        rows = lambda name: sum(s.payload for s in self.spans  # noqa: E731
                                if s.name == name and s.ok)
        return {
            "solver.lcurve_s": total["solver.lcurve"],
            "solver.lcurve_weights": rows("solver.lcurve"),
            "solver.solve_s": total["solver.solve"],
            "solver.solve_calls": calls["solver.solve"],
            "solver.iterations": iterations,
            "solver.s_per_iter": done_s / iterations if iterations else 0.0,
            "solver.kkt_max": max((s.payload[1] for s in done), default=0.0),
            "solver.ridge_warnings": self.ridge_warnings,
            "solver.failures": len(solves) - len(done),
            "operators.curvature_s": total["operators.curvature"],
            "operators.curvature_rows": rows("operators.curvature"),
            "operators.inequality_s": total["operators.inequality"],
            "operators.inequality_rows": rows("operators.inequality"),
            "model.default_spec_s": total["model.default_spec"],
            "model.assemble_design_s": total["model.assemble_design"],
            "model.design_rows": rows("model.assemble_design"),
            "model.metrics_s": total["model.metrics"],
            "model.predict_s": total["model.predict"],
            "model.predict_calls": calls["model.predict"],
            "splines.value_row_calls": calls["splines.value_row"],
            "splines.value_row_s": total["splines.value_row"],
            "splines.basis_row_calls": self.counts["splines.basis_row"],
            "domain.boundary_calls": calls["domain.boundary"],
            "domain.boundary_s": total["domain.boundary"],
            "domain.map_calls": self.counts["domain.map"],
            "kinematics.calls": self.counts["kinematics"],
            "cli.ingest_s": total["cli.ingest"],
            "cli.load_model_s": total["cli.load_model"],
            "cli.self_s": cli_self,
        }
