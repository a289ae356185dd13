"""Per-layer tracing of `wresidue` from outside the package.

`Tracer.install()` wraps public functions and methods of each module (and
counts two private gcd routes) by rebinding them in every `wresidue` module
that holds them; no file under `src/` changes.  It records, in memory:

- for each wrapped callable: calls, and inclusive seconds of the outermost
  call (a recursive or nested call is not counted twice);
- coarse spans (name, start, end, parent) around the pipeline, report,
  slot, symbol-build and suite calls;
- a seeded reservoir sample of `GRat.__mul__` operands, replayed after the
  run to give the time of one multiplication.

`Tracer.finish()` restores the originals and returns a JSON-ready dict.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter


class _Stat:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class _Reservoir:
    """Algorithm L (Li, 1994): a uniform sample of k items from a stream."""

    def __init__(self, k: int, seed: int):
        self.k = k
        self.items: List[tuple] = []
        self.rng = random.Random(seed)
        self.w = 1.0
        self.next = 1  # 1-based stream index of the next item to keep

    def offer(self, n: int, item: tuple):
        if n <= self.k:
            self.items.append(item)
            if n == self.k:
                self._advance(n)
            else:
                self.next = n + 1
            return
        self.items[self.rng.randrange(self.k)] = item
        self._advance(n)

    def _advance(self, n: int):
        self.w *= math.exp(math.log(self.rng.random()) / self.k)
        self.next = n + int(math.log(self.rng.random()) / math.log(1.0 - self.w)) + 1


class Tracer:
    SAMPLE_SIZE = 2048

    def __init__(self, seed: int):
        self.stats: Dict[str, _Stat] = {}
        self.counts: Dict[str, int] = {}
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []
        self._grat_mul = None
        self._mul_count = [0]
        self._sample = _Reservoir(self.SAMPLE_SIZE, seed)

    # -- wrappers ----------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _timed(self, name: str, fn, span: Optional[Callable] = None, extra=None, before=None):
        """Count calls and the inclusive time of the outermost call.

        `span(args)` names a span to record; `extra(args)` names a second
        stat that receives the same time (used for per-case times);
        `before(args, kwargs)` runs first on every call (used for counts).
        """
        st = self._stat(name)
        spans, stack, stat = self.spans, self._stack, self._stat

        def wrapper(*args, **kwargs):
            st.calls += 1
            if before is not None:
                before(args, kwargs)
            if st.depth:
                st.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    st.depth -= 1
            st.depth = 1
            sp = None
            if span is not None:
                sp = len(spans)
                spans.append([span(args), _perf(), None, stack[-1] if stack else None])
                stack.append(sp)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                st.seconds += dt
                st.depth = 0
                if extra is not None:
                    stat(extra(args)).seconds += dt
                if sp is not None:
                    stack.pop()
                    spans[sp][2] = _perf()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind_function(self, module, attr: str, make):
        """Replace module.attr, and every alias of it in wresidue, by make(orig)."""
        orig = getattr(module, attr)
        new = make(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "wresidue" or name.startswith("wresidue.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._restore.append(lambda m=mod, k=key, o=orig: setattr(m, k, o))

    def _rebind_method(self, cls, attrs, make):
        orig = cls.__dict__[attrs[0]]
        new = make(orig)
        for attr in attrs:
            old = cls.__dict__[attr]
            setattr(cls, attr, new)
            self._restore.append(lambda a=attr, o=old: setattr(cls, a, o))

    # -- installation --------------------------------------------------------

    def install(self):
        from wresidue import (clifford, gaussian, halfplane, integration, interior,
                              pipeline, references, report, scalars, symbols, verify)

        timed, counted = self._timed, self._counted

        # gaussian: exact counts, and operands sampled for the replay
        count, sample = self._mul_count, self._sample

        def make_mul(fn):
            self._grat_mul = fn

            def mul(a, b):
                n = count[0] = count[0] + 1
                if n == sample.next:
                    sample.offer(n, (a, b))
                return fn(a, b)
            return mul

        self._rebind_method(gaussian.GRat, ("__mul__", "__rmul__"), make_mul)
        self._rebind_method(gaussian.GRat, ("__add__", "__radd__"),
                            lambda fn: counted("gaussian.GRat.add", fn))

        # scalars
        self._rebind_method(scalars.Poly, ("__mul__",),
                            lambda fn: timed("scalars.Poly.mul", fn))
        self._rebind_function(scalars, "poly_divexact",
                              lambda fn: timed("scalars.poly_divexact", fn))

        def gcd_lookup(args, _kwargs):
            a, b = args
            if not (a.is_zero() or b.is_zero() or a.is_const() or b.is_const()):
                self.counts["scalars.poly_gcd.lookups"] += 1

        self.counts["scalars.poly_gcd.lookups"] = 0
        self._rebind_function(scalars, "poly_gcd",
                              lambda fn: timed("scalars.poly_gcd", fn, before=gcd_lookup))
        # each cache miss enters _structured_gcd once; the generic
        # _poly_gcd_uncached runs when that finds no known structure
        self._rebind_function(scalars, "_structured_gcd",
                              lambda fn: counted("scalars.poly_gcd.structured_calls", fn))
        self._rebind_function(scalars, "_poly_gcd_uncached",
                              lambda fn: counted("scalars.poly_gcd.generic_calls", fn))
        self._rebind_method(scalars.ScalarExpr, ("substitute",),
                            lambda fn: timed("scalars.ScalarExpr.substitute", fn))

        # clifford
        self._rebind_method(clifford.CliffordExpr, ("__mul__",),
                            lambda fn: counted("clifford.CliffordExpr.mul", fn))
        self._rebind_function(clifford, "matrix_oracle_trace",
                              lambda fn: timed("clifford.matrix_oracle_trace", fn))

        # symbols
        def build_check(args, kwargs):
            key = (args[0], args[1] if len(args) > 1 else kwargs.get("sigma3_variant", "printed"))
            if key not in symbols._BUILTIN_CACHE:
                self.counts["symbols.builtin_symbol.builds"] += 1

        self.counts["symbols.builtin_symbol.builds"] = 0
        self._rebind_function(
            symbols, "builtin_symbol",
            lambda fn: timed("symbols.builtin_symbol", fn, before=build_check,
                             span=lambda a: f"builtin_symbol {a[0]}"))
        for name in ("compose", "invert", "recomputed_symbol"):
            self._rebind_function(symbols, name, lambda fn, n=name: timed(f"symbols.{n}", fn))

        # halfplane and integration
        for name in ("pi_plus_scalar", "pi_plus"):
            self._rebind_function(halfplane, name, lambda fn, n=name: timed(f"halfplane.{n}", fn))
        for name in ("integrate_xi_n", "sphere_moment", "numeric_contour_oracle",
                     "sphere_mc_oracle"):
            self._rebind_function(integration, name,
                                  lambda fn, n=name: timed(f"integration.{n}", fn))

        # pipeline
        self._rebind_function(pipeline, "make_context",
                              lambda fn: timed("pipeline.make_context", fn,
                                               span=lambda a: f"make_context {a[0]}"))
        self._rebind_function(
            pipeline, "compute_case_term",
            lambda fn: timed("pipeline.compute_case_term", fn,
                             span=lambda a: f"case {a[0].theorem}/{a[1].case_id}",
                             extra=lambda a: f"pipeline.case.{a[0].theorem}.{a[1].case_id}"))
        for name in ("case_trace_integrand", "apply_torsion_switches"):
            self._rebind_function(pipeline, name, lambda fn, n=name: timed(f"pipeline.{n}", fn))

        # references: each SlotEntry holds its engine function
        for slot in references.SLOTS:
            orig = slot.build_engine
            slot.build_engine = timed("references.slot", orig,
                                      span=lambda a, s=slot.slot_id: f"slot {s}")
            self._restore.append(lambda s=slot, o=orig: setattr(s, "build_engine", o))
        self._rebind_function(references, "reference_value",
                              lambda fn: timed("references.reference_value", fn))

        # interior: one layer time over its three entry points
        for name in ("interior_density", "trace_e", "curvature_trace_identities"):
            self._rebind_function(interior, name, lambda fn: timed("interior", fn))

        # report
        self._rebind_function(report, "run_computation",
                              lambda fn: timed("report.run_computation", fn,
                                               span=lambda a: "run_computation"))
        self._rebind_function(report, "compare_with_reference",
                              lambda fn: timed("report.compare_with_reference", fn))
        self._rebind_function(report, "render_report",
                              lambda fn: timed("report.render_report", fn,
                                               span=lambda a: "render_report"))

        # verify: the suite functions, also as held by the SUITES table
        for name, fn in list(verify.SUITES.items()):
            wrapped = timed(f"verify.{name}", fn, span=lambda a, n=name: f"suite {n}")
            verify.SUITES[name] = wrapped
            self._restore.append(lambda n=name, o=fn: verify.SUITES.__setitem__(n, o))

    # -- results ---------------------------------------------------------------

    def _replay_ns(self) -> Optional[float]:
        """Median time of one GRat multiplication over the sampled operands."""
        pairs = self._sample.items
        if not pairs or self._grat_mul is None:
            return None
        mul = self._grat_mul
        per_pass = []
        for _ in range(7):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                mul(a, b)
            per_pass.append((time.perf_counter_ns() - t0) / len(pairs))
        return statistics.median(per_pass)

    def finish(self) -> Dict:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()
        stats = {name: [st.calls, st.seconds] for name, st in self.stats.items()}
        counts = dict(self.counts)
        counts["gaussian.GRat.mul"] = self._mul_count[0]
        return {
            "stats": stats,
            "counts": counts,
            "grat_mul_ns": self._replay_ns(),
            "grat_mul_sampled": len(self._sample.items),
            "spans": self.spans,
        }
