"""Per-layer spans and counters, installed from outside the library.

Tracing never edits `src/`: `install` replaces public functions with timing
wrappers in every `qdesign.*` module namespace that holds them, so a name
imported with `from .gf import mat_mul` is wrapped in the importing module
too.  `uninstall` puts every original back.  The untraced benchmark run never
calls `install`.

A span records its calls and its total and self time; self time is the
span's duration minus the time covered by the spans it called.  Generators
are timed per yield, so a lazy enumeration is charged only for producing
items, not for the consumer's work between them.  Counters record calls
without timing, for hot leaves whose cost is left in their caller's span.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

_END = object()


class Span:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Spans and counters of one traced pass, keyed by layer-qualified name."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        # the original of every wrapped function, for counts that need one
        self.untraced: dict[str, object] = {}
        # child time accumulated by each open span, innermost last
        self._stack: list[float] = []

    def reset(self) -> None:
        for s in self.spans.values():
            s.calls, s.total_s, s.self_s = 0, 0.0, 0.0
        for name in self.counts:
            self.counts[name] = 0

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, span: Span, t0: float) -> None:
        d = perf_counter() - t0
        child = self._stack.pop()
        span.calls += 1
        span.total_s += d
        span.self_s += d - child
        if self._stack:
            self._stack[-1] += d

    def span(self, name: str, fn, on_result=None):
        """Wrap fn in a span; on_result(tracer, args, kwargs, result) may add counts."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, t0)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """Wrap a generator function; each yield is one span call."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it, _END)
                finally:
                    self._close(span, t0)
                if item is _END:
                    span.calls -= 1  # the exhausting call yields nothing
                    return
                yield item

        return wrapper

    def counter(self, name: str, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qdesign" or name.startswith("qdesign."))]


class Installation:
    """The wrappers put in place by `install`; `uninstall` restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, wrapper) -> None:
        """Rebind every module-level name that refers to `original`."""
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def replace_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _patterns_pushed(tracer, args, kwargs, report):
    # blocks x [k t]_q, the (block, pattern) images verify_design pushes
    candidate = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    q_binomial = tracer.untraced["qcount.q_binomial"]
    tracer.add("verifier.patterns_pushed",
               len(candidate.blocks) * q_binomial(candidate.k, t, candidate.field.q))


def _incidence_bits(tracer, args, kwargs, M):
    tracer.add("incidence.build_incidence.bits", len(M.row_index) * len(M.col_index))


def _lemma2_pairs(tracer, args, kwargs, report):
    tracer.add("localdecode.lemma2.pairs", report.pair_count)


# (module, function, kind, on_result): kind is "span", "gen" or "count"
TARGETS = (
    ("gf", "rref", "span", None),
    ("gf", "mat_mul", "span", None),
    ("gf", "rank_of_rows", "span", None),
    ("grassmann", "iter_subspaces", "gen", None),
    ("grassmann", "subspace_from_rows", "span", None),
    ("grassmann", "extensions", "span", None),
    ("grassmann", "intersect_dim", "span", None),
    ("incidence", "build_incidence", "span", _incidence_bits),
    ("verifier", "verify_design", "span", _patterns_pushed),
    ("verifier", "load_design", "span", None),
    ("localdecode", "lemma2_grid_report", "span", _lemma2_pairs),
    ("localdecode", "decode_certificate", "span", None),
    ("localdecode", "verify_certificate", "span", None),
    ("localdecode", "solve_coefficients", "span", None),
    ("localdecode", "det_bareiss", "span", None),
    ("klp", "klp_report", "span", None),
    ("klp", "pow_frac_ceil", "span", None),
    ("qcount", "q_binomial", "count", None),
    ("search", "build_cover_instance", "span", None),
    ("search", "search_design", "span", None),
)


def install(tracer: Tracer) -> Installation:
    """Wrap every TARGETS function, `SubspaceBasis.vector_mask` and
    `MatrixGFq` construction in all loaded `qdesign` modules."""
    import qdesign.gf as gf
    import qdesign.grassmann as grassmann

    inst = Installation()
    for module_name, fn_name, kind, on_result in TARGETS:
        module = sys.modules.get(f"qdesign.{module_name}")
        if module is None:
            continue
        original = getattr(module, fn_name)
        name = f"{module_name}.{fn_name}"
        tracer.untraced[name] = original
        if kind == "span":
            wrapper = tracer.span(name, original, on_result)
        elif kind == "gen":
            wrapper = tracer.generator_span(name, original)
        else:
            wrapper = tracer.counter(f"{name}.calls", original)
        inst.replace_everywhere(original, wrapper)

    # cached_property: the wrapped function runs only on a cache miss
    prop = grassmann.SubspaceBasis.__dict__["vector_mask"]
    timed = functools.cached_property(tracer.span("grassmann.vector_mask", prop.func))
    timed.__set_name__(grassmann.SubspaceBasis, "vector_mask")
    inst.replace_attr(grassmann.SubspaceBasis, "vector_mask", timed)

    # every MatrixGFq construction runs __post_init__ exactly once
    post_init = gf.MatrixGFq.__dict__["__post_init__"]
    inst.replace_attr(gf.MatrixGFq, "__post_init__",
                      tracer.counter("gf.MatrixGFq.created", post_init))
    return inst

