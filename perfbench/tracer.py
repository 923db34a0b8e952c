"""Outside tracer for the arcperp package.

``install`` wraps the public functions of each arcperp module, and the
public methods of the classes those modules define, with spans recorded by
a ``Tracer``.  Nothing under ``src/`` is edited: the wrappers are put in
place at run time, before the CLI runs.

A span is one call of a wrapped function.  Its self time is its duration
minus the time covered by the spans it caused, measured in integer
nanoseconds so that self times are exactly non-negative.  Spans are folded
into per-function totals and per-(caller, callee) edges as they close, so
memory stays bounded however many calls a run makes; the edges are the
parent links of the call tree.

Three details decide whether time lands on the right layer:

* ``from .hankel import minor_span`` copies the function object into the
  importing module, so every module attribute (and every value of a
  module-level dict) that refers to a wrapped function is rebound to its
  wrapper;
* ``iter_minors`` is a generator: its wrapper opens a span around every
  ``next()``, so the determinants computed lazily count for it rather than
  for the consumer;
* methods, classmethods, ``__init__`` and the arithmetic dunders of the
  classes in ``TRACED_CLASSES`` are patched on the class, so calls made
  through instances and through ``cls(...)`` are seen too.

Polynomial construction and arithmetic are counted but not timed, and
``Monomial`` and ``Variable`` are left alone: they are the innermost, hottest
operations of every layer, a span on each would cost about as much as the
work, and their time belongs to the algorithm that asked for them.  So the
determinants that ``iter_minors`` expands count as ``iter_minors`` time, and
a faster ``Polynomial.__mul__`` shows as less self time wherever it is used.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("ring", "pairing", "arcgen", "linalg", "hankel", "perp", "reports", "cli")

# Classes whose methods are patched, by layer.
TRACED_CLASSES = {
    "ring": ("Polynomial",),
    "linalg": ("MonomialIndex", "RationalMatrix", "Span"),
    "hankel": ("SymbolicMatrix", "GradedSpan"),
    "reports": ("SeriesRow", "ChainDims", "CheckResult", "VerificationReport"),
}

# Dunder methods that are wrapped, with the name they are reported as.
DUNDER_NAMES = {
    "__init__": "new",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
}

GENERATORS = {"hankel.iter_minors"}

# Wrapped to count calls only; see the module docstring.
COUNTED = {f"ring.Polynomial.{label}" for label in DUNDER_NAMES.values()}

_now = time.perf_counter_ns


class Stat:
    """Totals for one wrapped function."""

    __slots__ = ("calls", "self_ns", "total_ns", "active", "counters")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0  # outermost activations only, so recursion is not counted twice
        self.active = 0
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    """Collects spans of wrapped calls in memory for one process."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], list[int]] = {}  # (parent, child) -> [calls, self_ns]
        # Open spans, innermost last: [name, nanoseconds covered by child spans].
        self._stack: list[list] = [["<root>", 0]]

    def stat(self, name: str) -> Stat:
        got = self.stats.get(name)
        if got is None:
            got = self.stats[name] = Stat()
        return got

    def _close(self, name: str, stat: Stat, frame: list, start: int, calls: int) -> None:
        duration = _now() - start
        stack = self._stack
        stack.pop()
        self_ns = duration - frame[1]
        stat.calls += calls
        stat.self_ns += self_ns
        stat.active -= 1
        if not stat.active:
            stat.total_ns += duration
        parent = stack[-1]
        parent[1] += duration
        edge = self.edges.get((parent[0], name))
        if edge is None:
            self.edges[(parent[0], name)] = [calls, self_ns]
        else:
            edge[0] += calls
            edge[1] += self_ns

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of ``fn`` that records one span per call.

        ``observe(args, kwargs, result, stat)``, when given, adds counters
        after the span has closed, so its cost is not counted as the
        function's time.
        """
        stat = self.stat(name)
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            stat.active += 1
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, stat, frame, start, 1)
            if observe is not None:
                observe(args, kwargs, result, stat)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def count(self, name: str, fn):
        """A wrapper of ``fn`` that only counts calls; its time stays with the caller."""
        stat = self.stat(name)

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_generator(self, name: str, fn, observe=None):
        """A wrapper of a generator function with one span per ``next()``.

        ``calls`` counts generators created; ``observe(item, stat)`` runs on
        every yielded item, outside the span.
        """
        stat = self.stat(name)
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            try:
                while True:
                    frame = [name, 0]
                    stack.append(frame)
                    stat.active += 1
                    start = _now()
                    try:
                        item = next(gen)
                    except StopIteration:
                        close(name, stat, frame, start, calls)
                        return
                    except BaseException:
                        close(name, stat, frame, start, calls)
                        raise
                    close(name, stat, frame, start, calls)
                    calls = 0
                    if observe is not None:
                        observe(item, stat)
                    yield item
            finally:
                gen.close()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def summary(self) -> dict:
        """Per-function totals and call edges, as plain JSON-ready data."""
        return {
            "functions": {
                name: {
                    "calls": s.calls,
                    "self_ns": s.self_ns,
                    "total_ns": s.total_ns,
                    **s.counters,
                }
                for name, s in sorted(self.stats.items())
            },
            "edges": [
                {"parent": parent, "child": child, "calls": calls, "self_ns": self_ns}
                for (parent, child), (calls, self_ns) in sorted(self.edges.items())
            ],
        }


# -- counters read at the boundary of a call ----------------------------------


def _observe_cells(args, kwargs, result, stat):
    matrix = args[0]
    stat.count("cells", matrix.rows * matrix.cols)


def _observe_span_build(args, kwargs, result, stat):
    polys = args[1] if len(args) > 1 else kwargs["polys"]
    stat.count("inputs_nonzero", sum(1 for p in polys if not p.is_zero))
    stat.count("dimension", result.dimension)


def _observe_minor(item, stat):
    stat.count("minors", 1)
    if item[3].is_zero:
        stat.count("zeros", 1)


OBSERVERS = {
    "linalg.RationalMatrix.kernel_basis": _observe_cells,
    "linalg.RationalMatrix.row_reduce": _observe_cells,
    "linalg.Span.from_polynomials": _observe_span_build,
}


def _materialize_polys(traced):
    """``Span.from_polynomials`` accepts any iterable.  Make it a list before
    the span opens, so the observer can count the inputs without consuming
    them; building the list is the caller's work."""

    def from_polynomials(cls, polys, index=None):
        return traced(cls, list(polys), index)

    return from_polynomials


# -- installation --------------------------------------------------------------


def _public(name: str) -> bool:
    return not name.startswith("_")


def install(tracer: Tracer) -> None:
    """Wrap the arcperp functions and methods in place."""
    modules = {layer: importlib.import_module(f"arcperp.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}  # id(original function) -> wrapper

    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if not (_public(attr) and inspect.isfunction(value)):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in GENERATORS:
                wrapper = tracer.wrap_generator(name, value, _observe_minor)
            else:
                wrapper = tracer.wrap(name, value, OBSERVERS.get(name))
            replaced[id(value)] = wrapper
            setattr(module, attr, wrapper)

        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            done: dict[int, object] = {}  # aliases such as __radd__ = __add__ share a wrapper
            for attr, raw in list(vars(cls).items()):
                if attr in DUNDER_NAMES:
                    label = DUNDER_NAMES[attr]
                elif _public(attr):
                    label = attr
                else:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    fn, rewrap = raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    fn, rewrap = raw, None
                else:
                    continue  # properties, constants, dataclass fields
                wrapper = done.get(id(fn))
                if wrapper is None:
                    name = f"{layer}.{cls_name}.{label}"
                    if name in COUNTED:
                        wrapper = tracer.count(name, fn)
                    else:
                        wrapper = tracer.wrap(name, fn, OBSERVERS.get(name))
                    if name == "linalg.Span.from_polynomials":
                        wrapper = _materialize_polys(wrapper)
                    done[id(fn)] = wrapper
                setattr(cls, attr, wrapper if rewrap is None else rewrap(wrapper))

    # Rebind names that other modules imported with ``from .x import f``,
    # including the package namespace and module-level dispatch tables.
    package_modules = [importlib.import_module("arcperp"), *modules.values()]
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in replaced:
                setattr(module, attr, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and id(item) in replaced:
                        value[key] = replaced[id(item)]
