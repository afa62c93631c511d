"""Outside-in span recorder for the spherig benchmark.

The recorder wraps the public functions of spherig's layer modules from the
outside: no file of the package changes.  Each wrapped call records one span
(name, start, end, parent).  Spans are kept in flat in-memory arrays while
the workload runs and written out once it has ended.

Several modules bind names at import time (``from .rigidity import
decide_rigidity`` in harness, certificates and cli), so a wrapper installed
only in the defining module would miss their calls.  `Recorder.install`
therefore replaces the function at every module attribute that refers to it,
the package namespace included.  Methods are replaced on their class, which
every call site goes through.

Hot leaves (`COUNT_ONLY`) and generator functions are counted, not timed;
their time stays in the calling span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

# The package modules that form the benchmark's layers.  textio is on no
# workload's path and stays unwrapped.
LAYERS = ("complexes", "generators", "graphs", "rigidity", "certificates", "harness", "cli")

# Called hundreds of thousands of times per verify pass (238,139 has_face
# calls); timing them would swamp the spans around them.
COUNT_ONLY = frozenset({"complexes.has_face", "complexes.as_face"})

# The complex's methods are the complexes layer's interface, so they are
# named after the module alone: complexes.missing_faces, not
# complexes.SimplicialComplex.missing_faces.
FLAT_CLASSES = frozenset({"SimplicialComplex"})

# Classes whose constructor does layer work, traced under the class name.
TRACED_CONSTRUCTORS = frozenset({"RigidityMatrix"})


def _decision(args) -> tuple:
    graph = args["graph"]
    return (graph.vertices, graph.edges, args["d"])


def _complex(args) -> tuple:
    # the complex's facets identify it; its vertex count feeds the size buckets
    delta = args["self"]
    return (delta.facets, len(delta.vertices))


def _cells(args) -> int:
    rows = args["rows"]
    return len(rows) * (len(rows[0]) if rows else 0)


# Spans whose arguments the summary needs: span name -> what to keep from
# the call's bound arguments.
ANNOTATE = {
    "rigidity.decide_rigidity": _decision,
    "complexes.missing_faces": _complex,
    "rigidity.rank_mod": _cells,
}


class Recorder:
    """Installs span wrappers into spherig and keeps the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.info: dict[int, object] = {}
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn):
        """Wrap fn so that each call records a span called name."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, info = self._stack, self.info
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            if annotate is not None:
                info[idx] = annotate(signature.bind(*args, **kwargs).arguments)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self._counter(name, fn)
        return self.span(name, fn)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        package = importlib.import_module("spherig")
        modules = [importlib.import_module(f"spherig.{layer}") for layer in LAYERS]
        replacements: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Replace each wrapped function at every name that refers to it.
        lookup_sites = [package, importlib.import_module("spherig.textio"), *modules]
        for site in lookup_sites:
            for attr, obj in list(vars(site).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patch(site, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        prefix = layer if cls.__name__ in FLAT_CLASSES else f"{layer}.{cls.__name__}"
        if cls.__name__ in TRACED_CONSTRUCTORS:
            self._patch(cls, "__init__", self._wrap(f"{layer}.{cls.__name__}", cls.__init__))
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", obj))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]}\t{self.ends[i]}\n")
            for name, n in sorted(self.counts.items()):
                fh.write(f"# count\t{name}\t{n}\n")


class Summary:
    """Per-name aggregates of one recorder's spans."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        n = len(rec.names)
        self.child_ns = child_ns = [0] * n
        for i in range(n):
            p = rec.parents[i]
            if p >= 0:
                child_ns[p] += rec.ends[i] - rec.starts[i]
        self.calls: Counter[str] = Counter(rec.counts)
        self.self_ns: Counter[str] = Counter()
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(rec.names):
            self.calls[name] += 1
            self.self_ns[name] += self.span_self_ns(i)
            self.by_name.setdefault(name, []).append(i)

    def ancestor(self, i: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or -1."""
        rec = self.rec
        p = rec.parents[i]
        while p >= 0 and rec.names[p] != name:
            p = rec.parents[p]
        return p

    def indices(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def span_self_ns(self, i: int) -> int:
        """Duration of span i minus the time its child spans cover."""
        return self.rec.ends[i] - self.rec.starts[i] - self.child_ns[i]

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def total_s(self, name: str) -> float:
        """Wall time inside `name`, counting a recursive call's span once."""
        rec = self.rec
        return sum(
            rec.ends[i] - rec.starts[i]
            for i in self.indices(name)
            if self.ancestor(i, name) < 0
        ) / 1e9
