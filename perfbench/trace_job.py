"""Run one refsev CLI job with its layers wrapped in spans.

Usage: python3 perfbench/trace_job.py OUT.json <refsev arguments>

Every public function of each traced module, and every public method and
arithmetic operator of the classes in TRACED_CLASSES, is replaced by a
wrapper that records a span. Every binding of a wrapped object is patched,
including the `from .x import y` copies other modules hold. Spans are kept
in memory as a calling-context tree (one node per distinct call path, with
its parent link, call count, total and self time) and written to OUT.json,
together with exact counters, when the job ends. Nothing under src/ is
edited: the wrapping happens in this process only.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# floor_diagrams runs on no user-facing path and is deliberately not traced
TRACED_MODULES = (
    "cli", "conjectures", "genfun", "nodepoly", "linalg", "graphs",
    "caporaso", "cache", "modular", "qseries", "ylaurent", "rationals",
    "tables",
)
TRACED_CLASSES = {
    "ylaurent": ("YLaurent",),
    "qseries": ("QSeries",),
    "caporaso": ("CHTable",),
    "cache": ("CacheStore",),
}
# dunders that are part of a traced class's public interface
OPERATORS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__pow__", "__truediv__",
)
# value constructors run per coefficient; their cost stays with the caller
UNTRACED_INITS = ("YLaurent", "QSeries")


class Node:
    __slots__ = ("name", "kids", "calls", "total", "self_s", "child", "first",
                 "last")

    def __init__(self, name):
        self.name = name
        self.kids = {}
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.child = 0.0  # child time of the active call; one per node
        self.first = None
        self.last = 0.0


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.root = Node("process")
        self.stack = [self.root]
        self.counts = Counter()

    def span(self, name, fn):
        """Wrap fn so that each call is a span named `name`."""
        stack = self.stack
        clock = perf_counter
        t0 = self.t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.kids.get(name)
            if node is None:
                node = parent.kids[name] = Node(name)
            stack.append(node)
            node.child = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                node.calls += 1
                node.total += dt
                node.self_s += dt - node.child
                parent.child += dt
                if node.first is None:
                    node.first = start - t0
                node.last = end - t0

        return wrapper

    def nodes(self):
        """The span tree in preorder, as JSON-ready dicts."""
        out = []
        todo = [(self.root, None)]
        while todo:
            node, parent_id = todo.pop()
            nid = len(out)
            out.append({
                "id": nid, "parent": parent_id, "name": node.name,
                "calls": node.calls, "total_s": node.total,
                "self_s": node.self_s, "first_start_s": node.first,
                "last_end_s": node.last,
            })
            todo.extend((kid, nid) for kid in reversed(list(node.kids.values())))
        return out


def _counting_hooks(refsev, counts):
    """Counting wrappers for the quantities a span count cannot give.

    Keyed by span name; each maps the original callable to a counting one.
    A hook whose target no longer exists is simply never applied.
    """
    YLaurent = refsev.ylaurent.YLaurent
    graphs = refsev.graphs

    def ylaurent_mul(fn):
        def mul(self, other):
            right = len(other.terms) if isinstance(other, YLaurent) else 1
            counts["ylaurent.mul.term_products"] += len(self.terms) * right
            return fn(self, other)
        return mul

    def chtable_insert(fn):
        def insert(self, mode, *args, **kwargs):
            counts["caporaso.states.sym" if mode == "sym"
                   else "caporaso.states.int"] += 1
            return fn(self, mode, *args, **kwargs)
        return insert

    def chtable_lookup(fn):
        def lookup(self, *args, **kwargs):
            val = fn(self, *args, **kwargs)
            counts["caporaso.memo.lookups"] += 1
            if val is not None:
                counts["caporaso.memo.hits"] += 1
            return val
        return lookup

    def store_init(fn):
        def init(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            counts["cache.records_loaded"] += len(self)
        return init

    def store_put(fn):
        def put(self, key, payload):
            new = key not in self
            fn(self, key, payload)
            if new:
                counts["cache.records_written"] += 1
                counts["cache.bytes_written"] += len(f"{key}\t{payload}\n".encode())
        return put

    def enumerate_graphs(fn):
        def enumerate_(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["graphs.enumerated"] += len(out)
            return out
        return enumerate_

    def count_orderings(fn):
        def count(G, beta, strict=False):
            val = fn(G, beta, strict)
            if strict:  # the P^s test refined_count applies to each graph
                counts["graphs.examined"] += 1
                if val:
                    counts["graphs.used"] += 1
            return val
        return count

    def phi(fn):
        def phi_(G, beta, strict=False):
            cache = getattr(graphs, "_PHI_CACHE", None)
            before = len(cache) if cache is not None else 0
            val = fn(G, beta, strict)
            edges = G.edges
            # the memoised case: non-strict, inside the beta window
            if (cache is not None and not strict and edges
                    and max(j for _, j, _ in edges) <= len(beta)):
                counts["graphs.phi.lookups"] += 1
                counts["graphs.phi.misses"] += len(cache) - before
            return val
        return phi_

    return {
        "ylaurent.YLaurent.__mul__": ylaurent_mul,
        "caporaso.CHTable.insert": chtable_insert,
        "caporaso.CHTable.lookup": chtable_lookup,
        "cache.CacheStore.__init__": store_init,
        "cache.CacheStore.put": store_put,
        "graphs.enumerate_graphs": enumerate_graphs,
        "graphs.count_orderings": count_orderings,
        "graphs.phi": phi,
    }


def _targets(refsev):
    """(span name, original callable) for everything to wrap."""
    out = []
    for short in TRACED_MODULES:
        mod = getattr(refsev, short, None)
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            out.append((f"{short}.{attr}", obj))
        for cname in TRACED_CLASSES.get(short, ()):
            cls = getattr(mod, cname, None)
            if cls is None:
                continue
            for attr, obj in vars(cls).items():
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                if attr == "__init__" and cname in UNTRACED_INITS:
                    continue
                if isinstance(obj, (staticmethod, classmethod)):
                    fn = obj.__func__
                elif inspect.isfunction(obj):
                    fn = obj
                else:
                    continue
                out.append((f"{short}.{cname}.{attr}", fn))
    return out


def install(refsev):
    """Wrap the traced layers of the imported refsev package in place."""
    tracer = Tracer()
    hooks = _counting_hooks(refsev, tracer.counts)
    wrapped = {}  # id(original) -> wrapper, so aliases share one span name
    for name, fn in _targets(refsev):
        if id(fn) in wrapped:
            continue
        inner = functools.wraps(fn)(hooks[name](fn)) if name in hooks else fn
        wrapped[id(fn)] = (fn, tracer.span(name, inner))
    # patch every binding: module globals and class attributes alike
    modules = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("refsev")]
    owners = list(modules)
    for mod in modules:
        owners.extend(c for c in vars(mod).values()
                      if inspect.isclass(c) and c.__module__.startswith("refsev"))
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            raw = obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj
            hit = wrapped.get(id(raw))
            if hit is None or hit[0] is not raw:
                continue
            new = hit[1]
            if isinstance(obj, staticmethod):
                new = staticmethod(new)
            elif isinstance(obj, classmethod):
                new = classmethod(new)
            setattr(owner, attr, new)
    return tracer


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import refsev.cli  # loads every layer before it is wrapped
    import refsev

    tracer = install(refsev)
    status = 1
    try:
        status = refsev.cli.main(cli_args)
    except SystemExit as exc:  # as the interpreter would report it
        if exc.code is None or isinstance(exc.code, int):
            status = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"counts": dict(tracer.counts), "spans": tracer.nodes()}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
