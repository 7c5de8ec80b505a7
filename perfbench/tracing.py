"""Spans and counters around calls into qpnet's layers.

``install`` replaces each traced function at every module attribute of
qpnet that holds it, and each traced method on its class, so calls made
inside the program pass through the wrapper as well as the benchmark's
own.  A span records its name, start, end and parent; spans stay in
memory until ``write``.  Span times are also summed per name for each
operation, closed by ``end_op``, so that each operation's share can be
scaled apart.  Functions called very often (sign algebra,
``Cdf`` construction, ``descendants``) are counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute): functions, wrapped wherever qpnet holds them
SPANNED_FUNCTIONS = [
    ("scenarios.find_counterexample", "qpnet.scenarios", "find_counterexample"),
    ("scenarios.sample_factorized", "qpnet.scenarios", "sample_factorized"),
    ("semantics.satisfies_qpn", "qpnet.semantics", "satisfies_qpn"),
    ("semantics.markov_check", "qpnet.semantics", "markov_check"),
    ("semantics.ci_deviation", "qpnet.semantics", "ci_deviation"),
    ("dependence.influence_sign", "qpnet.dependence", "influence_sign"),
    ("dependence.mlrp_check", "qpnet.dependence", "mlrp_check"),
    ("dependence.tp2_check", "qpnet.dependence", "tp2_check"),
    ("dependence.association_check", "qpnet.dependence", "association_check"),
    ("dist.fsd_compare", "qpnet.dist", "fsd_compare"),
    ("inference.propagate", "qpnet.inference", "propagate"),
    ("inference.query", "qpnet.inference", "query"),
    ("inference.reduce_vertex", "qpnet.inference", "reduce_vertex"),
    ("inference.reverse_edge", "qpnet.inference", "reverse_edge"),
    ("io.load_table", "qpnet.io", "load_table"),
    ("io.load_network", "qpnet.io", "load_network"),
    ("cli", "qpnet.cli", "main"),
]
COUNTED_FUNCTIONS = [
    ("signs.sign_product", "qpnet.signs", "sign_product"),
    ("signs.sign_sum", "qpnet.signs", "sign_sum"),
]
# (span name, module, class, method): construction spans wrap __post_init__,
# which the dataclass __init__ looks up on the class
SPANNED_METHODS = [
    ("dist.JointTable", "qpnet.dist", "JointTable", "__post_init__"),
    ("dist.marginalize", "qpnet.dist", "JointTable", "marginalize"),
    ("graph.SignedDag", "qpnet.graph", "SignedDag", "__post_init__"),
    ("graph.active_trails", "qpnet.graph", "SignedDag", "active_trails"),
    ("graph.d_separated", "qpnet.graph", "SignedDag", "d_separated"),
]
COUNTED_METHODS = [
    ("dist.Cdf", "qpnet.dist", "Cdf", "__post_init__"),
    ("graph.descendants", "qpnet.graph", "SignedDag", "descendants"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # name id, start, end, parent
        self.stack: list[int] = []  # indices of open spans
        self.open_ids: list[int] = []  # their name ids
        self.child_ns: list[int] = []  # time of finished children, per open span
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)  # per name, in the open operation
        self.self_ns = defaultdict(int)
        self.per_op: list[tuple[dict, dict]] = []  # (total_ns, self_ns) per operation
        self.counts = defaultdict(int)  # counters and event totals
        self.enabled = False

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def spanned(self, name: str, fn, after=None):
        nid = self._id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            self.open_ids.append(nid)
            self.child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.open_ids.pop()
                children = self.child_ns.pop()
                took = end - start
                if self.child_ns:
                    self.child_ns[-1] += took
                self.spans[index] = (nid, start, end, parent)
                self.calls[name] += 1
                self.total_ns[name] += took
                self.self_ns[name] += took - children
            if after is not None:
                after(result)
            return result

        return wrapper

    def end_op(self):
        """Close the operation's span totals and start the next one's."""
        self.per_op.append((self.total_ns, self.self_ns))
        self.total_ns, self.self_ns = defaultdict(int), defaultdict(int)

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function and method; see the module docstring."""
        modules = [m for n, m in sys.modules.items() if n == "qpnet" or n.startswith("qpnet.")]
        hooks = {
            "graph.active_trails": lambda trails: self._add("graph.active_trails.trails", len(trails)),
            "scenarios.find_counterexample": lambda r: self._add("scenarios.trials", r.trials_used),
            "semantics.satisfies_qpn": self._count_accepted,
        }
        for name, module, attr in SPANNED_FUNCTIONS + COUNTED_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            if (name, module, attr) in COUNTED_FUNCTIONS:
                wrapped = self.counted(name, original)
            else:
                wrapped = self.spanned(name, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for name, module, cls, attr in SPANNED_METHODS + COUNTED_METHODS:
            klass = getattr(sys.modules[module], cls)
            original = getattr(klass, attr)
            if (name, module, cls, attr) in COUNTED_METHODS:
                setattr(klass, attr, self.counted(name, original))
            else:
                setattr(klass, attr, self.spanned(name, original, hooks.get(name)))
        self.search_id = self._id("scenarios.find_counterexample")

    def _add(self, key: str, amount: int):
        self.counts[key] += amount

    def _count_accepted(self, report):
        # a trial is accepted when satisfies_qpn, called from the search, passes
        if report.satisfied and self.search_id in self.open_ids:
            self.counts["scenarios.accepted"] += 1

    def write(self, path):
        t0 = min((s[1] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": self.names,
                    "spans": [[n, a - t0, b - t0, p] for n, a, b, p in self.spans],
                },
                f,
                separators=(",", ":"),
            )
