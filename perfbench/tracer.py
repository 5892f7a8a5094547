"""Per-module tracing for the benchmark, from wrappers around the public
functions of `hurwitz`; the program itself is not changed.

A wrapper is installed wherever a module binds the function's name, so
`hurwitz.cli.reduce_orbit` is traced as well as `hurwitz.reduced.reduce_orbit`.
Each traced call is a span (name, start, end, parent); its self time is its
duration minus that of its child spans.  Calls nested in a call of the same
name are not counted again.  The element-level functions in HOT run hundreds
of thousands of times per operation, so they are kept as one aggregate
record (calls, total time) per parent span instead of one span per call, and
`groups.mul` is only counted: its time stays in its caller's self time.

Run as a script, it traces one `hurwitz` CLI invocation:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json OP_ID --spec ...
"""

import json
import os
import sys
import time
from collections import Counter, defaultdict

from hurwitz import braid, cli, groups, lift, nielsen, reduced

MODULES = {"groups": groups, "nielsen": nielsen, "braid": braid,
           "reduced": reduced, "lift": lift, "cli": cli}

# (module, function) pairs traced as spans
FUNCTIONS = [
    ("groups", "make_group"),
    ("nielsen", "enumerate_tuples"), ("nielsen", "inner_canonical"),
    ("nielsen", "absolute_class_map"),
    ("braid", "all_orbits"), ("braid", "component_lattice"),
    ("braid", "q_twist"),
    ("reduced", "reduce_orbit"), ("reduced", "gamma_actions"),
    ("reduced", "cusps"), ("reduced", "reduced_genus"),
    ("reduced", "sh_incidence"), ("reduced", "wohlfahrt"),
    ("lift", "orbit_lift_invariant"), ("lift", "tower_lift"),
    ("lift", "bcl_data"),
    ("cli", "load_cached_orbits"), ("cli", "store_cached_orbits"),
    ("cli", "emit"), ("cli", "cmd_enumerate"), ("cli", "cmd_orbits"),
    ("cli", "cmd_cusps"), ("cli", "cmd_genus"), ("cli", "cmd_shmatrix"),
    ("cli", "cmd_lift"), ("cli", "cmd_tower"), ("cli", "cmd_report"),
]
# GroupHandle methods traced under the name groups.<method>
METHODS = ["generates", "classes"]
HOT = {"nielsen.inner_canonical", "braid.q_twist", "groups.generates",
       "groups.classes"}


class Tracer:
    def __init__(self, op_id):
        self.op_id = op_id
        self.enabled = True
        self.stack = []                 # frames: [child_seconds, span_id]
        self.active = Counter()         # name -> depth, to skip nesting
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.spans = []     # [op_id, span_id, parent_id, name, t0, t1]
        self.hot = defaultdict(lambda: [0, 0.0])    # (parent, name)
        self.mul_calls = 0
        self._next_id = 1

    def wrap(self, name, fn, hook=None):
        hot = name in HOT

        def traced(*args, **kwargs):
            if not self.enabled or self.active[name]:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            self.stack.append(frame)
            self.active[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.active[name] -= 1
                self.stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                pid = 0
                if parent is not None:
                    parent[0] += dur
                    pid = parent[1]
                if hot:
                    agg = self.hot[(pid, name)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    self.spans.append([self.op_id, frame[1], pid, name,
                                       t0, t1])
            if hook is not None:
                hook(out, args)
            return out

        return traced

    def install(self):
        hooks = {
            "nielsen.enumerate_tuples":
                lambda out, a: self._count("nielsen.enumerate_tuples.forms",
                                           len(out)),
            "cli.load_cached_orbits":
                lambda out, a: self._count("cli.cache_hits",
                                           out is not None),
            "cli.store_cached_orbits":
                lambda out, a: self._count("cli.cache_bytes", os.path.getsize(
                    cli._cache_path(a[0], a[1]))),
            "cli.emit":
                lambda out, a: self._count("cli.report_bytes",
                                           os.path.getsize(out) if out
                                           else 0),
        }
        originals = {}
        for mod_name, fn_name in FUNCTIONS:
            name = "%s.%s" % (mod_name, fn_name)
            fn = getattr(MODULES[mod_name], fn_name)
            originals[id(fn)] = self.wrap(name, fn, hooks.get(name))
        for mod in MODULES.values():
            for attr, val in list(vars(mod).items()):
                if callable(val) and id(val) in originals:
                    setattr(mod, attr, originals[id(val)])
        for key, val in list(cli.BUILDERS.items()):
            if id(val) in originals:
                cli.BUILDERS[key] = originals[id(val)]
        handles = [c for c in vars(groups).values()
                   if isinstance(c, type) and issubclass(c, groups.GroupHandle)]
        for cls in handles:
            for meth in METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, self.wrap("groups." + meth,
                                                 vars(cls)[meth]))
            if "mul" in vars(cls):
                setattr(cls, "mul", self._counted(vars(cls)["mul"]))

    def _counted(self, fn):
        def mul(handle, a, b):
            if self.enabled:
                self.mul_calls += 1
            return fn(handle, a, b)
        return mul

    def _count(self, key, n):
        self.counters[key] += int(n)

    def result(self):
        """Aggregates and spans of this process, as one JSON object."""
        calls = dict(self.calls)
        calls["groups.mul"] = self.mul_calls
        return {"op": self.op_id, "calls": calls, "self_s": dict(self.self_s),
                "counters": dict(self.counters), "spans": self.spans,
                "hot": [[p, n, c, t] for (p, n), (c, t) in self.hot.items()]}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.result(), fh, separators=(",", ":"))


if __name__ == "__main__":
    tracer = Tracer(int(sys.argv[2]))
    tracer.install()
    code = cli.run(sys.argv[3:])
    tracer.dump(sys.argv[1])
    sys.exit(code)
