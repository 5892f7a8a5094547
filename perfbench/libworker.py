"""One pass of the `orbits-towers` workload in a fresh interpreter: library
calls into `hurwitz.braid` and `hurwitz.lift`, each timed on its own, in the
order given on the command line.  Each operation builds its group and spec,
so nothing is shared between operations.  The data the checks need is
gathered after each timed call, with tracing off.

    PYTHONPATH=src python3 perfbench/libworker.py OPS_JSON [SPANS.json]

prints one JSON object: {"ops": [{"name", "seconds", "summary"}, ...]}.
"""

import gc
import json
import sys
import time

# called through their modules, so that the tracer's wrappers are seen
from hurwitz import braid, groups, lift
from hurwitz.nielsen import NielsenSpec


def _spec(d):
    return NielsenSpec(groups.make_group(d["group"]), d["classes"],
                       d.get("equivalence", "inner"), d.get("T"))


def run_orbits(d):
    return braid.all_orbits(_spec(d))


def summarize_orbits(d, orbits):
    return {"sizes": [o.size for o in orbits],
            "union": len(set().union(*(o.members for o in orbits)))}


def run_lattice(d):
    return braid.component_lattice(_spec(d))


def summarize_lattice(d, lat):
    inner = _spec(dict(d, equivalence="inner"))
    return {"inner_sizes": [o.size for o in lat.inner_orbits],
            "absolute_sizes": [o.size for o in lat.abs_orbits],
            "covering": {str(j): i for j, i in lat.covering.items()},
            "lift": [lift.orbit_lift_invariant(inner, o)
                     for o in lat.inner_orbits]}


def run_tower(d):
    spec = _spec(d)
    return spec, [(o, lift.tower_lift(spec, o))
                  for o in braid.all_orbits(spec)]


def summarize_tower(d, result):
    spec, pairs = result
    g = d["group"]
    child = _spec(dict(d, group=dict(g, k=g["k"] + 1)))
    return [{"size": o.size, "lift": lift.orbit_lift_invariant(spec, o),
             "child_sizes": [c.size for c in kids],
             "child_lifts": [lift.orbit_lift_invariant(child, c)
                             for c in kids]}
            for o, kids in pairs]


KINDS = {"orbits": (run_orbits, summarize_orbits),
         "lattice": (run_lattice, summarize_lattice),
         "tower": (run_tower, summarize_tower)}


def main(ops, spans_path=None):
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer(0)
        tracer.install()
    out = []
    for op_id, op in enumerate(ops, 1):
        run, summarize = KINDS[op["kind"]]
        if tracer:
            tracer.op_id = op_id
            tracer.enabled = True
        t0 = time.perf_counter()
        result = run(op["spec"])
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        out.append({"name": op["name"], "seconds": seconds,
                    "summary": summarize(op["spec"], result)})
        del result
        gc.collect()
    if tracer:
        tracer.dump(spans_path)
    print(json.dumps({"ops": out}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), sys.argv[2] if len(sys.argv) > 2 else None)
