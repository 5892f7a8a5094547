"""Command-line driver: spec file parsing, command dispatch, the orbit
cache, and deterministic JSON/TSV/DOT reports."""

import argparse
import hashlib
import json
import os
import sys

from .groups import ConsistencyError, BudgetExceeded
from .nielsen import NielsenSpec, cover_genus, DEFAULT_BUDGET
from .braid import all_orbits, component_lattice
from .reduced import (reduce_orbit, reduced_genus, sh_incidence,
                      moduli_checks, wohlfahrt)
from .lift import (orbit_lift_invariant, tower_lift, lift_moduli_degree,
                   bcl_data)

COMMANDS = ("enumerate", "orbits", "cusps", "genus", "shmatrix", "lift",
            "tower", "report")

EXIT_OK, EXIT_CONFIG, EXIT_BUDGET, EXIT_INTERNAL = 0, 2, 3, 4


def _to_jsonable(x):
    if isinstance(x, tuple):
        return [_to_jsonable(v) for v in x]
    if isinstance(x, (list, set, frozenset)):
        return [_to_jsonable(v) for v in sorted(x)] if isinstance(
            x, (set, frozenset)) else [_to_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _to_jsonable(v) for k, v in x.items()}
    return x


def spec_hash(spec):
    blob = json.dumps(spec.to_json(), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------
# orbit cache

def _cache_path(cache_dir, spec):
    return os.path.join(cache_dir, "orbits-%s.json" % spec_hash(spec)[:24])


def _orbit_rows(o):
    return [[t.labels, t.entries] for t in sorted(o.members)]


def _cache_data(spec, orbits):
    return {"spec_hash": spec_hash(spec),
            "orbits": [_to_jsonable(_orbit_rows(o)) for o in orbits]}


def load_cached_orbits(cache_dir, spec):
    """The braid orbits of spec, in seed order, when its cache file holds
    exactly what store_cached_orbits writes for them: the orbits of the
    move table built over the enumerated forms.  None when there is no
    cache file or it holds anything else (unparsable JSON, other forms, or
    a partition other than the braid orbits), so that the caller
    recomputes and overwrites it."""
    path = _cache_path(cache_dir, spec)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError:
        return None
    orbits = all_orbits(spec)
    return orbits if data == _cache_data(spec, orbits) else None


def store_cached_orbits(cache_dir, spec, orbits):
    """Write the orbit cache atomically: a reader sees the old file or the
    whole new one, never a partial write."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, spec)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        # the text of json.dumps(_cache_data(spec, orbits), sort_keys=True,
        # separators=(",", ":")), one orbit per dumps call: json.dump runs
        # the pure-Python encoder, and one dumps of the whole file holds
        # its data and its text in memory at once
        with open(tmp, "w") as fh:
            fh.write('{"orbits":[')
            for i, o in enumerate(orbits):
                if i:
                    fh.write(",")
                fh.write(json.dumps(_orbit_rows(o), separators=(",", ":")))
            fh.write('],"spec_hash":"%s"}' % spec_hash(spec))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------
# per-orbit records and the report sections built from them

class Component:
    """One braid orbit and the per-orbit quantities that the report
    sections read, each derived once.  With `reduced` (r = 4): the Q''
    reduction `rc`, which carries its branch cycles and cusps, and its
    `genus`.  With `lift`: the orbit's `lift` value, or None and the
    ValueError `lift_error` when the lift machinery does not apply."""

    def __init__(self, orbit, reduced, lift):
        self.orbit = orbit
        if reduced:
            self.rc = reduce_orbit(orbit)
            self.genus = reduced_genus(self.rc)
        self.lift = self.lift_error = None
        if lift:
            try:
                self.lift = orbit_lift_invariant(orbit.spec, orbit)
            except ValueError as e:
                self.lift_error = e


def _components(spec, reduced=True, lift=True):
    """One Component per braid orbit, in orbit order."""
    return [Component(o, reduced, lift) for o in all_orbits(spec)]


def cmd_enumerate(spec):
    classes = spec.group.classes()
    return {"count": sum(o.size for o in all_orbits(spec)),
            "class_sizes": {lab: len(classes[lab].members)
                            for lab in spec.labels}}


def cmd_orbits(spec):
    out = {"orbits": [{"size": o.size,
                       "seed": [_to_jsonable(o.seed.labels),
                                _to_jsonable(o.seed.entries)]}
                      for o in all_orbits(spec)]}
    lat = component_lattice(spec)
    out["lattice"] = {
        "inner_sizes": [o.size for o in lat.inner_orbits],
        "absolute_sizes": [o.size for o in lat.abs_orbits],
        "covering": {str(j): i for j, i in sorted(lat.covering.items())},
        "v": {str(i): lat.v_data[i]["v"] for i in lat.v_data},
    }
    return out


def _cusps_section(comps):
    return {"components": [
        {"orbit_size": c.orbit.size, "degree": c.rc.degree,
         "cusps": [{"width": x.width, "u": x.u, "v": x.v, "f": x.f,
                    "label": x.label} for x in c.rc.cusps]}
        for c in comps]}


def _genus_section(spec, comps):
    out = {"components": [{"orbit_size": c.orbit.size,
                           "degree": c.rc.degree,
                           "reduced_genus": c.genus} for c in comps]}
    if spec.T is not None:
        out["cover_genus"] = cover_genus(spec)
    return out


def _shmatrix_section(comps):
    rows = []
    for c in comps:
        mat, labels = sh_incidence(c.rc)
        rows.append({"orbit_size": c.orbit.size, "labels": labels,
                     "matrix": mat})
    return {"components": rows}


def _shapes(orbit):
    """{"hm", "di"}: whether some member of the orbit has the
    Harbater-Mumford shape (g1, g1^-1, g2, g2^-1, ...), and the
    double-identity shape (g1, g2, g1, g4) with g2, g4 in one class, read
    on its index form."""
    T = orbit.spec.group.tables()
    inv, label, r = T.inv, T.label, orbit.spec.r
    forms = list(orbit.forms.rows(orbit.nums))
    return {"hm": r % 2 == 0 and any(
                all(e[i + 1] == inv[e[i]] for i in range(0, r, 2))
                for e in forms),
            "di": r == 4 and any(e[0] == e[2] and label[e[1]] == label[e[3]]
                                 for e in forms)}


def _lift_section(spec, comps):
    """Raises the first orbit's lift error, if any orbit has one."""
    for c in comps:
        if c.lift_error is not None:
            raise c.lift_error
    return {"orbits": [
        {"size": c.orbit.size, "lift": c.lift,
         "obstructed": c.lift != 0,
         **_shapes(c.orbit),
         "moduli_degree": lift_moduli_degree(spec.group, c.lift)}
        for c in comps]}


def cmd_cusps(spec):
    return _cusps_section(_components(spec, lift=False))


def cmd_genus(spec):
    return _genus_section(spec, _components(spec, lift=False))


def cmd_shmatrix(spec):
    return _shmatrix_section(_components(spec, lift=False))


def cmd_lift(spec):
    return _lift_section(spec, _components(spec, reduced=False))


def cmd_tower(spec):
    inner = spec.as_inner()
    return {"orbits": [{"size": o.size, "level_up_orbits":
                        [x.size for x in tower_lift(inner, o)]}
                       for o in all_orbits(inner)]}


def cmd_report(spec):
    rep = {"spec": spec.to_json()}
    rep["enumerate"] = cmd_enumerate(spec)
    rep["orbits"] = cmd_orbits(spec)
    comps = _components(spec, reduced=spec.r == 4)
    if spec.r == 4:
        rep["cusps"] = _cusps_section(comps)
        rep["genus"] = _genus_section(spec, comps)
        rep["shmatrix"] = _shmatrix_section(comps)
        rows = []
        for c in comps:
            row = {"degree": c.rc.degree, "genus": c.genus}
            if c.lift is not None:
                row["lift"] = c.lift
            rows.append(row)
        rep["components"] = rows
        rep["wohlfahrt"] = [wohlfahrt(c.rc) for c in comps]
        rep["moduli"] = [moduli_checks(spec, c.rc) for c in comps]
    if all(c.lift_error is None for c in comps):
        rep["lift"] = _lift_section(spec, comps)
    b = bcl_data(spec)
    rep["bcl"] = {"N_C": b.N_C, "M_inn": b.M_inn, "M_abs": b.M_abs,
                  "rational_union": b.rational_union}
    return rep


BUILDERS = {"enumerate": cmd_enumerate, "orbits": cmd_orbits,
            "cusps": cmd_cusps, "genus": cmd_genus,
            "shmatrix": cmd_shmatrix, "lift": cmd_lift, "tower": cmd_tower,
            "report": cmd_report}


# ---------------------------------------------------------------------
# emission

def to_json_bytes(report):
    return (json.dumps(_to_jsonable(report), sort_keys=True, indent=1,
                       separators=(",", ": ")) + "\n").encode()


def to_tsv(report):
    """Flatten leaf rows of the canonical JSON into label<TAB>value lines."""
    lines = []

    def walk(prefix, x):
        if isinstance(x, dict):
            for k in sorted(x):
                walk(prefix + (str(k),), x[k])
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(prefix + (str(i),), v)
        else:
            lines.append("%s\t%s" % (".".join(prefix), x))

    walk((), _to_jsonable(report))
    return "\n".join(lines) + "\n"


def to_dot(report):
    """Component lattice digraph (inner orbits -> absolute orbits)."""
    lines = ["digraph components {"]
    lat = report.get("orbits", {}).get("lattice") if isinstance(
        report.get("orbits"), dict) else report.get("lattice")
    if lat:
        for i, sz in enumerate(lat["absolute_sizes"]):
            lines.append('  abs%d [label="abs %d (size %d)"];' % (i, i, sz))
        for j, sz in enumerate(lat["inner_sizes"]):
            lines.append('  inn%d [label="inner %d (size %d)"];' % (j, j, sz))
            lines.append("  inn%d -> abs%s;" % (j, lat["covering"][str(j)]))
    lines.append("}")
    return "\n".join(lines) + "\n"


FORMATTERS = {"json": to_json_bytes,
              "tsv": lambda report: to_tsv(report).encode(),
              "dot": lambda report: to_dot(report).encode()}


def emit(report, fmt, out_dir, cmd):
    payload = FORMATTERS[fmt](report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s.%s" % (cmd, fmt))
        with open(path, "wb") as fh:
            fh.write(payload)
        return path
    sys.stdout.write(payload.decode())
    return None


# ---------------------------------------------------------------------
# entry point

def build_parser():
    p = argparse.ArgumentParser(
        prog="hurwitz",
        description="Braid orbits, cusps, and lift invariants of Nielsen "
                    "classes.")
    p.add_argument("--spec", required=True, help="Nielsen spec JSON file")
    p.add_argument("--cmd", default="report", choices=COMMANDS)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", default="json", choices=tuple(FORMATTERS))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--cache")
    return p


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        with open(args.spec) as fh:
            spec = NielsenSpec.from_json(json.load(fh), args.budget)
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except ConsistencyError as e:
        print("internal inconsistency: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.cache and load_cached_orbits(args.cache, spec) is None:
            store_cached_orbits(args.cache, spec, all_orbits(spec))
        report = BUILDERS[args.cmd](spec)
        emit(report, args.format, args.out, args.cmd)
    except BudgetExceeded as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except ConsistencyError as e:
        print("internal inconsistency: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError) as e:
        # OSError: the output or cache path cannot be written
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
