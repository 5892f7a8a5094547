"""Command-line driver: spec file parsing, command dispatch, the orbit
cache, and deterministic JSON/TSV/DOT reports."""

import argparse
import json
import os
import sys
from itertools import chain, islice

try:                    # CPython's own SHA-256: hashlib would load OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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


def spec_hash(spec):
    blob = json.dumps(spec.to_json(), sort_keys=True,
                      separators=(",", ":")).encode()
    return sha256(blob).hexdigest()


# ---------------------------------------------------------------------
# orbit cache

def _cache_path(cache_dir, spec):
    return os.path.join(cache_dir, "orbits-%s.json" % spec_hash(spec)[:24])


def _cache_text(spec, orbits):
    """The text of the cache file of `orbits`, in chunks: the sorted,
    compact json.dumps of {"orbits": [...], "spec_hash": spec_hash(spec)}
    with one list of [labels, entries] rows per orbit, a row per member in
    NielsenTuple order.  That is the order of the form numbers, so the
    rows come straight off the packed forms, and the JSON text of each
    element and label of the group is made once."""
    T = spec.group.tables()
    dumps = json.JSONEncoder(separators=(",", ":")).encode
    label = [dumps(x) for x in T.label]
    el = [dumps(x) for x in T.els]

    def row(e):
        return "[[%s],[%s]]" % (",".join(map(label.__getitem__, e)),
                                ",".join(map(el.__getitem__, e)))
    yield '{"orbits":['
    for i, o in enumerate(orbits):
        rows = map(row, o.forms.rows(o.nums))
        yield ",[" if i else "["
        yield next(rows)
        while chunk := ",".join(islice(rows, 1 << 12)):
            yield "," + chunk
        yield "]"
    yield '],"spec_hash":"%s"}' % spec_hash(spec)


def load_cached_orbits(cache_dir, spec):
    """The braid orbits of spec, in seed order, when its cache file holds
    exactly the text that store_cached_orbits writes for them: the orbits
    of the move table built over the enumerated forms.  None when there is
    no cache file or it holds anything else (other text, other forms, or a
    partition other than the braid orbits), so that the caller recomputes
    and overwrites it.  The file is compared with the writer's text chunk
    by chunk, so neither is held whole."""
    path = _cache_path(cache_dir, spec)
    if not os.path.exists(path):
        return None
    orbits = all_orbits(spec)
    with open(path, "rb") as fh:
        for chunk in _cache_text(spec, orbits):
            chunk = chunk.encode()
            if fh.read(len(chunk)) != chunk:
                return None
        return None if fh.read(1) else orbits


def store_cached_orbits(cache_dir, spec, orbits):
    """Write the orbit cache atomically: a reader sees the old file or the
    whole new one, never a partial write."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, spec)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.writelines(_cache_text(spec, orbits))
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
                       "seed": [o.seed.labels, o.seed.entries]}
                      for o in all_orbits(spec)]}
    lat = component_lattice(spec)
    out["lattice"] = {
        "inner_sizes": [o.size for o in lat.inner_orbits],
        "absolute_sizes": [o.size for o in lat.abs_orbits],
        "covering": {str(j): i for j, i in sorted(lat.covering.items())},
        "v": {str(i): v for i, v in enumerate(lat.counts)},
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
    if spec.T is not None and comps:    # Riemann-Hurwitz needs a tuple
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
    on its index forms in one pass, which stops once both are settled."""
    T = orbit.spec.group.tables()
    inv, label, r = T.inv, T.label, orbit.spec.r
    hm = di = False
    for e in orbit.forms.rows(orbit.nums) if r % 2 == 0 else ():
        hm = hm or all(e[i + 1] == inv[e[i]] for i in range(0, r, 2))
        di = di or (r == 4 and e[0] == e[2] and label[e[1]] == label[e[3]])
        if hm and (di or r != 4):
            break
    return {"hm": hm, "di": di}


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

def to_json(report):
    """The canonical JSON of the report, in chunks: the text that
    json.dumps gives with these options, and a newline.  Tuples are
    encoded as lists and sets as sorted lists.  The report's dict keys
    must be strs, as to_tsv checks: sort_keys would order other keys by
    their own value, not their text."""
    return chain(json.JSONEncoder(
        sort_keys=True, indent=1, separators=(",", ": "),
        default=sorted).iterencode(report), ("\n",))


def to_tsv(report):
    """Flatten leaf rows of the canonical JSON into label<TAB>value lines:
    tuples walked as lists, sets as sorted lists."""
    def walk(prefix, x):
        if isinstance(x, dict):
            for k in sorted(x):
                if not isinstance(k, str):
                    raise TypeError("report key %r is not a str" % (k,))
                yield from walk(prefix + (k,), x[k])
        elif isinstance(x, (list, tuple, set, frozenset)):
            if isinstance(x, (set, frozenset)):
                x = sorted(x)
            for i, v in enumerate(x):
                yield from walk(prefix + (str(i),), v)
        else:
            yield "%s\t%s" % (".".join(prefix), x)

    # the lines joined by newlines, and one more newline
    lines = walk((), report)
    yield next(lines, "")
    for line in lines:
        yield "\n" + line
    yield "\n"


def to_dot(report):
    """Component lattice digraph (inner orbits -> absolute orbits)."""
    yield "digraph components {\n"
    lat = report.get("orbits", {}).get("lattice") if isinstance(
        report.get("orbits"), dict) else report.get("lattice")
    if lat:
        for i, sz in enumerate(lat["absolute_sizes"]):
            yield '  abs%d [label="abs %d (size %d)"];\n' % (i, i, sz)
        for j, sz in enumerate(lat["inner_sizes"]):
            yield '  inn%d [label="inner %d (size %d)"];\n' % (j, j, sz)
            yield "  inn%d -> abs%s;\n" % (j, lat["covering"][str(j)])
    yield "}\n"


FORMATTERS = {"json": to_json, "tsv": to_tsv, "dot": to_dot}


def emit(report, fmt, out_dir, cmd):
    """Write the report in format `fmt` to `out_dir`/`cmd`.`fmt`, and
    return that path, or to stdout, and return None.  The formatter's
    chunks are written in batches, so the whole text is never held."""
    chunks = FORMATTERS[fmt](report)
    if not out_dir:
        _write(chunks, sys.stdout)
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s.%s" % (cmd, fmt))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write(chunks, fh)
    return path


def _write(chunks, fh):
    # each batch is a chunk and up to 8 192 more
    for first in chunks:
        fh.write("".join(chain((first,), islice(chunks, 1 << 13))))


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
