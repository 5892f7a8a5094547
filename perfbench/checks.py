"""Output checks for the benchmark, computed apart from the program.

Every check compares the program's output with a closed form, a brute-force
count made here with this module's own permutation arithmetic, a second total
reached by another path, or a property the method must have.  No check reads
a stored copy of an earlier output.  Each function returns a list of error
strings; an empty list means the output passed.
"""

from itertools import permutations, product
from math import gcd


# ---------------------------------------------------------------------
# inner Nielsen counts

def _prime_factors(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def _a5_c34_count():
    """Inner classes of 4-tuples of 3-cycles in A5 with product one that
    generate A5: the raw count divided by |A5| = 60, which acts freely on
    generating tuples because A5 has trivial centre."""
    pts = range(5)

    def mul(p, q):
        return tuple(p[q[i]] for i in pts)

    def inv(p):
        out = [0] * 5
        for i in pts:
            out[p[i]] = i
        return tuple(out)

    def order_generated(gens):
        seen = {tuple(pts)}
        frontier = list(seen)
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return len(seen)

    three = [p for p in permutations(pts)
             if sum(p[i] != i for i in pts) == 3]
    three_set = set(three)
    raw = 0
    for a, b, c in product(three, repeat=3):
        d = inv(mul(mul(a, b), c))
        if d in three_set and order_generated((a, b, c, d)) == 60:
            raw += 1
    if raw % 60:
        raise ValueError("A5 raw count %d is not a multiple of 60" % raw)
    return raw // 60


def expected_inner_count(spec):
    """The size of the inner Nielsen class of a spec of the ladder, from
    its closed form (or, for A5 C3^4, a brute-force count)."""
    g, labels = spec["group"], sorted(spec["classes"])
    fam = g["family"]
    if fam == "affine2" and labels == ["C+", "C+", "C-", "C-"] \
            and g["order"] == 3:
        ell, k = g["ell"], g["k"]
        s = ell ** (4 * k)            # (L/ell)^4 with L = ell^(k+1)
        if ell % 3 == 2:
            return 2 * s * (ell ** 4 - 1)
        if ell % 3 == 1:
            return 2 * s * (ell ** 2 - 1) ** 2
    if fam == "affine2" and labels == ["2"] * 4 and g["order"] == 2:
        ell, k = g["ell"], g["k"]
        return ell ** (4 * k) * (ell ** 2 - 1) * (ell ** 2 - ell) // 2
    if fam == "dihedral" and labels == ["2"] * 4 and g["m"] % 2:
        m = g["m"]
        j2 = m * m
        for p in _prime_factors(m):
            j2 = j2 // (p * p) * (p * p - 1)
        return j2 // 2
    if fam == "alternating" and g["n"] == 5 and labels == ["3"] * 4:
        return _a5_c34_count()
    raise ValueError("no closed form for %r" % (spec,))


# ---------------------------------------------------------------------
# checks

def serre_split_errors(ell, lifts, covering, n_abs):
    """Serre family at level 0 (the paper): phi(ell) inner orbits whose
    lift values are exactly the units of Z/ell, glued into 2 absolute
    orbits that split the units into squares and non-squares.
    `covering` maps inner orbit index -> absolute orbit index."""
    units = {u for u in range(1, ell) if gcd(u, ell) == 1}
    squares = frozenset(u * u % ell for u in units)
    errs = []
    if len(lifts) != len(units) or set(lifts) != units:
        errs.append("serre: lift values %s are not the units mod %d"
                    % (sorted(lifts), ell))
    split = {}
    for j, v in enumerate(lifts):
        split.setdefault(covering[j], set()).add(v)
    if n_abs != 2 or {frozenset(s) for s in split.values()} != \
            {squares, frozenset(units) - squares}:
        errs.append("serre: absolute orbits do not split the units into "
                    "squares and non-squares: %s" % sorted(
                        sorted(s) for s in split.values()))
    return errs


def _is_serre(spec):
    g = spec["group"]
    return (g["family"] == "affine2" and g["order"] == 2 and g["k"] == 0
            and sorted(spec["classes"]) == ["2"] * 4)


def check_report(spec, rep, expected=None):
    """Checks one r = 4 `report` against the closed-form count and the
    properties of the method.  `expected` is expected_inner_count(spec),
    passed in so a pass does not recount A5."""
    if expected is None:
        expected = expected_inner_count(spec)
    try:
        return _check_report(spec, rep, expected)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return ["malformed report: %r" % (e,)]


def _check_report(spec, rep, expected):
    errs = []
    count = rep["enumerate"]["count"]
    if count != expected:
        errs.append("enumerate.count %d != closed form %d"
                    % (count, expected))
    sizes = [o["size"] for o in rep["orbits"]["orbits"]]
    if sum(sizes) != expected:
        errs.append("orbit sizes sum to %d, closed form %d"
                    % (sum(sizes), expected))
    lat = rep["orbits"]["lattice"]
    if sum(lat["inner_sizes"]) != count:
        errs.append("lattice.inner_sizes sum %d != enumerate.count %d"
                    % (sum(lat["inner_sizes"]), count))
    if sorted(lat["inner_sizes"]) != sorted(sizes):
        errs.append("lattice inner orbits differ from the orbit list")

    rows = {"components": rep["components"],
            "cusps": rep["cusps"]["components"],
            "genus": rep["genus"]["components"],
            "shmatrix": rep["shmatrix"]["components"],
            "wohlfahrt": rep["wohlfahrt"],
            "moduli": rep["moduli"]}
    if spec["group"]["family"] != "dihedral":
        rows["lift"] = rep["lift"]["orbits"]
    for key, r in rows.items():
        if len(r) != len(sizes):
            errs.append("%s has %d rows for %d orbits"
                        % (key, len(r), len(sizes)))
    if errs:
        return errs

    for size, cu, ge, comp in zip(sizes, rows["cusps"], rows["genus"],
                                  rows["components"]):
        d = cu["degree"]
        if cu["orbit_size"] != size or ge["orbit_size"] != size:
            errs.append("component rows out of order with the orbits")
        # |Q''| = 4, so a Q''-orbit has 1, 2 or 4 members
        if not size <= 4 * d <= 4 * size:
            errs.append("reduced degree %d outside [%d/4, %d]"
                        % (d, size, size))
        # the cusps are the gamma_infty cycles on the reduced classes
        if sum(c["width"] for c in cu["cusps"]) != d:
            errs.append("cusp widths do not sum to the degree %d" % d)
        if ge["degree"] != d or comp["degree"] != d:
            errs.append("genus/components degree disagrees with cusps")
        if ge["reduced_genus"] != comp["genus"] or comp["genus"] < 0:
            errs.append("reduced genus rows disagree")

    if _is_serre(spec):
        covering = {int(j): i for j, i in lat["covering"].items()}
        errs += serre_split_errors(
            spec["group"]["ell"], [o["lift"] for o in rows["lift"]],
            covering, len(lat["absolute_sizes"]))
    return errs


def check_warm(cold_bytes, warm_bytes):
    """A report made from a cache hit equals the cold report byte for
    byte."""
    if cold_bytes != warm_bytes:
        return ["warm report differs from the cold report (%d vs %d bytes)"
                % (len(cold_bytes), len(warm_bytes))]
    return []


def check_orbits(spec, summary):
    """`all_orbits` on an inner spec: the orbits partition the Nielsen
    class of the closed-form size."""
    n = expected_inner_count(spec)
    errs = []
    if sum(summary["sizes"]) != n or summary["union"] != n:
        errs.append("orbit sizes sum %d, union %d, closed form %d"
                    % (sum(summary["sizes"]), summary["union"], n))
    return errs


def check_lattice(spec, summary):
    """`component_lattice` on Serre absolute: the inner orbits partition
    the class, and the Serre split from the paper holds."""
    inner = dict(spec, equivalence="inner")
    n = expected_inner_count(inner)
    errs = []
    if sum(summary["inner_sizes"]) != n:
        errs.append("lattice inner sizes sum %d != closed form %d"
                    % (sum(summary["inner_sizes"]), n))
    covering = {int(j): i for j, i in summary["covering"].items()}
    errs += serre_split_errors(spec["group"]["ell"], summary["lift"],
                               covering, len(summary["absolute_sizes"]))
    return errs


def check_tower(spec, summary):
    """`tower_lift` over every inner orbit of a base spec at level k: the
    base orbits partition the level-k class, the child orbits summed over
    all base orbits make up the whole level-(k+1) class, and each child's
    lift value reduces to its base orbit's value modulo the base modulus
    L = ell^(k+1)."""
    g = spec["group"]
    child = dict(spec, group=dict(g, k=g["k"] + 1))
    L = g["ell"] ** (g["k"] + 1)
    errs = []
    base_total = sum(b["size"] for b in summary)
    if base_total != expected_inner_count(spec):
        errs.append("base orbits sum %d != closed form %d"
                    % (base_total, expected_inner_count(spec)))
    child_total = sum(sum(b["child_sizes"]) for b in summary)
    if child_total != expected_inner_count(child):
        errs.append("child orbits sum %d != closed form %d"
                    % (child_total, expected_inner_count(child)))
    for b in summary:
        if len(b["child_lifts"]) != len(b["child_sizes"]):
            errs.append("child lift values missing")
        bad = [v for v in b["child_lifts"] if v % L != b["lift"] % L]
        if bad:
            errs.append("child lift values %s do not reduce to %d mod %d"
                        % (bad, b["lift"], L))
    return errs
