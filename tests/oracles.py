"""References for hurwitz, used by the tests only: the set-based orbit
partition; the tuple-level engine (braid moves on NielsenTuples, the BFS
orbit, canonical forms, brute enumeration, the Nielsen predicate and
shape tests, the centralizer); the stabilizer of a class multiset and
the absolute forms by brute force; the numbered class as a tuple list
and a dict, the reference for the packed class; the sh-incidence matrix by set
intersections; the orbit cache file's data, read off the NielsenTuples;
the closed-form products of the extension groups heis2 and k22z3; and
closed-form lift values, cross-checks for hurwitz.lift."""

import hashlib
import json
import math
from array import array
from itertools import groupby, permutations, product

from hurwitz.braid import BraidOrbit, q_twist
from hurwitz.groups import ConsistencyError, closure
from hurwitz.lift import lift_moduli_degree, orbit_lift_invariant
from hurwitz.nielsen import (NielsenTuple, Forms, Moves, canonizer,
                             enumerate_tuples, from_indices, index_moves,
                             inner_canonical)


# ---------------------------------------------------------------------
# the set-based orbit partition, the oracle of groups.orbit_arrays

def partition(items, moves, escaped):
    """The orbits of `moves` (maps, called on an item) on `items`, as
    frozensets in order of their least member.  An orbit that leaves
    `items` raises ConsistencyError with the message `escaped`."""
    left = set(items)
    orbits = []
    for t in sorted(left):
        if t in left:
            orbit = closure(t, moves)
            if not orbit <= left:
                raise ConsistencyError(escaped)
            left -= orbit
            orbits.append(frozenset(orbit))
    return orbits


# ---------------------------------------------------------------------
# the tuple-level engine

def q_untwist(spec, i, t):
    """Inverse twist: (a, b) -> (b, b^{-1} a b)."""
    h = spec.group
    j = i - 1
    e, l = list(t.entries), list(t.labels)
    a, b = e[j], e[j + 1]
    e[j], e[j + 1] = b, h.conj(a, h.inv(b))
    l[j], l[j + 1] = l[j + 1], l[j]
    return NielsenTuple(tuple(l), tuple(e))


def sh(spec, t):
    """Left shift (g_1,...,g_r) -> (g_2,...,g_r,g_1)."""
    return NielsenTuple(t.labels[1:] + t.labels[:1],
                        t.entries[1:] + t.entries[:1])


def braid_moves(spec):
    """q_1..q_{r-1} and sh on NielsenTuples."""
    moves = [lambda t, i=i: q_twist(spec, i, t) for i in range(1, spec.r)]
    moves.append(lambda t: sh(spec, t))
    return moves


def centralizer(h, g):
    """The elements of h that commute with g, by tuple arithmetic."""
    return [z for z in h.elements() if h.mul(g, z) == h.mul(z, g)]


def is_nielsen(spec, t):
    """Is t a generating product-one tuple over the classes of spec?"""
    h = spec.group
    classes = h.classes()
    if len(t.entries) != spec.r or sorted(t.labels) != sorted(spec.labels):
        return False
    for lab, g in zip(t.labels, t.entries):
        if g not in classes[lab].members:
            return False
    p = h.identity
    for g in t.entries:
        p = h.mul(p, g)
    if p != h.identity:
        return False
    return h.generates(list(t.entries))


def apply_aut(spec, p, t):
    """Automorphism on a tuple, given as a permutation p of the element
    indices: map entries, recompute labels, and return the inner
    canonical form."""
    h = spec.group
    T = h.tables()
    return from_indices(T, h.memo(canonizer, h)(
        tuple(p[i] for i in T.indices(t.entries))))


def absolute_canonical(spec, t):
    """Min over the closure of the inner form under the automorphism
    generators (the same value the orbit machinery assigns)."""
    return min(closure(inner_canonical(spec, t), [
        lambda t, p=p: apply_aut(spec, p, t) for p in spec.aut_gens()]))


def _aut_images(h, labels):
    """Each map of the group the family's `aut_gens` generate, by brute
    force: the closure of those tuple maps under composition, each map a
    tuple of the images of the elements in index order; with the sorted
    image of the labelled class multiset `labels` under it."""
    T = h.tables()
    classes = h.classes()
    group = closure(tuple(T.els), [lambda m, a=a: tuple(map(a, m))
                                   for a in h.aut_gens()])
    return [(m, tuple(sorted(h.class_of(m[T.index[classes[lab].rep]]).label
                             for lab in labels)))
            for m in group]


def stabilizer_maps(h, labels):
    """Every map of the group the family's `aut_gens` generate that fixes
    the labelled class multiset `labels`, by brute force."""
    base = tuple(sorted(labels))
    return sorted(m for m, image in _aut_images(h, labels) if image == base)


def absolute_multipliers(spec):
    """M_abs of the branch-cycle argument [FrV91] by brute force: the
    units u mod N_C with C^u = C^beta for some map beta of the group the
    family's `aut_gens` generate."""
    h = spec.group
    classes = h.classes()
    N = math.lcm(*(classes[lab].elem_order for lab in spec.labels))
    images = {image for _, image in _aut_images(h, spec.labels)}
    return [u for u in range(1, N + 1) if math.gcd(u, N) == 1
            and tuple(sorted(h.class_of(h.power(classes[lab].rep, u)).label
                             for lab in spec.labels)) in images]


def stabilizer_forms(spec):
    """The absolute forms of spec by brute force: the least NielsenTuple
    of each class of generating inner forms under every map of
    stabilizer_maps, in order."""
    h = spec.group
    T = h.tables()
    canon = h.memo(canonizer, h)
    perms = [T.indices(m) for m in stabilizer_maps(h, spec.labels)]
    seen, out = set(), []
    for t in enumerate_tuples(spec.as_inner()):
        if t not in seen:
            e = T.indices(t.entries)
            orbit = {from_indices(T, canon(tuple(p[i] for i in e)))
                     for p in perms}
            seen |= orbit
            out.append(min(orbit))
    return sorted(out)


def canonical(spec, t):
    if spec.equivalence == "inner":
        return inner_canonical(spec, t)
    return absolute_canonical(spec, t)


def orbit(spec, seed):
    """Braid orbit of a canonical seed (BFS under q_i, sh, re-canonicalized
    after every move), numbered on its own in form order; its nielsen.Moves
    record each move the BFS makes."""
    if canonical(spec, seed) != seed:
        raise ValueError("seed is not canonical")
    table = [{} for _ in range(spec.r)]
    moves = [lambda t, m=m, d=d: d.setdefault(t, canonical(spec, m(t)))
             for m, d in zip(braid_moves(spec), table)]
    members = sorted(closure(seed, moves))
    number = {t: k for k, t in enumerate(members)}
    T = spec.group.tables()
    forms = Forms(T, spec.r, head_blocks(T, [T.indices(t.entries)
                                             for t in members]))
    return BraidOrbit(spec, range(len(members)), forms,
                      Moves([array("i", [number[d[t]] for t in members])
                             for d in table], None))


def head_blocks(T, tuples):
    """The index tuples `tuples`, in NielsenTuple order, as the head blocks
    nielsen.Forms reads: (prefix, xs, tails) per run of tuples that share
    the entries before the last two and the label of entry r-1."""
    def head(e):
        return e[:-2], T.label[e[-2]]
    for (prefix, _), run in groupby(tuples, head):
        run = list(run)
        yield prefix, [e[-2] for e in run], [e[-1] for e in run]


def unpinned_enumerate(spec):
    """Brute enumeration without first-entry pinning (small specs only);
    must agree with enumerate_tuples."""
    h = spec.group
    classes = h.classes()
    forms = set()
    for ordering in sorted(set(permutations(spec.labels))):
        cls = [classes[lab] for lab in ordering]
        last = cls[-1].members
        for combo in product(*[sorted(c.members) for c in cls[:-1]]):
            p = h.identity
            for g in combo:
                p = h.mul(p, g)
            tail = h.inv(p)
            if tail not in last:
                continue
            entries = combo + (tail,)
            if not h.generates(list(entries)):
                continue
            forms.add(canonical(spec, NielsenTuple(ordering, entries)))
    return sorted(forms)


def hm_detect(spec, t):
    """(g1, g1^{-1}, g2, g2^{-1}, ...) in consecutive pairs."""
    h = spec.group
    if len(t.entries) % 2:
        return False
    return all(t.entries[i + 1] == h.inv(t.entries[i])
               for i in range(0, len(t.entries), 2))


def di_detect(spec, t, di_class=None):
    """Double-identity shape (g1, g2, g1, g4); when di_class is given,
    positions 2 and 4 must carry that label."""
    if len(t.entries) != 4:
        return False
    if t.entries[0] != t.entries[2]:
        return False
    if di_class is not None:
        return t.labels[1] == di_class and t.labels[3] == di_class
    return t.labels[1] == t.labels[3]


def obstructed(spec, orbit):
    """Does the orbit carry a nonzero lift invariant?"""
    return orbit_lift_invariant(spec, orbit) != 0


def component_moduli_degree(spec, orbit):
    """lift.lift_moduli_degree of the orbit's lift value."""
    return lift_moduli_degree(spec.group, orbit_lift_invariant(spec, orbit))


# ---------------------------------------------------------------------
# the numbered class as a tuple list and a dict

def form_table(h, forms, find, maps):
    """For each index map in `maps`, an array over the numbers of `forms`
    (number -> canonical index tuple): the number find(c) of the canonical
    image c of each form under the map, find giving -1 for a tuple it
    lacks."""
    canon = h.memo(canonizer, h)
    return [array("i", [find(canon(m(e))) for e in forms]) for m in maps]


def pinned_forms(spec):
    """Every product-one tuple with its first entry pinned to its class
    representative, canonicalized, deduplicated and sorted in
    NielsenTuple order."""
    h = spec.group
    T = h.tables()
    classes = h.classes()
    canon = h.memo(canonizer, h)
    found = set()
    for ordering in set(permutations(spec.labels)):
        pin = T.index[classes[ordering[0]].rep]
        mids = [T.indices(classes[lab].members) for lab in ordering[1:-1]]
        for combo in product(*mids):
            p = pin
            for g in combo:
                p = T.mul[p][g]
            tail = T.inv[p]
            if T.label[tail] == ordering[-1]:
                found.add(canon((pin,) + combo + (tail,)))
    return sorted(found, key=lambda e: (tuple(map(T.label.__getitem__, e)),
                                        e))


def tuple_class(spec):
    """The numbered inner class of spec unpacked: the list of pinned_forms,
    the dict from each to its number, and every braid move by
    form_table."""
    h = spec.group
    forms = pinned_forms(spec)
    number = {e: k for k, e in enumerate(forms)}
    return forms, number, form_table(h, forms, lambda e: number.get(e, -1),
                                     index_moves(h.tables(), spec.r))


# ---------------------------------------------------------------------
# the sh-incidence matrix

def sh_incidence_sets(rc):
    """|O_i  meet  sh(O_j)| over the cusps O_i of the reduced component
    rc, each cusp a set of reps and its sh image the reps of its shifted
    forms."""
    shift = rc.orbit.moves[-1]
    sets = [set(c.reps) for c in rc.cusps]
    sh_sets = [{rc.rep_of[shift[t]] for t in s} for s in sets]
    return [[len(s & t) for t in sh_sets] for s in sets]


# ---------------------------------------------------------------------
# the orbit cache file

def spec_sha256(spec):
    """hashlib's SHA-256 of the spec's sorted, compact JSON, hex."""
    blob = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_data(spec, orbits):
    """The data of the orbit cache file of `orbits`: the spec's hash, and
    per orbit the [labels, entries] of its members, sorted."""
    return {"spec_hash": spec_sha256(spec),
            "orbits": [[[t.labels, t.entries] for t in sorted(o.members)]
                       for o in orbits]}


# ---------------------------------------------------------------------
# closed-form products of the extension groups, the references for
# groups.Extension.mul

def heis2_mul(L, a, b):
    """(sign, M(a, a', w)) with M-multiplication adding a1 a2' to w, and
    the Z/2 part acting by M(a, a', w) -> M(-a, -a', w)."""
    (s1, (a1, p1, w1)), (s2, (a2, p2, w2)) = a, b
    if s2 == 1:
        a1, p1 = -a1 % L, -p1 % L
    return ((s1 + s2) % 2, ((a1 + a2) % L, (p1 + p2) % L,
                            (w1 + w2 + a1 * p2) % L))


def k22z3_carry(ell, L):
    """The quaternion-type carry s of k22z3: x^L = y^L = w^s, 3s = L/2
    mod L for ell = 2 (k = 0: x^2 = y^2 = w, SL(2,3)); 0 for odd ell."""
    return (L // 2) * pow(3, -1, L) % L if ell == 2 else 0


def _kmul(L, s, k1, k2):
    """Standard forms x^m y^n w^u with y x = x y w, and the carry s."""
    m1, n1, u1 = k1
    m2, n2, u2 = k2
    u = u1 + u2 + n1 * m2
    if s:
        u += s * ((m1 + m2) // L + (n1 + n2) // L)
    return ((m1 + m2) % L, (n1 + n2) % L, u % L)


def _alpha_k(L, s, k1, power):
    """alpha^power on the normal part, alpha in closed form:
    alpha(x^m y^n w^u) = y^m (xy)^-n w^u, put in standard form."""
    m, n, u = k1
    for _ in range(power % 3):
        if n:
            m, n, u = (-n % L, (m - n) % L,
                       (u + n * (n + 1) // 2 - m * n - 2 * s
                        + (s if m >= n else 0)) % L)
        else:
            m, n = 0, m
    return (m, n, u)


def k22z3_alpha(ell, L, g, power=1):
    """alpha^power on the element g of k22z3; it fixes the Z/3 part."""
    c, k1 = g
    return (c, _alpha_k(L, k22z3_carry(ell, L), k1, power))


def k22z3_mul(ell, L, a, b):
    """K22 extended by the order-3 map alpha: x -> y -> (xy)^-1."""
    (c1, k1), (c2, k2) = a, b
    s = k22z3_carry(ell, L)
    return ((c1 + c2) % 3, _kmul(L, s, _alpha_k(L, s, k1, -c2 % 3), k2))


# ---------------------------------------------------------------------
# closed-form lift values

def serre_formula(a, a2p, a3p, L):
    """Closed-form lift value of the involution tuple with translations
    (0,0), (a,a2'), (a,a3'), (0,a3'-a2')."""
    return a * (a3p - a2p) % L


def di_formula(m2, n2, L):
    """Closed-form lift value of the r=3 double-identity shape with
    conjugating vector (m2, n2): the norm form of Z[zeta_3].  Anisotropic
    unless ell = 1 mod 3, where its isotropic lines are exactly the
    eigenlines of the order-3 action (non-generating triples)."""
    return (m2 * m2 + n2 * n2 - m2 * n2) % L


def serre_tuple(spec, a, a2p, a3p):
    """The involution 4-tuple g_{a_sh, a'} in affine2(ell,k,2)."""
    h = spec.group
    L = h.L
    vecs = [(0, 0), (a % L, a2p % L), (a % L, a3p % L),
            (0, (a3p - a2p) % L)]
    entries = tuple((1, v) for v in vecs)
    t = NielsenTuple(("2",) * 4, entries)
    p = h.identity
    for g in entries:
        p = h.mul(p, g)
    if p != h.identity:
        raise ConsistencyError("serre tuple lost product-one")
    return t


def di_triple(spec, m2, n2):
    """The r=3 tuple (alpha^{-1}, v2-conj, v3-conj) in C_- classes with
    v2 = (m2, n2); v3 = (n2, n2-m2) is forced by product-one."""
    h = spec.group
    L = h.L
    ai = (2, (0, 0))
    out = [ai]
    for v in ((m2 % L, n2 % L), (n2 % L, (n2 - m2) % L)):
        out.append(h.conj(ai, (0, v)))
    p = h.identity
    for g in out:
        p = h.mul(p, g)
    if p != h.identity:
        raise ConsistencyError("DI triple lost product-one")
    return NielsenTuple(("C-",) * 3, tuple(out))


def mt_parity(spec, t):
    """sum (o(g_i)^2 - 1)/8 mod 2; the ell=2 abelianized-tower test for
    odd-order tuples."""
    h = spec.group
    total = 0
    for g in t.entries:
        o = h.elem_order(g)
        if o % 2 == 0:
            raise ValueError("even order %d entry" % o)
        total += (o * o - 1) // 8
    return total % 2
