"""Closed-form lift values and the tuples they describe: cross-checks for
the extension arithmetic of hurwitz.lift; and the numbered Nielsen class
as a list of index tuples and a dict, with its moves from one
canonicalization per form and move: the reference for the packed class
of hurwitz.nielsen.  Used by the tests only."""

from array import array
from itertools import permutations, product

from hurwitz.groups import ConsistencyError
from hurwitz.nielsen import NielsenTuple, canonizer, index_moves


def form_table(h, forms, number, maps):
    """For each index map in `maps`, an array over the numbers of `forms`
    (number -> canonical index tuple): the number of the canonical image
    of each form under the map, or -1 when `number` lacks it."""
    canon = h.memo(canonizer, h)
    return [array("i", [number.get(canon(m(e)), -1) for e in forms])
            for m in maps]


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
    return forms, number, form_table(h, forms, number,
                                     index_moves(h.tables(), spec.r))


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
