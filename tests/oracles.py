"""Closed-form lift values and the tuples they describe: cross-checks for
the extension arithmetic of hurwitz.lift, used by the tests only."""

from hurwitz.groups import ConsistencyError
from hurwitz.nielsen import NielsenTuple


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
