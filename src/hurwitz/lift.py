"""Lift invariants via explicit central extensions, read off the index
forms, the normalizer action on lift values, Modular-Tower obstruction
and level lifting, and BCL cyclotomic data."""

import math

from .groups import automorphisms, central_lift, ConsistencyError, cycles
from . import nielsen    # one name per memoized class derivation
from .nielsen import NielsenSpec, canonizer, transport, from_indices
from .braid import all_orbits, orbit_index


def _cover_for(spec):
    """The group's cover, or "an_spin" for the A_n closed form."""
    h = spec.group
    if h.family == "alternating":
        return "an_spin"
    cov = h.cover()
    if cov is None:
        raise ValueError("no default cover for family %r" % h.family)
    return cov


def lift_invariant(spec, t):
    """Product of the unique same-order lifts, read off the central
    coordinate (additively, as the w-exponent in Z/ell^{k+1}); for
    alternating groups the spin value in Z/2 by the closed formula."""
    cov = _cover_for(spec)
    if cov == "an_spin":
        return an_spin(spec, t)
    p = cov.identity
    for g in t.entries:
        p = cov.mul(p, cov.base.memo(central_lift, cov, g))
    return cov.central_part(p) * cov.unit % cov.L


def an_spin(spec, t):
    """sum_i omega(g_i) mod 2, omega summing (u^2-1)/8 over cycle
    lengths u (odd-order entries only)."""
    return sum(_omega(g) for g in t.entries) % 2


def _omega(p):
    total = 0
    for cyc in cycles(p, range(len(p))):
        u = len(cyc)
        if u % 2 == 0:
            raise ValueError("even cycle length %d: spin needs odd orders" % u)
        total += (u * u - 1) // 8
    return total % 2


def _lift_table(h, cov):
    """The lift on the element indices x of h, read through h.memo: the
    list of lambda(x), the same-order lift in the cover (for A_n, omega(x)),
    or None where x has none; and the dict of kappa(x), the central part of
    section(x^-1) lambda(x), empty for A_n.  The offset identity
    lambda(x) = section(x) central(offset(lambda(x))) is checked at each
    element."""
    T = h.tables()
    lam, kappa = [], {}
    for x, g in enumerate(T.els):
        try:
            lam.append(_omega(g) if cov == "an_spin"
                       else central_lift(cov, g))
        except ValueError:
            lam.append(None)
            continue
        if cov != "an_spin":
            ghat, mul = lam[x], cov.mul
            if mul(cov.section(g), cov.central(cov.offset(ghat))) != ghat:
                raise ConsistencyError("cover offset misreads the lift of "
                                       "%r" % (g,))
            kappa[x] = cov.central_part(mul(cov.section(T.els[T.inv[x]]),
                                            ghat))
    return lam, kappa


def orbit_lift_invariant(spec, orbit):
    """The lift value of an inner orbit, read off the columns of its forms
    by number; its constancy over all members is a hard gate.  For A_n it
    is the sum of omega over the entries.  For a cover, the product
    lambda(g_1)...lambda(g_{r-1}) lies over g_r^-1, so it is
    section(g_r^-1) central(u) for its offset u, and the product of all r
    lifts is central(u + kappa(g_r)).  The product of the first two lifts
    is memoized, since the first entry is pinned, so a 4-tuple costs one
    cover multiplication.  An absolute orbit carries one value per inner
    orbit above it, so it has none."""
    if orbit.spec.equivalence != "inner":
        raise ValueError("the lift invariant is defined on inner orbits")
    h = spec.group
    cov = _cover_for(spec)
    lam, kappa = h.memo(_lift_table, h, cov)
    seed = orbit.forms[orbit.nums[0]]
    # an element's order, and so its lift, is a class function, and every
    # member has the seed's classes
    if None in map(lam.__getitem__, seed):
        lift_invariant(spec, from_indices(h.tables(), seed))   # raises
        raise ConsistencyError("lift table lacks an entry of %r" % (seed,))
    if cov == "an_spin":
        vals = {sum(map(lam.__getitem__, e)) % 2
                for e in orbit.forms.rows(orbit.nums)}
    else:
        mul, offset, pairs = cov.mul, cov.offset, {}
        first, second, *middle, final = orbit.forms.cols

        def value(k):
            head = first[k], second[k]
            p = pairs.get(head)
            if p is None:
                p = pairs[head] = mul(lam[head[0]], lam[head[1]])
            for c in middle:
                p = mul(p, lam[c[k]])
            return (offset(p) + kappa[final[k]]) * cov.unit % cov.L
        vals = set(map(value, orbit.nums))
    if len(vals) != 1:
        raise ConsistencyError("lift invariant not constant on orbit: %s"
                               % sorted(vals))
    return vals.pop()


def normalizer_action_on_lift(spec, lattice):
    """Per absolute orbit, the set S of lift values of the inner orbits
    above it; Schur-separated when the sets are pairwise disjoint."""
    inner_vals = [orbit_lift_invariant(spec.as_inner(), o)
                  for o in lattice.inner_orbits]
    sets = {}
    for j, v in enumerate(inner_vals):
        sets.setdefault(lattice.covering[j], set()).add(v)
    svals = {i: sorted(s) for i, s in sets.items()}
    all_vals = [v for s in svals.values() for v in s]
    separated = len(all_vals) == len(set(all_vals))
    return {"S": svals, "schur_separated": separated,
            "inner_values": inner_vals}


def _reduction(child, parent):
    """child.reduce as an array: child element index -> parent index."""
    T = parent.tables()
    return [T.index[child.reduce(g, parent)]
            for g in child.tables().els]


def _next_level(spec):
    """The level-(k+1) spec, its braid orbits, and for each of them the
    set of base form numbers its members reduce to.  The reduction
    commutes with the braid moves, so it is canonicalized at one form
    per child orbit and transported over the rest.  Hard gate: each
    child orbit reduces into exactly one base orbit."""
    h = spec.group
    child = h.next_level()
    child_spec = NielsenSpec(child, spec.labels, "inner", spec.T, spec.budget)
    base_of = spec.memo(orbit_index, spec)
    kids = all_orbits(child_spec)
    nc = spec.memo(nielsen.nielsen_class, spec.as_inner())
    red = child.memo(_reduction, child, h)
    canon = h.memo(canonizer, h)
    below = []
    for o in kids:
        def direct(k):
            return nc.forms.find(canon(tuple(map(red.__getitem__,
                                                 o.forms[k]))))
        base = frozenset(transport(
            o.nums, direct, (o.moves[-2], o.moves[-1]),
            (nc.moves[-2], nc.moves[-1]),
            "child orbit does not reduce into one base orbit").values())
        ids = {base_of[k] for k in base}
        if len(ids) != 1 or -1 in ids:
            raise ConsistencyError("child orbit does not reduce into one "
                                   "base orbit")
        below.append(base)
    return child_spec, kids, below


def tower_lift(spec, orbit):
    """Braid orbits at level k+1 whose entrywise reductions land in the
    given inner orbit of all_orbits(spec).  Hard gate: each child orbit's
    lift invariant reduces (mod the parent modulus) to the base orbit's
    value.  Note the family towers can be nonempty over orbits with
    nonzero lift invariant: the Schur-multiplier obstruction concerns
    representation covers that these abelian-kernel levels never factor
    through."""
    h = spec.group
    nc = spec.memo(nielsen.nielsen_class, spec.as_inner())
    if orbit.forms is not nc.forms:
        raise ValueError("tower_lift reads orbits numbered by the class")
    child_spec, kids, below = spec.memo(_next_level, spec)
    base_of = spec.memo(orbit_index, spec)
    i = base_of[orbit.nums[0]]
    out = [o for o, base in zip(kids, below) if base_of[min(base)] == i]
    cov = h.cover()
    if cov is not None:
        base_val = orbit_lift_invariant(spec, orbit)
        for o in out:
            v = orbit_lift_invariant(child_spec, o)
            if v % cov.L != base_val:
                raise ConsistencyError(
                    "child lift invariant %d does not reduce to %d mod %d"
                    % (v, base_val, cov.L))
    return out


# ---------------------------------------------------------------------
# BCL cyclotomic data

class BCLData:
    def __init__(self, N_C, M_inn, M_abs, rational_union):
        self.N_C = N_C
        self.M_inn = M_inn
        self.M_abs = M_abs
        self.rational_union = rational_union
        phi = len(_units(N_C))
        self.inner_field_degree = phi // len(M_inn)
        self.abs_field_degree = phi // len(M_abs)

    def __repr__(self):
        return ("BCLData(N=%d, |M_inn|=%d, |M_abs|=%d, rational=%s)"
                % (self.N_C, len(self.M_inn), len(self.M_abs),
                   self.rational_union))


def _units(n):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def bcl_data(spec):
    """Stability of the class multiset C under C -> C^u, inner and modulo
    the normalizer action: M_inn = {u : C^u = C} and, by the branch-cycle
    argument of Fried-Volklein [FrV91], M_abs = {u : C^u = C^beta for
    some beta in the normalizer}, read off the orbit of C in the
    automorphism record, so the budget of that record bounds it."""
    h = spec.group
    N = math.lcm(*(h.classes()[lab].elem_order for lab in spec.labels))

    def powered(u):
        out = []
        for lab in spec.labels:
            rep = h.classes()[lab].rep
            out.append(h.class_of(h.power(rep, u)).label)
        return tuple(sorted(out))

    base = tuple(sorted(spec.labels))
    M_inn = [u for u in _units(N) if powered(u) == base]
    orbit = h.memo(automorphisms, h, spec.labels, spec.budget)[2]
    M_abs = [u for u in _units(N) if powered(u) in orbit]

    return BCLData(N, M_inn, M_abs, len(M_inn) == len(_units(N)))


def lift_moduli_degree(h, s):
    """The orbit length of the lift value s of a component of h under the
    unit multipliers of the cyclic Schur multiplier: Z/L for a group with
    a cover (Z/ell^{k+1} for the affine2 families), and 1 without one (Z/2
    for alternating spin, whose only unit is 1)."""
    cov = h.cover()
    if cov is None:
        return 1
    return len({u * s % cov.L for u in _units(cov.L)})
