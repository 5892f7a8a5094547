"""r=4 reduced Nielsen classes: the Klein reduction group
Q'' = <sh^2, q1 q3^{-1}>, the j-line branch cycles gamma_0, gamma_1,
gamma_infty, cusp widths with the middle-product prediction, the reduced
genus with its Euler-characteristic oracle, sh-incidence matrices,
moduli checks, and the Wohlfahrt congruence test.  All of it runs on the
form numbers of a braid orbit, read from its move arrays, except the
Sylow step of the congruence test, which runs on the element tables of
the internal groups.PSL2(N), for |PSL2(Z/N)| up to PSL2_LIMIT.

The width prediction and the genus formula are hard gates: a mismatch
raises ConsistencyError rather than warning.
"""

import math
from array import array
from functools import cache, cached_property

from .groups import (PSL2, ConsistencyError, gl_orders, cen_in_Sn, closure,
                     orbit_arrays, orbit_ids, cycles)
from .nielsen import canonizer, index_moves

PSL2_LIMIT = 2000       # largest |PSL2(Z/N)| the Sylow test builds


class ReducedClass:
    """Q''-orbit data over one braid orbit (the reduced component), on the
    numbers of its forms.  `reps` is the sorted array of the least numbers
    of its Q'' orbits.  `sh2` and `q1q3i`, the generators sh^2 and
    q1 q3^{-1} of Q''; `rep_of`, the rep of each form's Q'' orbit; and
    `gamma_arrays`, gamma_0, gamma_1 and gamma_infty at the reps, are
    arrays over the numbers of the whole class, shared by its orbits (see
    _qq_moves).  `gammas` (the gamma arrays, filled and checked),
    `cusps` and `fixed_points` are derived once, on first use."""

    def __init__(self, spec, orbit, reps, arrays):
        self.spec = spec
        self.orbit = orbit
        self.reps = reps
        self.degree = len(reps)
        self.sh2, self.q1q3i, self.rep_of = arrays[:3]
        self.gamma_arrays = arrays[3:]

    @cached_property
    def gammas(self):
        return gamma_actions(self)

    @cached_property
    def cusps(self):
        return cusps(self)

    @cached_property
    def fixed_points(self):
        """(t0, t1): how many reps gamma_0 and gamma_1 fix."""
        return tuple(sum(1 for t in self.reps if g[t] == t)
                     for g in self.gammas[:2])


def _qq_moves(moves):
    """The class arrays of the reduction over the numbers of the move
    arrays `moves`, read through spec.memo once per numbering: sh^2 and
    q1 q3^{-1}, that is q3^{-1} after q1, composed from the moves and the
    inverse of q3, which the class keeps; then rep_of, gamma_0, gamma_1
    and gamma_infty, which reduce_orbit and gamma_actions fill orbit by
    orbit (-1 until then)."""
    q1, shift, q3inv = moves[0], moves[-1], moves.inverse(2)
    return (array("i", map(shift.__getitem__, shift)),
            array("i", map(q3inv.__getitem__, q1)),
            *(array("i", [-1]) * len(shift) for _ in range(4)))


def reduce_orbit(orbit):
    """Partition a braid orbit into Q''-orbits, from the arrays of sh^2
    and q1 q3^{-1} over its numbering: each Q'' orbit's least number, its
    rep, is written into `rep_of` for each of its numbers."""
    spec = orbit.spec
    if spec.r != 4:
        raise ValueError("reduced classes need r = 4")
    if spec.equivalence != "inner":
        raise ValueError("reduction acts on inner classes")
    arrays = spec.memo(_qq_moves, orbit.moves)
    rep_of, reps = arrays[2], array("i")
    for o in orbit_arrays(orbit.nums, arrays[:2],
                          "Q'' orbit escaped the braid orbit"):
        if len(o) not in (1, 2, 4):
            raise ConsistencyError("Q'' orbit of size %d" % len(o))
        reps.append(rep := o[0])
        for k in o:
            rep_of[k] = rep
    return ReducedClass(spec, orbit, reps, arrays)


def gamma_actions(rc):
    """gamma_0 = q1 q2, gamma_1 = q1 q2 q1, gamma_infty = q2 as
    permutations of the reduced representatives, read from the move
    arrays into the class arrays at the reps; verifies that each is a
    permutation of the reps (a -1 read off rep_of would index from the
    end) and the j-line relations
    gamma_0^3 = gamma_1^2 = gamma_0 gamma_1 gamma_infty = 1."""
    q1, q2 = rc.orbit.moves[:2]
    rep_of, reps = rc.rep_of, rc.reps
    g0, g1, gi = rc.gamma_arrays
    for t in reps:
        x = q2[q1[t]]
        g0[t], g1[t], gi[t] = rep_of[x], rep_of[q1[x]], rep_of[q2[t]]
    for g in rc.gamma_arrays:
        if array("i", sorted(map(g.__getitem__, reps))) != reps:
            raise ConsistencyError("gamma action not a permutation of "
                                   "the reduced reps")
    for t in reps:
        if g0[g0[g0[t]]] != t or g1[g1[t]] != t:
            raise ConsistencyError("gamma_0/gamma_1 orders wrong")
        if gi[g1[g0[t]]] != t:
            raise ConsistencyError("gamma_0 gamma_1 gamma_infty != 1")
    return g0, g1, gi


class CuspOrbit:
    def __init__(self, reps, width, u, v, f, raw_v, label):
        self.reps = reps          # reduced reps in the gamma_infty orbit
        self.width = width
        self.u = u
        self.v = v                # q2-orbit length on inner classes
        self.f = f                # Q'' shortening: width * f = v
        self.raw_v = raw_v        # q2-orbit length on raw tuples
        self.label = label        # (u, width, a): a its place in sort order

    def __repr__(self):
        return "Cusp(u=%d,width=%d,f=%d)" % (self.u, self.width, self.f)


def _middle_product_uv(h, g2, g3):
    """Prop.-style prediction of (u, v) for the middle pair (g2, g3) of
    element indices: u from the middle product g2 g3 modulo the center of
    <g2, g3>, v the unreduced q2-orbit length.  Both are invariant under
    simultaneous conjugation, so it is read through h.memo on the
    canonical form of the pair, once per conjugacy class of pairs."""
    if g2 == g3:
        return 1, 1
    T = h.tables()
    e = T.index[h.identity]
    m2, m3 = T.mul[g2], T.mul[g3]
    H = closure(e, [m2.__getitem__, m3.__getitem__])
    Z = {z for z in H if T.conj[g2][z] == z == T.conj[g3][z]}
    cyc = closure(e, [lambda x: m2[m3[x]]])         # <g2 g3>
    u = len(cyc) // len(cyc & Z)
    # q2^(2j) is conjugation by (g2 g3)^j, so the even powers fixing the
    # pair are the multiples of 2u, and q2^(2j+1) fixes it iff that
    # conjugation takes g2 to g3, which forces 2j+1 = u
    if u % 2:
        c = e
        for _ in range((u - 1) // 2):
            c = m2[m3[c]]                           # (g2 g3)^j
        if T.conj[c][g2] == g3:
            return u, u
    return u, 2 * u


def cusps(rc):
    """gamma_infty orbits with widths.  Two hard cross-checks per cusp:
    the middle-product prediction (u,v) of the q2-orbit on raw tuples,
    and the Q''-stabilizer shortening f with width * f = q2-orbit length
    on inner classes."""
    h = rc.spec.group
    forms = rc.orbit.forms
    q2 = rc.orbit.moves[1]
    raw_q2 = index_moves(h.tables(), 4)[1]
    rows = []
    for cyc in cycles(rc.gammas[2], rc.reps):
        width = len(cyc)
        t = min(cyc)
        # q2 orbit of the inner class t
        orbset = closure(t, [q2.__getitem__])
        vlen = len(orbset)
        # q2 orbit of the raw tuple: the object Prop.-predicted by (u,v)
        e = forms[t]
        raw_v = len(closure(e, [raw_q2]))
        u, v_pred = h.memo(_middle_product_uv, h,
                           *h.memo(canonizer, h)(e[1:3]))
        if v_pred != raw_v:
            raise ConsistencyError(
                "cusp prediction v=%d but raw q2 orbit has length %d "
                "(u=%d, seed %s)" % (v_pred, raw_v, u, (e,)))
        if raw_v % vlen:
            raise ConsistencyError("inner q2 orbit does not divide raw")
        # the four elements of Q'' applied to t
        qq_images = (t, rc.sh2[t], rc.q1q3i[t], rc.q1q3i[rc.sh2[t]])
        stab_g = qq_images.count(t)
        stab_o = sum(1 for x in qq_images if x in orbset)
        if stab_o % stab_g:
            raise ConsistencyError("Q'' stabilizers not nested")
        f = stab_o // stab_g
        if f not in (1, 2, 4) or width * f != vlen:
            raise ConsistencyError(
                "shortening f=%d inconsistent: width %d * f != v %d"
                % (f, width, vlen))
        rows.append((u, width, t, sorted(cyc), vlen, f, raw_v))
    rows.sort()     # by (u, width, least rep); the least reps are distinct
    return [CuspOrbit(reps, width, u, v, f, raw_v, (u, width, a))
            for a, (u, width, _, reps, v, f, raw_v) in enumerate(rows)]


def reduced_genus(rc):
    """Genus of the reduced component from the displayed formula,
    cross-checked against the Euler characteristic of the degree-d cover
    of the j-line with monodromy (gamma_0, gamma_1, gamma_infty)."""
    g0, g1, _ = rc.gammas
    cusp_list = rc.cusps
    d = rc.degree
    t0, t1 = rc.fixed_points
    rhs = 2 * (d - t0) / 3 + (d - t1) / 2 + sum(c.width - 1 for c in cusp_list)
    g2 = rhs / 2 + 1 - d
    if g2 != int(g2) or g2 < 0:
        raise ConsistencyError("formula genus %r not a genus" % g2)
    c0 = len(cycles(g0, rc.reps))
    c1 = len(cycles(g1, rc.reps))
    ci = len(cusp_list)
    euler = d - c0 - c1 - ci
    if euler % 2:
        raise ConsistencyError("odd Euler term")
    g_euler = euler // 2 + 1
    if int(g2) != g_euler:
        raise ConsistencyError("genus formula %d != Euler oracle %d"
                               % (int(g2), g_euler))
    return int(g2)


def sh_incidence(rc):
    """Matrix |O_i  meet  sh(O_j)| over the cusps of one component;
    symmetric for r=4, rows summing to the widths.  sh normalizes Q'', so
    rep_of after sh permutes the reps, and the matrix is counted in one
    pass: each rep t adds 1 at (cusp of rep_of[sh[t]], cusp of t)."""
    cusp_list = rc.cusps
    shift, rep_of = rc.orbit.moves[-1], rc.rep_of
    cusp_of = {t: i for i, c in enumerate(cusp_list) for t in c.reps}
    images = [rep_of[shift[t]] for t in rc.reps]
    if sorted(images) != rc.reps.tolist():
        raise ConsistencyError("rep_of after sh does not permute the reps")
    M = [[0] * len(cusp_list) for _ in cusp_list]
    for t, s in zip(rc.reps, images):
        M[cusp_of[s]][cusp_of[t]] += 1
    if M != [list(col) for col in zip(*M)]:
        raise ConsistencyError("sh-incidence matrix not symmetric")
    if [sum(row) for row in M] != [c.width for c in cusp_list]:
        raise ConsistencyError("sh-incidence row sums != widths")
    return M, [c.label for c in cusp_list]


def _fine(spec):
    """fine_inner and fine_abs depend on the group and T only, so
    moduli_checks reads them through spec.memo, once per spec."""
    h = spec.group
    return {"fine_inner": len(h.center()) == 1,
            "fine_abs": spec.T is not None and cen_in_Sn(h, spec.T) == 1}


def moduli_checks(spec, rc):
    """Fine-moduli style report for one reduced component."""
    free_qq = rc.orbit.size == 4 * rc.degree
    t0, t1 = rc.fixed_points
    return {**spec.memo(_fine, spec), "qq_free": free_qq,
            "bfine": free_qq and t0 == 0 and t1 == 0,
            "elliptic_fixed_points": {"gamma0": t0, "gamma1": t1}}


def wohlfahrt(rc):
    """Congruence test via Wohlfahrt's theorem: a modular curve whose
    cusp widths have lcm N comes from a subgroup containing Gamma(N), so
    its degree d divides |PSL_2(Z/N)| and, when the complement order
    |PSL_2(Z/N)|/d forces a Sylow subgroup, the translation T must act
    on the d cosets with cycle type equal to the width multiset."""
    widths = sorted(c.width for c in rc.cusps)
    N = math.lcm(*widths)
    d = rc.degree
    if N < 2:
        return {"N": N, "degree": d, "psl2": 1, "widths": widths,
                "verdict": "inconclusive"}
    psl = gl_orders(N)[2]
    out = {"N": N, "degree": d, "psl2": psl, "widths": widths}
    if psl % d:
        out["verdict"] = "not a modular curve"
        out["reason"] = "degree %d does not divide |PSL2(Z/%d)| = %d" \
            % (d, N, psl)
        return out
    sub = psl // d
    ct = _psl2_sylow_cusp_type(N, sub)
    if ct is not None:
        out["sylow_cycle_type"] = ct
        if ct != widths:
            out["verdict"] = "not a modular curve"
            out["reason"] = ("any index-%d subgroup of PSL2(Z/%d) is a "
                            "Sylow subgroup; T acts on its cosets with "
                            "cycle type %s, not the cusp widths %s"
                            % (d, N, ct, widths))
            return out
    out["verdict"] = "inconclusive"
    return out


@cache
def _psl2_sylow_cusp_type(N, sub):
    """If every order-`sub` subgroup of PSL2(Z/N) is a Sylow p-subgroup
    (all conjugate, hence one coset action), return the cycle type of
    T = [[1,1],[0,1]] on the cosets; else None.  Computed once per
    (N, sub), on the element indices of groups.PSL2(N)."""
    psl = gl_orders(N)[2]
    if psl > PSL2_LIMIT or sub < 2:
        return None
    # sub must be the full p-part of psl for a single prime p
    p = next(q for q in range(2, sub + 1) if sub % q == 0)
    m = sub
    while m % p == 0:
        m //= p
    if m != 1 or psl % sub or (psl // sub) % p == 0:
        return None
    h = PSL2(N)
    T = h.tables()
    # the p-elements, whose orders are the divisors of sub, the p-part
    # of |PSL2|
    cands = [x for x in range(h.order)
             if sub % T.classes[T.label[x]].elem_order == 0]
    # grow a Sylow p-subgroup: a proper p-subgroup always has a p-element
    # in its normalizer outside itself
    H, gens = {T.e}, []
    while len(H) < sub:
        x = next((x for x in cands if x not in H
                  and all(T.index[h.conj(T.els[g], T.els[x])] in H
                          for g in gens)), None)
        if x is None:
            raise ConsistencyError("no p-element normalizes a proper "
                                   "p-subgroup of PSL2(Z/%d)" % N)
        gens.append(x)
        H = closure(T.e, [T.mul[g].__getitem__ for g in gens])
    if sub % len(H):
        raise ConsistencyError("PSL2(Z/%d) p-subgroup of order %d is not "
                               "in a Sylow subgroup of order %d"
                               % (N, len(H), sub))
    # the cosets xH, the orbits of right multiplication by H's generators
    cosets = orbit_arrays(range(h.order), [T.right(g) for g in gens],
                          "coset escaped PSL2")
    coset_of = orbit_ids(cosets, h.order)
    t = T.mul[T.index[(1, 1, 0, 1)]]
    perm = [coset_of[t[c[0]]] for c in cosets]
    return sorted(map(len, cycles(perm, range(len(cosets)))))
