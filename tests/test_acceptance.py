"""End-to-end acceptance checks for the seven headline results, each with
its stated runtime bound.  Three literal sub-claims that the computations
refute are carried as strict xfails pointing at the working-notes ledger;
the verified replacements are asserted alongside them.
"""

import math
import time

import pytest

from hurwitz.groups import make_group, gl_orders
from hurwitz.nielsen import (NielsenSpec, enumerate_tuples, cover_genus,
                             from_indices)
from hurwitz.braid import all_orbits, component_lattice
from hurwitz.reduced import reduce_orbit, cusps, reduced_genus, wohlfahrt
from hurwitz.lift import (lift_invariant, orbit_lift_invariant,
                          normalizer_action_on_lift, tower_lift, an_spin)
from oracles import (serre_formula, serre_tuple, di_formula, di_triple,
                     hm_detect, di_detect, obstructed)


def spec_of(gspec, labels, eq="inner", T=None):
    return NielsenSpec(make_group(gspec), labels, eq, T)


def a4_spec():
    return spec_of({"family": "affine2", "ell": 2, "k": 0, "order": 3},
                   ("C+", "C+", "C-", "C-"))


def serre_spec(ell):
    return spec_of({"family": "affine2", "ell": ell, "k": 0, "order": 2},
                   ("2",) * 4)


def di_spec(ell):
    return spec_of({"family": "affine2", "ell": ell, "k": 0, "order": 3},
                   ("C+", "C+", "C-", "C-"))


class deadline:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                "runtime %.1fs exceeds the %ds bound" % (elapsed,
                                                         self.seconds)


# ---------------------------------------------------------------------
# 1. (Z/2)^2 x| Z/3, C_{+-3^2}, inner reduced: two components, degrees 9
#    and 6, both genus 0, lift-separated; the zero-lift component admits
#    a nonempty level-1 lift.  < 10 s.

def test_criterion_1_a4_components():
    with deadline(10):
        spec = a4_spec()
        orbits = all_orbits(spec)
        assert len(orbits) == 2
        data = {}
        for o in orbits:
            rc = reduce_orbit(o)
            data[rc.degree] = (reduced_genus(rc),
                               orbit_lift_invariant(spec, o), o)
        assert sorted(data) == [6, 9]
        assert data[6][0] == 0 and data[9][0] == 0
        assert data[6][1] == 1 and data[9][1] == 0     # +-1 in Z/2
        assert obstructed(spec, data[6][2])
        assert not obstructed(spec, data[9][2])
        # the unobstructed component lifts to level 1
        assert tower_lift(spec, data[9][2])


# ---------------------------------------------------------------------
# 2. Serre case (Z/ell)^2 x| Z/2, C_{2^4}, ell in {3,5,7}: phi(ell) inner
#    orbits, lift values bijective with the units, two absolute orbits
#    splitting squares/nonsquares, closed form exact.  < 60 s at ell=7.

def test_criterion_2_serre_family():
    with deadline(60):
        for ell in (3, 5, 7):
            spec = serre_spec(ell)
            L = spec.group.L
            lat = component_lattice(spec)
            phi = ell - 1
            assert len(lat.inner_orbits) == phi
            vals = [orbit_lift_invariant(spec, o) for o in lat.inner_orbits]
            assert sorted(vals) == list(range(1, ell))
            assert len(lat.abs_orbits) == 2
            act = normalizer_action_on_lift(spec, lat)
            squares = {u * u % ell for u in range(1, ell)}
            ssets = {frozenset(v) for v in act["S"].values()}
            assert ssets == {frozenset(squares),
                             frozenset(set(range(1, ell)) - squares)}
            assert act["schur_separated"]
            # closed form vs extension arithmetic on every parametrized
            # tuple ...
            for a in range(L):
                for a2p in range(L):
                    for a3p in range(L):
                        t = serre_tuple(spec, a, a2p, a3p)
                        assert lift_invariant(spec, t) == \
                            serre_formula(a, a2p, a3p, L)
            # ... and on every enumerated form matching the shape
            matched = 0
            for o in lat.inner_orbits:
                for t in o.members:
                    vs = [g[1] for g in t.entries]
                    if vs[0] == (0, 0) and vs[1][0] == vs[2][0]:
                        matched += 1
                        assert lift_invariant(spec, t) == serre_formula(
                            vs[1][0], vs[1][1], vs[2][1], L)
            assert matched > 0


# ---------------------------------------------------------------------
# 3. (Z/ell)^2 x| Z/3 HM-DI subspace.  The verified facts: DI lift values
#    over generating parameters are exactly the units of Z/ell (the
#    closed form is the Z[zeta_3] norm form); the ell=11 pair (3,-1) has
#    value 2; no cusp carries both an HM and a DI representative at
#    ell in {5,7}.  < 5 min at ell=11.

def _di_value_set(ell):
    spec = di_spec(ell)
    h = spec.group
    out = set()
    for m2 in range(ell):
        for n2 in range(ell):
            t = di_triple(spec, m2, n2)
            if h.generates(list(t.entries)):
                v = lift_invariant(spec, t)
                assert v == di_formula(m2, n2, ell)
                out.add(v)
    return out


def test_criterion_3_hm_di():
    with deadline(300):
        for ell in (5, 7, 11):
            assert _di_value_set(ell) == set(range(1, ell))
        # the quoted ell=11 parameter pair is a unit value
        spec11 = di_spec(11)
        t = di_triple(spec11, 3, -1 % 11)
        assert lift_invariant(spec11, t) == 2
        assert not obstructed_value_zero(spec11, t)
        # the subspace is present at ell=11 within budget
        forms11 = enumerate_tuples(di_spec(11))
        n_di = sum(1 for f in forms11 if di_detect(di_spec(11), f))
        n_hm = sum(1 for f in forms11 if hm_detect(di_spec(11), f))
        assert (len(forms11), n_di, n_hm) == (29280, 80, 160)
        # exhaustive cusp-level HM/DI exclusion at ell = 5, 7
        for ell in (5, 7):
            spec = di_spec(ell)
            T = spec.group.tables()
            for o in all_orbits(spec):
                rc = reduce_orbit(o)
                for c in cusps(rc):
                    reps = set(c.reps)
                    members = {from_indices(T, o.forms[k]) for k in o.nums
                               if rc.rep_of[k] in reps}
                    has_hm = any(hm_detect(spec, t) for t in members)
                    has_di = any(di_detect(spec, t) for t in members)
                    assert not (has_hm and has_di)


def obstructed_value_zero(spec, t):
    return lift_invariant(spec, t) == 0


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: the criterion quotes the paper's "
    "discriminant-5 closed form; the extension-arithmetic invariant is "
    "the discriminant -3 norm form m^2+n^2-mn, whose generating values "
    "are all units (and (3,-1) at ell=11 maps to 2, not 0).  See the "
    "working-notes ledger, 'Criterion 3' entry."))
def test_criterion_3_literal_value_sets():
    assert _di_value_set(5) == {1, 4}
    assert di_formula(3, -1 % 11, 11) == 0


# ---------------------------------------------------------------------
# 4. Dihedral C_{2^4}: one absolute braid orbit for ell in {3,5,7},
#    k in {0,1}; cover genera g_abs = 0, g_inn = 1.  < 30 s.

def test_criterion_4_dihedral():
    with deadline(30):
        for ell in (3, 5, 7):
            for k in (0, 1):
                m = ell ** (k + 1)
                spec = spec_of({"family": "dihedral", "m": m}, ("2",) * 4,
                               "absolute")
                assert len(all_orbits(spec)) == 1
                assert cover_genus(
                    spec_of({"family": "dihedral", "m": m}, ("2",) * 4,
                            T="involution-cosets")) == 0
                assert cover_genus(
                    spec_of({"family": "dihedral", "m": m}, ("2",) * 4,
                            T="regular")) == 1


# ---------------------------------------------------------------------
# 5. A5: C_{3^4} one inner orbit, lift 0, natural-cover genus 0;
#    C_{5+5-3} six inner classes, one per ordering, spin 1, genus 1.
#    < 10 s.

def test_criterion_5_a5():
    with deadline(10):
        c34 = spec_of({"family": "alternating", "n": 5}, ("3",) * 4,
                      T="natural")
        orbs = all_orbits(c34)
        assert len(orbs) == 1
        assert orbit_lift_invariant(c34, orbs[0]) == 0
        assert cover_genus(c34) == 0

        c553 = spec_of({"family": "alternating", "n": 5},
                       ("5+", "5-", "3"), T="natural")
        forms = enumerate_tuples(c553)
        assert len(forms) == 6
        orderings = {t.labels for t in forms}
        assert len(orderings) == 6      # one class per ordering
        for t in forms:
            assert an_spin(c553, t) == 1
        assert cover_genus(c553) == 1


# ---------------------------------------------------------------------
# 6. Property gates.  The width prediction, the Euler-characteristic
#    genus oracle, lift constancy, and Nielsen preservation are hard
#    gates inside cusps/reduced_genus/orbit_lift_invariant/all_orbits:
#    the criteria 1-5 runs above execute all of them, and a violation
#    raises ConsistencyError (exit 4 in the CLI) rather than warning.
#    The remaining clause, "obstructed <=> empty tower lift", is refuted
#    by computation; the true gate (child lift values reduce to the base
#    value mod ell^{k+1}) is enforced in tower_lift and asserted here.

def test_criterion_6_gates_and_tower_reduction():
    spec = a4_spec()
    orbits = all_orbits(spec)
    for o in orbits:
        base = orbit_lift_invariant(spec, o)
        children = tower_lift(spec, o)     # internal reduction gate on
        assert children                    # ... and both levels nonempty
        cspec = NielsenSpec(make_group(
            {"family": "affine2", "ell": 2, "k": 1, "order": 3}),
            spec.labels, "inner")
        for c in children:
            assert orbit_lift_invariant(cspec, c) % 2 == base


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: the abelian-kernel family levels never "
    "factor through the representation cover, so a nonzero lift "
    "invariant does not empty the family tower -- the obstructed A4 "
    "orbit has two level-1 orbits above it (verified exhaustively, "
    "continuing to level 2).  See the working-notes ledger, "
    "'Criterion 6 / tower' entry."))
def test_criterion_6_literal_obstructed_iff_empty():
    spec = a4_spec()
    for o in all_orbits(spec):
        assert obstructed(spec, o) == (tower_lift(spec, o) == [])


# ---------------------------------------------------------------------
# 7. Wohlfahrt.  |PSL2(Z/12)| = 576; the degree-9 component is not a
#    modular curve (via the Sylow coset test: cycle type {3,6} vs widths
#    {2,3,4}); dihedral spaces report "inconclusive".

def test_criterion_7_wohlfahrt():
    with deadline(30):
        assert gl_orders(12)[2] == 576
        spec = a4_spec()
        by_deg = {}
        for o in all_orbits(spec):
            rc = reduce_orbit(o)
            by_deg[rc.degree] = wohlfahrt(rc)
        w9 = by_deg[9]
        assert w9["N"] == 12 and w9["psl2"] == 576
        assert w9["verdict"] == "not a modular curve"
        assert w9["sylow_cycle_type"] == [3, 6]
        assert w9["widths"] == [2, 3, 4]

        for m in (5, 9):
            dspec = spec_of({"family": "dihedral", "m": m}, ("2",) * 4)
            for o in all_orbits(dspec):
                assert wohlfahrt(reduce_orbit(o))["verdict"] == \
                    "inconclusive"


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: 576 = 9 * 64, so the quoted divisibility "
    "argument cannot run; the 'not a modular curve' verdict is "
    "reproduced by the stronger Sylow coset-action test instead.  See "
    "the working-notes ledger, 'Criterion 7' entry."))
def test_criterion_7_literal_divisibility():
    assert 576 % 9 != 0
