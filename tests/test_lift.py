import gc
import math
import weakref

import pytest

from hurwitz import lift as lift_module
from hurwitz.groups import make_group, ConsistencyError
from hurwitz.nielsen import (NielsenSpec, NielsenTuple, inner_canonical,
                             pure_cycle_reduce, enumerate_tuples,
                             cover_genus, from_indices)
from hurwitz.braid import BraidOrbit, all_orbits, component_lattice
from hurwitz.lift import (lift_invariant, an_spin, orbit_lift_invariant,
                          normalizer_action_on_lift, tower_lift, bcl_data,
                          lift_moduli_degree, _cover_for, _lift_table)
from oracles import (serre_formula, di_formula, serre_tuple, di_triple,
                     mt_parity, hm_detect, di_detect, braid_moves, orbit,
                     q_untwist, obstructed, component_moduli_degree,
                     partition, absolute_multipliers)

A4 = {"family": "affine2", "ell": 2, "k": 0, "order": 3}
A5 = {"family": "alternating", "n": 5}


def spec_of(gspec, labels, eq="inner", T=None):
    return NielsenSpec(make_group(gspec), labels, eq, T)


def serre_spec(ell, k=0):
    return spec_of({"family": "affine2", "ell": ell, "k": k, "order": 2},
                   ("2",) * 4)


def di_spec(ell, k=0):
    return spec_of({"family": "affine2", "ell": ell, "k": k, "order": 3},
                   ("C+", "C+", "C-", "C-"))


@pytest.fixture(scope="module")
def a4_spec():
    return di_spec(2)


@pytest.fixture(scope="module")
def a4_orbits(a4_spec):
    return all_orbits(a4_spec)


# ---------------------------------------------------------------------
# closed forms vs extension arithmetic

@pytest.mark.parametrize("ell", [3, 5, 7])
def test_serre_formula_exhaustive(ell):
    spec = serre_spec(ell)
    L = spec.group.L
    for a in range(L):
        for a2p in range(L):
            for a3p in range(L):
                t = serre_tuple(spec, a, a2p, a3p)
                assert lift_invariant(spec, t) == serre_formula(a, a2p, a3p, L)


def test_serre_formula_a0_trivial():
    spec = serre_spec(5)
    for a2p in range(5):
        assert lift_invariant(spec, serre_tuple(spec, 0, a2p, 3)) == 0
    # the paper's worked instance a=1, a2'=0, a3'=1 -> 1
    assert lift_invariant(spec, serre_tuple(spec, 1, 0, 1)) == 1


@pytest.mark.parametrize("ell", [2, 5, 7, 11])
def test_di_formula_exhaustive(ell):
    spec = di_spec(ell)
    L = spec.group.L
    for m2 in range(L):
        for n2 in range(L):
            t = di_triple(spec, m2, n2)
            assert lift_invariant(spec, t) == di_formula(m2, n2, L)


def test_di_zero_iff_eigenline():
    # zeros of the norm form are exactly the non-generating parameter
    # pairs, and nonzero vectors with value 0 exist only for ell = 1 mod 3
    for ell in (2, 5, 7, 11, 13):
        spec = di_spec(ell)
        h = spec.group
        L = h.L
        zero_nonzero_vec = False
        for m2 in range(L):
            for n2 in range(L):
                t = di_triple(spec, m2, n2)
                gen = h.generates(list(t.entries))
                val = di_formula(m2, n2, L)
                if (m2, n2) == (0, 0):
                    assert not gen and val == 0
                    continue
                assert gen == (val != 0)
                if val == 0:
                    zero_nonzero_vec = True
        assert zero_nonzero_vec == (ell % 3 == 1)


def test_di_value_sets():
    # generating DI triples realize exactly the units (norm forms are
    # universal away from their isotropic lines)
    for ell in (5, 7, 11):
        spec = di_spec(ell)
        h = spec.group
        vals = {di_formula(m2, n2, ell)
                for m2 in range(ell) for n2 in range(ell)
                if h.generates(list(di_triple(spec, m2, n2).entries))}
        assert vals == set(range(1, ell))
    # the ell=11 parameter pair (3,-1) is a unit value, not 0
    assert di_formula(3, -1 % 11, 11) == 2


def test_di_r4_contraction_matches_r3():
    # the r=3 reduction of the lemma proof, with the braid moves executed:
    # q2^{-1} turns (g1, g2, g1, g4) into (g1, g1, g1^{-1} g2 g1, g4), and
    # since the lift of g1 has the same order, hat(g1)^2 is the canonical
    # lift of g1^2 -- so the 4-tuple invariant equals that of the r=3
    # tuple (g1^2, g1^{-1} g2 g1, g4)
    spec = di_spec(5)
    h = spec.group
    checked = 0
    for t in enumerate_tuples(spec):
        if not di_detect(spec, t):
            continue
        quad = q_untwist(spec, 2, t)
        g1, g1b, x, g4 = quad.entries
        assert g1 == g1b
        tri_entries = (h.mul(g1, g1), x, g4)
        tri = NielsenTuple(tuple(h.class_of(g).label for g in tri_entries),
                           tri_entries)
        v = lift_invariant(spec, t)
        assert lift_invariant(spec, quad) == v
        assert lift_invariant(spec, tri) == v
        checked += 1
    assert checked > 0


def test_hm_lift_zero():
    for spec in (di_spec(5), serre_spec(5)):
        h = spec.group
        for g1 in h.elements():
            for g2 in h.elements()[:20]:
                labs = tuple(h.class_of(x).label
                             for x in (g1, h.inv(g1), g2, h.inv(g2)))
                if sorted(labs) != sorted(spec.labels):
                    continue
                t = NielsenTuple(labs, (g1, h.inv(g1), g2, h.inv(g2)))
                assert hm_detect(spec, t)
                assert lift_invariant(spec, t) == 0


# ---------------------------------------------------------------------
# orbit-level invariants

def test_a4_orbit_values(a4_spec, a4_orbits):
    vals = {o.size: orbit_lift_invariant(a4_spec, o) for o in a4_orbits}
    assert vals == {12: 1, 18: 0}
    assert obstructed(a4_spec, a4_orbits[0]) != obstructed(a4_spec,
                                                           a4_orbits[1])


def test_a4_hm_tuples_in_unobstructed_orbit(a4_spec, a4_orbits):
    for o in a4_orbits:
        has_hm = any(hm_detect(a4_spec, t) for t in o.members)
        assert has_hm == (orbit_lift_invariant(a4_spec, o) == 0)


def test_serre5_schur_separation():
    spec = serre_spec(5)
    lat = component_lattice(spec)
    act = normalizer_action_on_lift(spec, lat)
    assert sorted(act["inner_values"]) == [1, 2, 3, 4]
    ssets = {frozenset(v) for v in act["S"].values()}
    assert ssets == {frozenset({1, 4}), frozenset({2, 3})}
    assert act["schur_separated"]


def test_a4_schur_separation(a4_spec):
    lat = component_lattice(a4_spec)
    act = normalizer_action_on_lift(a4_spec, lat)
    assert sorted(act["inner_values"]) == [0, 1]
    assert act["schur_separated"]


def test_lift_constant_on_all_orbits():
    for spec in (di_spec(2), serre_spec(3), serre_spec(5)):
        # the cover is built on the spec's own handle, so the lift memo and
        # the element orders live on one group
        assert _cover_for(spec).base is spec.group
        for o in all_orbits(spec):
            orbit_lift_invariant(spec, o)      # raises if not constant


# the r = 4 ladder of the report benchmark, and the children of the
# tower specs of tests/test_orderly.py that have a cover
LADDER = {
    "a4": lambda: di_spec(2),
    "a5": lambda: spec_of(A5, ("3",) * 4, T="natural"),
    "serre7": lambda: serre_spec(7),
    "di5": lambda: di_spec(5),
    "di7": lambda: di_spec(7),
    "a4-child": lambda: di_spec(2, 1),
    "serre3-child": lambda: serre_spec(3, 1),
}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_index_form_lift_is_the_tuple_lift(name):
    # each member read as a one-form orbit off the index-form tables,
    # against the per-tuple product of same-order lifts
    spec = LADDER[name]()
    T = spec.group.tables()
    for o in all_orbits(spec):
        for k in o.nums:
            one = BraidOrbit(spec, [k], o.forms, o.moves)
            assert orbit_lift_invariant(spec, one) == \
                lift_invariant(spec, from_indices(T, o.forms[k]))


@pytest.mark.parametrize("name, table", [("a4", 1), ("a5", 0)],
                         ids=["kappa", "omega"])
def test_doctored_lift_entry_is_an_inconsistency(name, table):
    # a wrong kappa (or omega) at the last entry of a member that the seed
    # does not share makes that member's value differ from the seed's
    spec = LADDER[name]()
    h = spec.group
    o = max(all_orbits(spec), key=lambda o: o.size)
    seed = o.forms[min(o.nums)]
    x = next(o.forms[k][-1] for k in sorted(o.nums)
             if o.forms[k][-1] not in seed)
    entries = h.memo(_lift_table, h, _cover_for(spec))[table]
    good = entries[x]
    entries[x] = good + 1
    try:
        with pytest.raises(ConsistencyError, match="not constant"):
            orbit_lift_invariant(spec, o)
    finally:
        entries[x] = good
    assert orbit_lift_invariant(spec, o) in (0, 1)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the A_n lift uses Serre's genus-0 formula, so on this "
    "genus-1 class both orbits read 1"))
def test_a5_c35_orbits_have_different_lifts():
    # Fried (Israel J. Math. 179 (2010)): H(A_n, C_{3^r}) has two
    # components for r >= n, which the lift invariant tells apart
    spec = spec_of(A5, ("3",) * 5, T="natural")
    assert cover_genus(spec) == 1
    orbs = all_orbits(spec)
    assert sorted(o.size for o in orbs) == [252, 432]
    assert len({orbit_lift_invariant(spec, o) for o in orbs}) == 2


# ---------------------------------------------------------------------
# spin lifts

def test_a5_c34_spin_and_orbit():
    spec = spec_of(A5, ("3",) * 4)
    orbs = all_orbits(spec)
    assert len(orbs) == 1 and orbs[0].size == 18
    assert orbit_lift_invariant(spec, orbs[0]) == 0


def test_a5_553_spin():
    spec = spec_of(A5, ("5+", "5-", "3"))
    forms = enumerate_tuples(spec)
    assert len(forms) == 6
    for t in forms:
        assert lift_invariant(spec, t) == 1
        assert mt_parity(spec, t) == 1


def test_spin_c3_chain():
    # C_{3^{n-1}} in A_n carries spin (n-1) mod 2
    for n in (4, 5, 6):
        # 3-cycles split into two classes in A4 ("3+"/"3-"); either works
        lab = "3+" if n == 4 else "3"
        spec = spec_of({"family": "alternating", "n": n},
                       (lab,) * (n - 1))
        forms = enumerate_tuples(spec)
        assert forms, "no tuples at n=%d" % n
        for t in forms[:10]:
            assert an_spin(spec, t) == (n - 1) % 2


def test_spin_rejects_even_cycles():
    # the formulas refuse even entry orders regardless of tuple validity
    spec = spec_of(A5, ("2.2", "2.2", "3"))
    h = spec.group
    x = h.classes()["2.2"].rep
    t = NielsenTuple(("2.2", "2.2", "3"), (x, x, h.identity))
    with pytest.raises(ValueError):
        an_spin(spec, t)
    with pytest.raises(ValueError):
        mt_parity(spec, t)


def test_mt_parity_c34():
    spec = spec_of(A5, ("3",) * 4)
    t = enumerate_tuples(spec)[0]
    assert mt_parity(spec, t) == 0


def test_pure_cycle_reduce_preserves_spin():
    # spin is additive over disjoint cycles, so refining each class into
    # its pure cycles keeps the class-level omega sum; per-tuple values
    # agree with that sum
    A6 = {"family": "alternating", "n": 6}
    spec = spec_of(A6, ("3.3", "3.3", "3.3", "3"), T="natural")
    out = pure_cycle_reduce(spec)
    assert sorted(out.labels) == ["3"] * 7
    per_class = 7 % 2      # omega(3-cycle) = 1, seven of them
    forms = enumerate_tuples(spec)
    assert forms
    for t in forms[:12]:
        assert an_spin(spec, t) == per_class == 1


# ---------------------------------------------------------------------
# covers and errors

def test_cover_selection_errors():
    with pytest.raises(ValueError, match="no default cover"):
        _cover_for(spec_of({"family": "dihedral", "m": 5}, ("2",) * 4))
    # no cover, no unit multipliers to move a lift value
    assert lift_moduli_degree(make_group(A5), 1) == 1


def test_lift_requires_ell_prime_order():
    # class order divisible by ell: same-order lift must refuse
    spec = serre_spec(3)
    h = spec.group
    t = NielsenTuple(("1",) * 3, (h.identity,) * 3)
    bad = spec_of({"family": "affine2", "ell": 3, "k": 0, "order": 3},
                  ("C+", "C+", "C-", "C-"))
    tt = enumerate_tuples(bad)
    if tt:
        with pytest.raises(ValueError):
            lift_invariant(bad, tt[0])


# ---------------------------------------------------------------------
# towers

def test_a4_tower_both_orbits_lift(a4_spec, a4_orbits):
    by_val = {orbit_lift_invariant(a4_spec, o): o for o in a4_orbits}
    child_vals = {}
    for val, o in by_val.items():
        children = tower_lift(a4_spec, o)
        assert len(children) == 2
        cspec = NielsenSpec(a4_spec.group.next_level(), a4_spec.labels,
                            "inner", a4_spec.T)
        child_vals[val] = sorted(orbit_lift_invariant(cspec, c)
                                 for c in children)
    # mod-4 values reduce to the level-0 value mod 2
    assert child_vals[0] == [0, 2]
    assert child_vals[1] == [1, 3]


@pytest.mark.parametrize("spec", [di_spec(2), serre_spec(3)],
                         ids=["a4", "serre3"])
def test_tower_lift_matches_per_orbit_selection(spec):
    # oracle: the child orbits above o are the braid orbits of the
    # level-(k+1) forms that reduce into o, computed from scratch by a
    # BFS on NielsenTuples
    h = spec.group
    child = NielsenSpec(h.next_level(), spec.labels, "inner", spec.T)
    child_forms = enumerate_tuples(child)

    def reduce(t):
        entries = tuple(child.group.reduce(g, h) for g in t.entries)
        labels = tuple(h.class_of(g).label for g in entries)
        return inner_canonical(spec, NielsenTuple(labels, entries))

    moves = [lambda t, m=m: inner_canonical(child, m(t))
             for m in braid_moves(child)]
    for o in all_orbits(spec):
        expected = partition([t for t in child_forms
                              if reduce(t) in o.members], moves,
                             "braid orbit escaped the enumeration")
        got = tower_lift(spec, o)
        assert [c.members for c in got] == expected
        # the same orbit numbered on its own by the BFS is refused
        with pytest.raises(ValueError, match="numbered by the class"):
            tower_lift(spec, orbit(spec, o.seed))


def test_tower_lift_gate_runs_where_there_is_a_cover(monkeypatch):
    # the mod-ell gate reads the lift of the base orbit and of each child:
    # a child value that does not reduce to the base's is an
    # inconsistency; a group with no cover (dihedral) has no gate
    calls = []

    def doctored(spec, o):
        calls.append(spec.group.to_spec())
        return orbit_lift_invariant(spec, o) + spec.group.k
    monkeypatch.setattr(lift_module, "orbit_lift_invariant", doctored)
    spec = di_spec(2)
    with pytest.raises(ConsistencyError, match="does not reduce to"):
        tower_lift(spec, all_orbits(spec)[0])
    assert calls and calls[-1]["k"] == 1
    calls.clear()
    spec = spec_of({"family": "dihedral", "m": 3}, ("2",) * 4)
    assert tower_lift(spec, all_orbits(spec)[0])
    assert calls == []


def test_spec_memo_is_freed_with_the_spec():
    # the memo lives on the spec, its twin and its child spec, not on the
    # interned group, so all of it goes with the spec
    spec = di_spec(2)
    lattice = component_lattice(spec)
    children = tower_lift(spec, all_orbits(spec)[0])
    refs = [weakref.ref(x) for x in (spec, spec.as_absolute(),
                                     children[0].spec)]
    del spec, lattice, children
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def test_reduce_elem_is_reduction_hom(a4_spec):
    h = a4_spec.group
    child = h.next_level()
    for a in child.elements()[::7]:
        for b in child.elements()[::11]:
            assert child.reduce(child.mul(a, b), h) == \
                h.mul(child.reduce(a, h), child.reduce(b, h))


def test_dihedral_tower():
    spec = spec_of({"family": "dihedral", "m": 3}, ("2",) * 4)
    o = all_orbits(spec)[0]
    children = tower_lift(spec, o)
    assert children
    assert spec.group.next_level().m == 9


def test_level_up_unsupported():
    for h in (make_group(A5), make_group({"family": "heis2", "ell": 3,
                                          "k": 0})):
        with pytest.raises(ValueError, match="no parametrized tower"):
            h.next_level()
        with pytest.raises(ValueError, match="no parametrized tower"):
            h.reduce(h.identity, h)


# ---------------------------------------------------------------------
# BCL data and moduli degrees

def test_bcl_rational_unions(a4_spec):
    b = bcl_data(a4_spec)
    assert b.N_C == 3 and b.rational_union
    assert b.inner_field_degree == 1

    b5 = bcl_data(spec_of(A5, ("5+", "5-", "3")))
    assert b5.N_C == 15 and b5.rational_union

    bd = bcl_data(spec_of({"family": "dihedral", "m": 5}, ("2",) * 4))
    assert bd.N_C == 2 and bd.rational_union


def test_bcl_non_rational():
    # a single 5-class is moved by powering in A5: inner field degree 2
    b = bcl_data(spec_of(A5, ("5+", "5+", "5+")))
    assert not b.rational_union
    assert b.inner_field_degree == 2
    # the S5 swap carries (5+)^3 to (5-)^3 = (5+)^(3 * 2), so modulo the
    # normalizer every unit fixes C: the absolute field is Q
    assert b.abs_field_degree == 1


@pytest.mark.parametrize("gspec, labels, M_abs", [
    (A5, ("5+", "5+", "5+"), [1, 2, 3, 4]),
    (A4, ("C+",) * 3, [1, 2]),
    ({"family": "k22z3", "ell": 2, "k": 0}, ("3",) * 3, [1, 2]),
    ({"family": "dihedral", "m": 13}, ("rot1", "rot1", "rot5", "rot5"),
     list(range(1, 13))),
    (A4, ("C+", "C+", "C-", "C-"), [1, 2]),
], ids=["a5-5+3", "a4-c+3", "sl23-333", "d13", "a4"])
def test_bcl_absolute_multipliers(gspec, labels, M_abs):
    # M_abs is the set of units u with C^u in the orbit of C under the
    # normalizer: where a generator moves C, it holds more than M_inn
    spec = spec_of(gspec, labels)
    b = bcl_data(spec)
    assert b.M_abs == absolute_multipliers(spec) == M_abs
    assert set(b.M_inn) <= set(b.M_abs)


def test_moduli_degrees(a4_spec, a4_orbits):
    for o in a4_orbits:
        assert component_moduli_degree(a4_spec, o) == 1
    spec = serre_spec(5)
    for o in all_orbits(spec):
        assert component_moduli_degree(spec, o) == 4   # phi(5)
