import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import braid as braid_module, nielsen
from hurwitz.groups import (make_group, ConsistencyError, BudgetExceeded,
                            automorphisms)
from hurwitz.nielsen import (NielsenSpec, NielsenTuple, inner_canonical,
                             enumerate_tuples, absolute_class_map,
                             nielsen_class, index_moves, from_indices,
                             canonizer)
from hurwitz.braid import (q_twist, all_orbits, braidable,
                           component_lattice)
from oracles import (form_table, q_untwist, sh, braid_moves, orbit,
                     is_nielsen, apply_aut, partition)

A4 = {"family": "affine2", "ell": 2, "k": 0, "order": 3}
D5 = {"family": "dihedral", "m": 5}
S50 = {"family": "affine2", "ell": 5, "k": 0, "order": 2}


def spec_of(gspec, labels, eq="inner", T=None):
    return NielsenSpec(make_group(gspec), labels, eq, T)


@pytest.fixture(scope="module")
def a4_spec():
    return spec_of(A4, ("C+", "C+", "C-", "C-"))


@pytest.fixture(scope="module")
def a4_forms(a4_spec):
    return enumerate_tuples(a4_spec)


def test_twist_untwist_inverse(a4_spec, a4_forms):
    for t in a4_forms:
        for i in range(1, 4):
            assert q_untwist(a4_spec, i, q_twist(a4_spec, i, t)) == t
            assert q_twist(a4_spec, i, q_untwist(a4_spec, i, t)) == t


def test_twist_index_range(a4_spec, a4_forms):
    with pytest.raises(ValueError):
        q_twist(a4_spec, 0, a4_forms[0])
    with pytest.raises(ValueError):
        q_twist(a4_spec, 4, a4_forms[0])


def test_artin_relations_raw(a4_spec, a4_forms):
    # braid relations hold exactly on raw tuples, no canonicalization
    for t in a4_forms:
        for i in (1, 2):
            lhs = q_twist(a4_spec, i,
                          q_twist(a4_spec, i + 1, q_twist(a4_spec, i, t)))
            rhs = q_twist(a4_spec, i + 1,
                          q_twist(a4_spec, i, q_twist(a4_spec, i + 1, t)))
            assert lhs == rhs
        far = q_twist(a4_spec, 3, q_twist(a4_spec, 1, t))
        assert far == q_twist(a4_spec, 1, q_twist(a4_spec, 3, t))


def test_shift_is_twist_word_mod_inner(a4_spec, a4_forms):
    # q1 q2 q3 = conjugation-by-g1 composed with sh
    for t in a4_forms:
        w = q_twist(a4_spec, 3,
                    q_twist(a4_spec, 2, q_twist(a4_spec, 1, t)))
        assert inner_canonical(a4_spec, w) == \
            inner_canonical(a4_spec, sh(a4_spec, t))


def test_moves_preserve_nielsen(a4_spec, a4_forms):
    moves = braid_moves(a4_spec)
    rng = random.Random(7)
    for t in a4_forms:
        x = t
        for _ in range(6):
            x = rng.choice(moves)(x)
            assert is_nielsen(a4_spec, x)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8),
       st.integers(0, 10 ** 6))
def test_moves_preserve_nielsen_property(word, pick):
    spec = _S50_CACHE["spec"]
    forms = _S50_CACHE["forms"]
    t = forms[pick % len(forms)]
    moves = braid_moves(spec)
    for w in word:
        t = moves[w](t)
    assert is_nielsen(spec, t)


def test_a4_inner_orbits(a4_spec):
    orbs = all_orbits(a4_spec)
    assert sorted(o.size for o in orbs) == [12, 18]
    assert sum(o.size for o in orbs) == 30


def test_orbit_matches_partition(a4_spec):
    orbs = all_orbits(a4_spec)
    for o in orbs:
        # rebuilding from any member gives the same orbit
        again = orbit(a4_spec, min(o.members))
        assert again.members == o.members
        # the BFS numbers its forms in the same order as the class, and
        # its move arrays are the class arrays under that renumbering
        nums = sorted(o.nums)
        local = {k: i for i, k in enumerate(nums)}
        assert list(again.forms) == [o.forms[k] for k in nums]
        for mine, theirs in zip(again.moves, o.moves):
            assert list(mine) == [local[theirs[k]] for k in nums]


def test_orbit_escape_is_an_inconsistency(a4_spec, a4_forms,
                                          monkeypatch):
    # the escape gate shared by every partition: a set of forms that is
    # not closed under the moves is an internal inconsistency, never a
    # smaller orbit
    [big] = [o for o in all_orbits(a4_spec) if o.size == 18]
    forms = set(a4_forms) - {min(big.members)}
    moves = [lambda t, m=m: inner_canonical(a4_spec, m(t))
             for m in braid_moves(a4_spec)]
    with pytest.raises(ConsistencyError, match="escaped the enumeration"):
        partition(forms, moves, "braid orbit escaped the enumeration")
    # on numbers: a move image missing from the numbering is -1
    h = a4_spec.group
    nc = nielsen_class(a4_spec)
    gone = nc.forms[min(big.nums)]
    kept = [e for e in nc.forms if e != gone]
    number = {e: k for k, e in enumerate(kept)}
    table = form_table(h, kept, lambda e: number.get(e, -1),
                       index_moves(h.tables(), 4))
    assert any(-1 in m for m in table)
    with pytest.raises(ConsistencyError, match="escaped the enumeration"):
        partition(range(len(kept)), [m.__getitem__ for m in table],
                  "braid orbit escaped the enumeration")
    # the automorphism image of an orbit's seed, the one form whose image
    # the absolute class map canonicalizes before transporting it, missing
    # from the class numbering
    abs_spec = spec_of(A4, a4_spec.labels, "absolute")
    perm = abs_spec.aut_gens()[0]
    seed = nc.forms[min(nc.orbits[0])]
    gone = h.memo(canonizer, h)(tuple(map(perm.__getitem__, seed)))
    assert nc.forms.find(gone) >= 0
    forms = copy.copy(nc.forms)
    forms.find = lambda e: -1 if e == gone else nc.forms.find(e)
    monkeypatch.setattr(nielsen, "nielsen_class",
                        lambda spec: nc._replace(forms=forms))
    with pytest.raises(ConsistencyError, match="left the enumeration"):
        absolute_class_map(spec_of(A4, a4_spec.labels, "absolute"))


def test_budget_bounds_the_twin():
    # the absolute twin is bounded by the budget of the spec it came from
    spec = NielsenSpec(make_group(A4), ("C+", "C+", "C-", "C-"), budget=3)
    with pytest.raises(BudgetExceeded):
        all_orbits(spec.as_absolute())
    with pytest.raises(BudgetExceeded):
        component_lattice(spec)


@pytest.mark.parametrize("gspec", [A4, {**A4, "ell": 5}],
                         ids=["a4", "di5"])
@pytest.mark.parametrize("eq", ["inner", "absolute"])
def test_move_table_matches_moves(gspec, eq):
    # each array entry is the number of the canonical image of its move,
    # through the absolute class map for absolute specs, and the number
    # of an enumerated form
    spec = spec_of(gspec, ("C+", "C+", "C-", "C-"), eq)
    T = spec.group.tables()
    nc = spec.memo(nielsen_class, spec.as_inner())
    cmap = None if eq == "inner" else absolute_class_map(spec)
    orbits = all_orbits(spec)
    nums = {k for o in orbits for k in o.nums}
    assert sorted(from_indices(T, nc.forms[k]) for k in nums) == \
        enumerate_tuples(spec)
    for o in orbits:
        assert o.forms is nc.forms
        for k, move in enumerate(braid_moves(spec)):
            for n in o.nums:
                image = inner_canonical(spec, move(from_indices(T,
                                                                o.forms[n])))
                image = nc.forms.find(T.indices(image.entries))
                assert image >= 0
                if cmap is not None:
                    image = cmap[image]
                assert o.moves[k][n] == image
                assert image in nums


def test_orbit_rejects_noncanonical_seed(a4_spec, a4_forms):
    h = a4_spec.group
    t = a4_forms[0]
    moved = NielsenTuple(t.labels,
                         tuple(h.conj(g, (1, (1, 0))) for g in t.entries))
    if moved != t:
        with pytest.raises(ValueError):
            orbit(a4_spec, moved)


def test_a4_component_lattice(a4_spec):
    lat = component_lattice(a4_spec)
    assert len(lat.inner_orbits) == 2
    assert len(lat.abs_orbits) == 2
    assert sorted(lat.covering.values()) == [0, 1]
    for i in range(2):
        assert lat.v(i) == 1


def test_serre5_component_lattice():
    spec = spec_of(S50, ("2",) * 4)
    lat = component_lattice(spec)
    assert len(lat.inner_orbits) == 4        # phi(5)
    assert len(lat.abs_orbits) == 2          # squares / nonsquares
    for i in range(2):
        assert lat.v(i) == 2


def test_dihedral_absolute_orbits():
    spec = spec_of(D5, ("2",) * 4, "absolute")
    assert len(all_orbits(spec)) == 1


def test_braidable_seed_suffices(a4_spec):
    # conjugation commutes with braids: testing any member agrees with
    # testing the seed
    orbs = all_orbits(a4_spec)
    h = a4_spec.group
    T = h.tables()
    reps = automorphisms(h, a4_spec.labels, a4_spec.budget)[1]
    rng = random.Random(11)
    for o in orbs:
        for a in reps[:6]:
            base = braidable(a4_spec, o, a)
            perm = T.indices(map(a, T.els))
            members = sorted(o.members)
            for t in rng.sample(members, 3):
                sub = orbit(a4_spec, min(o.members))
                assert (apply_aut(a4_spec, perm, t) in sub.members) == base


_S50_CACHE = {"spec": spec_of(S50, ("2",) * 4)}
_S50_CACHE["forms"] = enumerate_tuples(_S50_CACHE["spec"])


def _doctor_cmap_off_the_lattice(spec, cmap, monkeypatch):
    # one form of the first inner orbit sent to no absolute root
    cmap[all_orbits(spec.as_inner())[0].nums[0]] = -1


def _doctor_cmap_past_a_root(spec, cmap, monkeypatch):
    # the forms over the least root of the first absolute orbit sent to
    # another root of that orbit: each inner orbit still lies over one
    # absolute orbit, but that root is no longer hit
    r, other = all_orbits(spec.as_absolute())[0].nums[:2]
    for k, v in enumerate(cmap):
        if v == r:
            cmap[k] = other


def _doctor_braidable(spec, cmap, monkeypatch):
    # no coset representative braidable: v * 0 against 6 reps
    monkeypatch.setattr(braid_module, "braidable", lambda *args: False)


@pytest.mark.parametrize("doctor, message", [
    (_doctor_cmap_off_the_lattice, "inner orbit maps to 1 absolute orbits"),
    (_doctor_cmap_past_a_root, "absolute orbits disagree with the "
                               "inner-orbit merge"),
    (_doctor_braidable, "component count v=1 inconsistent with braidable "
                        "index 6/0")])
def test_lattice_gates_raise_on_doctored_input(monkeypatch, doctor,
                                               message):
    # a spec of its own, whose lattice is first built from the true
    # absolute class map; the orbits and orbit ids it memoized stay, and
    # the class map it reads again is doctored in place
    spec = spec_of(A4, ("C+", "C+", "C-", "C-"), "absolute")
    assert component_lattice(spec).counts == [1, 1]
    cmap = spec.memo(nielsen.absolute_class_map, spec)
    doctor(spec, cmap, monkeypatch)
    with pytest.raises(ConsistencyError, match=message):
        component_lattice(spec)
