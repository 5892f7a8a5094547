"""Oracles for the numbered Nielsen class: the orderly enumeration, packed,
against the tuple list and dict of pinning then canonicalizing every
product-one tuple, the derived twists against their direct form table,
and the transported absolute class map and tower reduction against
per-form canonicalization; the gates of that path; and what the class
keeps."""

import tracemalloc

import pytest

from hurwitz import nielsen
from hurwitz.groups import (make_group, automorphisms, closure,
                            ConsistencyError)
from hurwitz.nielsen import (NielsenSpec, nielsen_class, absolute_class_map,
                             enumerate_tuples, index_moves, canonizer,
                             transport)
from hurwitz.braid import all_orbits, component_lattice
from hurwitz.lift import _next_level, _reduction, tower_lift
from oracles import (form_table, head_blocks, tuple_class, partition,
                     centralizer, stabilizer_maps, stabilizer_forms)

A4 = {"family": "affine2", "ell": 2, "k": 0, "order": 3}
DI7 = {"family": "affine2", "ell": 7, "k": 0, "order": 3}
SERRE7 = {"family": "affine2", "ell": 7, "k": 0, "order": 2}
SERRE3 = {"family": "affine2", "ell": 3, "k": 0, "order": 2}
A5 = {"family": "alternating", "n": 5}
S4 = {"family": "symmetric", "n": 4}


def dihedral(m):
    return {"family": "dihedral", "m": m}


# r = 3 to 6.  The stabilizer chain of the enumeration takes more than
# one step where the pinned entry's centralizer is larger than the
# cyclic group it generates: a reflection in D_m with m even (order 4,
# with the central rotation), a double transposition in A5 (order 4), S4
# (order 8) and A6 (order 8)
SPECS = {
    "a4": (A4, ("C+", "C+", "C-", "C-")),
    "di7": (DI7, ("C+", "C+", "C-", "C-")),
    "serre3": (SERRE3, ("2",) * 4),
    "serre7": (SERRE7, ("2",) * 4),
    "a5-c34": (A5, ("3",) * 4),
    "a5-c35": (A5, ("3",) * 5),
    "a5-553": (A5, ("5+", "5-", "3")),
    "a5-2223": (A5, ("2.2", "2.2", "2.2", "3")),
    "a5-2222": (A5, ("2.2",) * 4),
    "a6-2234": ({"family": "alternating", "n": 6}, ("2.2", "2.2", "3", "4.2")),
    "s4-2223": (S4, ("2.2", "2", "2", "3")),
    "s4-3344": (S4, ("3", "3", "4", "4")),
    "d15": (dihedral(15), ("2",) * 4),
    "d9": (dihedral(9), ("2",) * 4),
    "d8": (dihedral(8), ("2", "2", "2_1", "2_1")),
    "d6-r5": (dihedral(6), ("2", "2_1", "rot2", "2", "2_1")),
    "d6-r6": (dihedral(6), ("2",) * 4 + ("2_1",) * 2),
}
# the families with a next tower level, with children of a few thousand
# forms at most
TOWERS = ["a4", "d15", "d9", "d8", "d6-r5", "serre3"]


def spec_of(name, eq="inner"):
    """The spec `name` of SPECS, or for "NAME-child" its next tower
    level."""
    gspec, labels = SPECS[name.removesuffix("-child")]
    h = make_group(gspec)
    if name.endswith("-child"):
        h = h.next_level()
    return NielsenSpec(h, labels, eq)


@pytest.mark.parametrize("name", sorted(SPECS) +
                         ["%s-child" % n for n in TOWERS])
def test_orderly_forms_are_the_pinned_canonical_forms(name):
    # the packed class against the tuple list and dict: iterating,
    # decoding and looking up every form, and a conjugate of each that
    # moves it, which is not canonical, so not numbered
    spec = spec_of(name)
    T = spec.group.tables()
    nc = nielsen_class(spec)
    forms, number, _ = tuple_class(spec)
    assert list(nc.forms) == forms
    assert [nc.forms[k] for k in range(len(forms))] == forms
    assert len(nc.forms) == len(forms)
    assert all(nc.forms.find(e) == number[e] for e in forms)
    for e in forms:
        moved = next(c for c in (tuple(map(T.conj[z].__getitem__, e))
                                 for z in range(len(T.els))) if c != e)
        assert nc.forms.find(moved) == -1


@pytest.mark.parametrize("name", sorted(SPECS) +
                         ["%s-child" % n for n in TOWERS])
def test_derived_twists_are_the_direct_form_table(name):
    spec = spec_of(name)
    h = spec.group
    nc = nielsen_class(spec)
    assert list(nc.moves) == form_table(h, nc.forms, nc.forms.find,
                                        index_moves(h.tables(), spec.r))
    assert len(nc.moves) == spec.r


@pytest.mark.parametrize("name", sorted({str(g): name for name, (g, _)
                                          in SPECS.items()}.values()))
def test_centralizer_record_is_the_brute_centralizer(name):
    # per class of each group: the conjugation rows of the noncentral
    # elements of the tuple-level centralizer, each row once (a central
    # element's row is the identity's)
    h = spec_of(name).group
    T = h.tables()
    for label, cl in h.classes().items():
        rep, rows, _ = nielsen._centralizer(h, label)
        assert rep == T.index[cl.rep]
        brute = {tuple(T.conj[T.index[z]]) for z in centralizer(h, cl.rep)
                 if len(h.class_of(z)) > 1}
        assert sorted(map(tuple, rows)) == sorted(brute)


def test_last_twist_meets_a_nontrivial_head_stabilizer():
    # where the twisted tuple itself is not canonical, _last_twist has to
    # minimize over the stabilizer of the head; the test above holds its
    # result to the direct form table on these specs
    moved = []
    for name in sorted(SPECS):
        spec = spec_of(name)
        nc = nielsen_class(spec)
        last = index_moves(spec.group.tables(), spec.r)[-2]
        if any(nc.forms.find(last(e)) < 0 for e in nc.forms):
            moved.append(name)
    assert moved


def test_shift_meets_a_tie_at_the_new_entry_two():
    # where the stabilizer of the shifted form's new entry 2 in the
    # centralizer of the pinned entry acts nontrivially, _shift takes the
    # least image over the tied rows; test_derived_twists_are_the_direct_
    # form_table holds its result to the direct form table on these specs
    tied = set()
    for name in sorted(SPECS):
        spec = spec_of(name)
        h = spec.group
        T = h.tables()
        canon = canonizer(h)
        for e in nielsen_class(spec).forms:
            c = canon(e[1:] + e[:1])
            rows = nielsen._centralizer(h, T.label[c[0]])[1]
            if any(row[c[1]] == c[1] for row in rows):
                tied.add(name)
                break
    assert {"a5-2222", "a5-2223", "s4-2223", "s4-3344", "d8"} <= tied


@pytest.mark.parametrize("name", sorted(SPECS))
def test_transported_class_map_is_the_direct_one(name):
    spec = spec_of(name, "absolute")
    h = spec.group
    nc = nielsen_class(spec.as_inner())
    canon = h.memo(canonizer, h)
    moves = (nc.moves[0], nc.moves[-1])
    table = []
    for perm in spec.aut_gens():
        def direct(k):
            return nc.forms.find(canon(tuple(map(perm.__getitem__,
                                                 nc.forms[k]))))
        row = {k: direct(k) for o in nc.orbits for k in o}
        for o in nc.orbits:
            assert transport(o, direct, moves, moves, "escaped") == \
                {k: row[k] for k in o}
        table.append(row)
    cmap = [-1] * len(nc.forms)
    for o in partition([k for o in nc.orbits for k in o],
                       [row.__getitem__ for row in table], "escaped"):
        for k in o:
            cmap[k] = min(o)
    assert list(absolute_class_map(spec)) == cmap


# class multisets that a generator of the family's maps moves, each with
# its number of absolute forms: the stabilizer is {1, 6} of the units of
# Z/7, {1, 5, 8, 12} of Z/13, and of order 8 and 4 in the 240 and 1 008
# maps of affine2 order 2 at ell = 5 and 7
MOVED = {
    "d7-2211": (dihedral(7), ("2", "2", "rot1", "rot1"), 12),
    "d13-2215": (dihedral(13), ("2", "2", "rot1", "rot5"), 12),
    "serre5-2211": ({**SERRE3, "ell": 5}, ("2", "2", "c0|0,1", "c0|1,0"), 6),
    "serre7-2211": (SERRE7, ("2", "2", "c0|0,1", "c0|1,0"), 12),
}


@pytest.mark.parametrize("name", sorted(SPECS) + sorted(MOVED))
def test_absolute_forms_are_the_stabilizer_classes(name):
    # the record's generators generate the brute stabilizer of the class
    # multiset, and the absolute forms are the least of each class of
    # generating inner forms under it
    if name in MOVED:
        gspec, labels, count = MOVED[name]
        spec = NielsenSpec(make_group(gspec), labels, "absolute")
    else:
        spec, count = spec_of(name, "absolute"), None
    h = spec.group
    T = h.tables()
    stabilizer = {T.indices(m) for m in stabilizer_maps(h, spec.labels)}
    assert closure(tuple(range(h.order)), [
        lambda x, p=p: tuple(map(p.__getitem__, x))
        for p in spec.aut_gens()]) == stabilizer
    forms = enumerate_tuples(spec)
    assert forms == stabilizer_forms(spec)
    assert count is None or len(forms) == count
    # the coset representatives kept are those that fix the multiset
    base = sorted(spec.labels)
    reps = h.memo(automorphisms, h, spec.labels, spec.budget)[1]
    assert [T.indices(map(a, T.els)) for a in reps] == [
        T.indices(map(a, T.els)) for a in h.coset_rep_auts()
        if sorted(h.class_of(a(h.classes()[lab].rep)).label
                  for lab in base) == base]


@pytest.mark.parametrize("name", TOWERS)
def test_transported_tower_reduction_is_the_direct_one(name):
    spec = spec_of(name)
    h = spec.group
    child_spec, kids, below = _next_level(spec)
    find = nielsen_class(spec).forms.find
    red = _reduction(child_spec.group, h)
    canon = h.memo(canonizer, h)
    assert below == [
        frozenset(find(canon(tuple(map(red.__getitem__, o.forms[k]))))
                  for k in o.nums) for o in kids]


# ---------------------------------------------------------------------
# gates

def _orderly_tuples(spec):
    # the enumeration's head blocks, spelled out form by form
    return [(*prefix, x, t)
            for prefix, xs, tails in nielsen._orderly_forms(spec)
            for x, t in zip(xs, tails)]


def _class_with(monkeypatch, edit):
    # the edited form list, regrouped into the head blocks of the
    # enumeration
    spec = spec_of("a4")
    T = spec.group.tables()
    forms = _orderly_tuples(spec)
    monkeypatch.setattr(nielsen, "_orderly_forms",
                        lambda spec: head_blocks(T, edit(forms)))
    return spec


def test_duplicated_form_is_an_inconsistency(monkeypatch):
    spec = _class_with(monkeypatch, lambda f: f[:5] + f[4:])
    with pytest.raises(ConsistencyError, match="not a permutation"):
        nielsen_class(spec)


def test_missing_form_is_an_inconsistency(monkeypatch):
    spec = _class_with(monkeypatch, lambda f: f[:4] + f[5:])
    with pytest.raises(ConsistencyError, match="escaped the enumeration"):
        nielsen_class(spec)


def test_noncanonical_form_is_an_inconsistency(monkeypatch):
    # a conjugate of a form in place of the form itself
    spec = spec_of("a4")
    h = spec.group
    T = h.tables()
    e = _orderly_tuples(spec)[4]
    row = next(T.conj[z] for z in range(h.order)
               if tuple(map(T.conj[z].__getitem__, e)) != e)
    moved = tuple(map(row.__getitem__, e))
    spec = _class_with(monkeypatch, lambda f: f[:4] + [moved] + f[5:])
    with pytest.raises(ConsistencyError):
        nielsen_class(spec)


def test_doctored_transporter_loses_the_pinned_entry(monkeypatch):
    # a transporter that does not move entry 2 of a form onto its class
    # representative is caught once for its block of the sh table
    spec = spec_of("a4")
    T = spec.group.tables()
    x = next(e[1] for e in nielsen_class(spec).forms
             if T.to_rep[e[1]] != T.e)
    to_rep = list(T.to_rep)
    to_rep[x] = T.e
    monkeypatch.setattr(T, "to_rep", to_rep)
    with pytest.raises(ConsistencyError, match="lost its pinned entry"):
        nielsen_class(spec)


def test_transport_rejects_a_map_off_the_moves():
    nc = nielsen_class(spec_of("a4"))
    [o] = [o for o in nc.orbits if len(o) == 18]
    q1, sh = nc.moves[0], nc.moves[-1]
    seed = min(o)
    assert transport(o, int, (q1, sh), (q1, sh), "escaped") == \
        {k: k for k in o}
    # sh on the target side of q_1: the identity does not intertwine them
    with pytest.raises(ConsistencyError, match="does not commute"):
        transport(o, int, (q1, sh), (sh, sh), "escaped")
    # right at the seed, wrong at the check
    with pytest.raises(ConsistencyError, match="disagrees"):
        transport(o, lambda k: k if k == seed else seed, (q1, sh),
                  (q1, sh), "escaped")
    # a -1 image is rejected before any array reads it
    with pytest.raises(ConsistencyError, match="escaped"):
        transport(o, lambda k: -1, (q1, sh), (q1, sh), "escaped")
    # a BFS that cannot cover the orbit
    with pytest.raises(ConsistencyError, match="disagrees"):
        transport(o, int, (q1,), (q1,), "escaped")


# ---------------------------------------------------------------------
# what the class keeps

def test_twists_below_the_last_are_derived_when_read():
    # orbits, lattice and tower read q_{r-1} and sh alone
    spec = spec_of("a4")
    for o in all_orbits(spec):
        tower_lift(spec, o)
    component_lattice(spec)
    nc = spec.memo(nielsen_class, spec)
    child = spec.memo(_next_level, spec)[0]
    for moves in (nc.moves, all_orbits(spec.as_absolute())[0].moves,
                  child.memo(nielsen_class, child).moves):
        assert moves.made[:2] == [None, None]
        assert all(moves.made[2:])
    assert nc.moves[0] == tuple_class(spec)[2][0]
    assert nc.moves.made[0] is nc.moves[0]


def test_packed_class_keeps_under_200_bytes_per_form():
    # DI l=11, with every table of the group built by a first class
    h = make_group({**DI7, "ell": 11})
    nielsen_class(NielsenSpec(h, SPECS["di7"][1]))
    spec = NielsenSpec(h, SPECS["di7"][1])
    tracemalloc.start()
    try:
        nc = nielsen_class(spec)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(nc.forms) == 29286
    assert live <= 200 * len(nc.forms)
