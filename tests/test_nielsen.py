import random

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.groups import make_group
from hurwitz.nielsen import (NielsenSpec, NielsenTuple, inner_canonical,
                             enumerate_tuples, absolute_class_map,
                             nielsen_class, from_indices, cover_genus,
                             pure_cycle_reduce, canonizer, DEFAULT_BUDGET)
from hurwitz.groups import BudgetExceeded
from oracles import (is_nielsen, absolute_canonical, canonical, apply_aut,
                     unpinned_enumerate, hm_detect, di_detect)


def spec_of(gspec, labels, eq="inner", T=None):
    return NielsenSpec(make_group(gspec), labels, eq, T)


A4 = {"family": "affine2", "ell": 2, "k": 0, "order": 3}
D3 = {"family": "dihedral", "m": 3}
D5 = {"family": "dihedral", "m": 5}
A5 = {"family": "alternating", "n": 5}
S30 = {"family": "affine2", "ell": 3, "k": 0, "order": 2}


@pytest.fixture(scope="module")
def a4_spec():
    return spec_of(A4, ("C+", "C+", "C-", "C-"))


@pytest.fixture(scope="module")
def a4_forms(a4_spec):
    return enumerate_tuples(a4_spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_of(A4, ("C+", "C-"))            # r < 3
    with pytest.raises(ValueError):
        spec_of(A4, ("C+",) * 3 + ("bogus",))
    with pytest.raises(ValueError):
        spec_of(A4, ("C+",) * 4, eq="modular")


def test_spec_json_roundtrip(a4_spec):
    back = NielsenSpec.from_json(a4_spec.to_json())
    assert back.to_json() == a4_spec.to_json()
    assert back.group is a4_spec.group


def test_enumerate_a4_count(a4_forms, a4_spec):
    # 30 pinned inner forms, falling into orbits of size 12 and 18
    assert len(a4_forms) == 30
    for t in a4_forms:
        assert is_nielsen(a4_spec, t)
        assert inner_canonical(a4_spec, t) == t


def test_is_nielsen_rejects(a4_spec, a4_forms):
    h = a4_spec.group
    t = a4_forms[0]
    # break product-one
    bad = NielsenTuple(t.labels, t.entries[:3] + (h.identity,))
    assert not is_nielsen(a4_spec, bad)
    # wrong label multiset
    bad2 = NielsenTuple(("C+",) * 4, t.entries)
    assert not is_nielsen(a4_spec, bad2)
    # non-generating: all entries in the cyclic <alpha>
    a = (1, (0, 0))
    bad3 = NielsenTuple(("C+", "C+", "C-", "C-"),
                        (a, a, h.inv(a), h.inv(a)))
    assert not is_nielsen(a4_spec, bad3)


def test_inner_canonical_is_conjugation_invariant(a4_spec, a4_forms):
    h = a4_spec.group
    rng = random.Random(3)
    for t in a4_forms:
        for _ in range(4):
            z = rng.choice(h.elements())
            moved = NielsenTuple(t.labels,
                                 tuple(h.conj(g, z) for g in t.entries))
            assert inner_canonical(a4_spec, moved) == t


def test_inner_canonical_is_true_minimum():
    # brute the entire conjugation orbit on a small group
    spec = spec_of(D3, ("2", "2", "2", "2"))
    h = spec.group
    for t in enumerate_tuples(spec):
        orbit = {tuple(h.conj(g, z) for g in t.entries)
                 for z in h.elements()}
        assert t.entries == min(orbit)


_BRUTE_SPECS = {"a4": (A4, ("C+", "C+", "C-", "C-")),
                "d5": (D5, ("2",) * 4),
                "s30": (S30, ("2",) * 4),
                "a5": (A5, ("5+", "5-", "3"))}
# these meet a tie: the stabilizer of entry 2 in the centralizer of the
# pinned entry acts nontrivially
_TIE_SPECS = {"a5-2222": (A5, ("2.2",) * 4),
              "s4-2223": ({"family": "symmetric", "n": 4},
                          ("2.2", "2", "2", "3")),
              "d8": ({"family": "dihedral", "m": 8},
                     ("2", "2", "2_1", "2_1"))}


def _check_brute_minimum(spec, i, zi):
    # a product-one tuple: form i of the numbered class (generating or
    # not; A5 2.2^4 has no generating one) under conjugation by element
    # zi; its canonical form is the least of all |G| conjugates
    h = spec.group
    forms = nielsen_class(spec).forms
    t = from_indices(h.tables(), forms[i % len(forms)])
    z = h.elements()[zi % h.order]
    moved = NielsenTuple(t.labels, tuple(h.conj(g, z) for g in t.entries))
    brute = min(tuple(h.conj(g, y) for g in moved.entries)
                for y in h.elements())
    assert inner_canonical(spec, moved) == NielsenTuple(t.labels, brute)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_BRUTE_SPECS)), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_inner_canonical_is_brute_minimum(name, i, zi):
    _check_brute_minimum(spec_of(*_BRUTE_SPECS[name]), i, zi)


@pytest.mark.parametrize("name", sorted(_TIE_SPECS))
def test_inner_canonical_is_brute_minimum_at_a_tie(name):
    # every form, each moved by another element, so the tie branch of
    # the canonizer is met on each run
    spec = spec_of(*_TIE_SPECS[name])
    for i in range(len(nielsen_class(spec).forms)):
        _check_brute_minimum(spec, i, 7 * i + 1)


@pytest.mark.parametrize("gspec,labels", [
    (A4, ("C+", "C+", "C-", "C-")),
    (D3, ("2",) * 4),
    (D5, ("2",) * 4),
    (S30, ("2",) * 4),
    (A5, ("5+", "5-", "3")),
    (A5, ("3",) * 4),
])
def test_pinned_vs_unpinned_oracle(gspec, labels):
    # on S30 and A5 C3^4 many product-one forms do not generate (17 of
    # 41, 33 of 51), so whole braid orbits are dropped by the pinned side
    for eq in ("inner", "absolute"):
        spec = spec_of(gspec, labels, eq)
        assert enumerate_tuples(spec) == unpinned_enumerate(spec)


def test_enumerate_budget():
    spec = NielsenSpec(make_group(A4), ("C+", "C+", "C-", "C-"), budget=3)
    with pytest.raises(BudgetExceeded):
        enumerate_tuples(spec)


def test_budget_is_a_spec_field():
    labels = ("C+", "C+", "C-", "C-")
    assert spec_of(A4, labels).budget == DEFAULT_BUDGET
    for bad in (0, -1):
        with pytest.raises(ValueError, match="budget must be positive"):
            NielsenSpec(make_group(A4), labels, budget=bad)
    # the twin and the pure-cycle reduction carry the budget along
    A6 = make_group({"family": "alternating", "n": 6})
    derived = [NielsenSpec(make_group(A4), labels, budget=7).as_absolute(),
               NielsenSpec.from_json(spec_of(A4, labels).to_json(), 7),
               pure_cycle_reduce(NielsenSpec(A6, ("3.3",) * 3, budget=7))]
    assert [s.budget for s in derived] == [7] * 3


def test_absolute_class_map_consistency(a4_spec, a4_forms):
    # the map is over the numbers of the inner class: -1 off the Nielsen
    # class, else the least number of the automorphism class
    abs_spec = spec_of(A4, ("C+", "C+", "C-", "C-"), "absolute")
    cmap = absolute_class_map(abs_spec)
    nc = nielsen_class(a4_spec)
    T = a4_spec.group.tables()

    def form(k):
        return from_indices(T, nc.forms[k])
    assert sorted(map(form, (k for o in nc.orbits for k in o))) == a4_forms
    for k, root in enumerate(cmap):
        if form(k) not in a4_forms:
            assert root == -1
            continue
        assert cmap[root] == root
        assert absolute_canonical(abs_spec, form(k)) == form(root) == min(
            form(u) for u, r in enumerate(cmap) if r == root)
    abs_forms = enumerate_tuples(abs_spec)
    assert sorted(map(form, set(cmap) - {-1})) == abs_forms


def test_absolute_class_map_canonicalizes_the_nielsen_class(monkeypatch):
    # an automorphism commutes with the braid moves, so each generator is
    # canonicalized twice per generating orbit (its seed, and the check at
    # its largest number) and transported over the rest; the 193 of the
    # 1 201 product-one forms of Serre l=7 that do not generate are never
    # mapped
    spec = spec_of({"family": "affine2", "ell": 7, "k": 0, "order": 2},
                   ("2",) * 4, "absolute")
    h = spec.group
    nc = spec.memo(nielsen_class, spec.as_inner())
    generating = sum(map(len, nc.orbits))
    assert (len(nc.forms), generating, len(nc.orbits)) == (1201, 1008, 6)
    canon = h.memo(canonizer, h)
    canonicalized = []

    def counted(e):
        canonicalized.append(e)
        return canon(e)
    monkeypatch.setitem(h._memo, (canonizer, (h,)), counted)
    absolute_class_map(spec)
    assert len(canonicalized) == 2 * len(nc.orbits) * len(spec.aut_gens())
    assert len(canonicalized) == 36


def test_apply_aut_keeps_nielsen(a4_spec, a4_forms):
    gens = a4_spec.aut_gens()
    assert gens
    for t in a4_forms[::3]:
        for a in gens:
            u = apply_aut(a4_spec, a, t)
            assert is_nielsen(a4_spec, u)


# ---------------------------------------------------------------------
# cover genus

def test_cover_genus_a5():
    assert cover_genus(spec_of(A5, ("3",) * 4, T="natural")) == 0
    assert cover_genus(spec_of(A5, ("5+", "5-", "3"), T="natural")) == 1


def test_cover_genus_dihedral():
    assert cover_genus(spec_of(D5, ("2",) * 4, T="involution-cosets")) == 0
    assert cover_genus(spec_of(D5, ("2",) * 4, T="regular")) == 1


def test_cover_genus_requires_T(a4_spec):
    with pytest.raises(ValueError):
        cover_genus(a4_spec)


# ---------------------------------------------------------------------
# shapes

def test_hm_detect(a4_spec):
    h = a4_spec.group
    g1 = (1, (0, 0))
    g2 = (1, (0, 1))
    t = NielsenTuple(("C+", "C-", "C+", "C-"),
                     (g1, h.inv(g1), g2, h.inv(g2)))
    assert hm_detect(a4_spec, t)
    assert not hm_detect(a4_spec, NielsenTuple(t.labels,
                                               (g1, g2, g1, h.inv(g2))))


def test_di_detect(a4_spec):
    g1 = (1, (0, 0))
    g2 = (2, (0, 1))
    g4 = (2, (1, 1))
    t = NielsenTuple(("C+", "C-", "C+", "C-"), (g1, g2, g1, g4))
    assert di_detect(a4_spec, t)
    assert di_detect(a4_spec, t, di_class="C-")
    assert not di_detect(a4_spec, t, di_class="C+")
    assert not di_detect(a4_spec,
                         NielsenTuple(t.labels, (g1, g2, g2, g4)))


# ---------------------------------------------------------------------
# pure-cycle reduction

def test_pure_cycle_reduce_a6():
    A6 = {"family": "alternating", "n": 6}
    spec = spec_of(A6, ("3.3", "3.3", "3.3"), T="natural")
    out = pure_cycle_reduce(spec)
    assert sorted(out.labels) == ["3"] * 6
    assert cover_genus(out) == cover_genus(spec)


def test_pure_cycle_reduce_rejects_even_cycles():
    spec = spec_of(A5, ("2.2", "2.2", "3"))
    with pytest.raises(ValueError):
        pure_cycle_reduce(spec)


def test_pure_cycle_reduce_needs_alternating():
    with pytest.raises(ValueError):
        pure_cycle_reduce(spec_of(D5, ("2",) * 4))


# ---------------------------------------------------------------------
# property: canonical is idempotent and class-invariant under hypothesis
# sampling of conjugators

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 29), st.integers(0, 23))
def test_canonical_idempotence_property(i, zi):
    spec = _A4_CACHE["spec"]
    forms = _A4_CACHE["forms"]
    h = spec.group
    t = forms[i % len(forms)]
    z = h.elements()[zi % h.order]
    moved = NielsenTuple(t.labels, tuple(h.conj(g, z) for g in t.entries))
    c = canonical(spec, moved)
    assert c == t
    assert canonical(spec, c) == c


_A4_CACHE = {"spec": spec_of(A4, ("C+", "C+", "C-", "C-"))}
_A4_CACHE["forms"] = enumerate_tuples(_A4_CACHE["spec"])
