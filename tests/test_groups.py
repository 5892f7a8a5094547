import math
import random

import pytest

from hurwitz.groups import (make_group, central_extension, central_lift,
                            gl_orders, cen_in_Sn, ConsistencyError,
                            _gl_brute)

SPECS = [
    {"family": "affine2", "ell": 2, "k": 0, "order": 3},
    {"family": "affine2", "ell": 5, "k": 0, "order": 2},
    {"family": "affine2", "ell": 5, "k": 0, "order": 3},
    {"family": "affine2", "ell": 3, "k": 1, "order": 2},
    {"family": "dihedral", "m": 9},
    {"family": "alternating", "n": 5},
    {"family": "heis2", "ell": 5, "k": 0},
    {"family": "k22z3", "ell": 2, "k": 0},
    {"family": "k22z3", "ell": 5, "k": 0},
]


@pytest.fixture(scope="module")
def groups():
    return {tuple(sorted(s.items())): make_group(s) for s in SPECS}


@pytest.mark.parametrize("spec", SPECS)
def test_group_axioms_sampled(spec):
    G = make_group(spec)
    els = G.elements()
    assert len(els) == G.order
    rng = random.Random(0)
    for _ in range(60):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
        assert G.mul(a, G.inv(a)) == G.identity
        assert G.mul(G.identity, a) == a
        assert G.mul(a, G.identity) == a


@pytest.mark.parametrize("spec", SPECS)
def test_classes_partition(spec):
    G = make_group(spec)
    classes = G.classes()
    total = 0
    seen = set()
    for cl in classes.values():
        assert not (set(cl.members) & seen)
        seen.update(cl.members)
        total += len(cl.members)
        assert cl.rep in cl.members
        o = G.elem_order(cl.rep)
        assert all(G.elem_order(x) == o for x in cl.members)
    assert total == G.order


def test_elem_order_divides_group_order():
    for spec in SPECS:
        G = make_group(spec)
        for g in G.elements()[:50]:
            assert G.order % G.elem_order(g) == 0


def test_a5_class_labels():
    A5 = make_group({"family": "alternating", "n": 5})
    assert sorted(A5.classes()) == ["1", "2.2", "3", "5+", "5-"]
    sizes = {lab: len(cl.members) for lab, cl in A5.classes().items()}
    assert sizes == {"1": 1, "2.2": 15, "3": 20, "5+": 12, "5-": 12}


def test_a4_affine2_class_structure():
    G = make_group({"family": "affine2", "ell": 2, "k": 0, "order": 3})
    sizes = {lab: len(cl.members) for lab, cl in G.classes().items()}
    assert sizes["C+"] == 4 and sizes["C-"] == 4
    assert G.center() == [G.identity]


def test_conj_class_matches_brute():
    G = make_group({"family": "dihedral", "m": 9})
    for g in G.elements():
        fast = set(G.conj_class(g).members)
        brute = {G.conj(g, h) for h in G.elements()}
        assert fast == brute


# ---------------------------------------------------------------------
# integer-indexed element tables vs the tuple arithmetic

@pytest.mark.parametrize("spec", SPECS)
def test_element_tables_match_tuple_ops(spec):
    G = make_group(spec)
    T = G.tables()
    els = T.els
    assert els == G.elements()
    assert all(T.index[g] == i for i, g in enumerate(els))
    for a, g in enumerate(els):
        assert els[T.inv[a]] == G.inv(g)
        assert T.label[a] == G.class_of(g).label
        mul, conj = T.mul[a], T.conj[a]
        for b, x in enumerate(els):
            assert els[mul[b]] == G.mul(g, x)
            assert els[conj[b]] == G.conj(x, g)


@pytest.mark.parametrize("spec,labels", [
    ({"family": "affine2", "ell": 2, "k": 0, "order": 3},
     ("C+", "C+", "C-", "C-")),
    ({"family": "affine2", "ell": 5, "k": 0, "order": 2}, ("2",) * 4),
    ({"family": "affine2", "ell": 5, "k": 0, "order": 3},
     ("C+", "C+", "C-", "C-")),
    ({"family": "alternating", "n": 5}, ("5+", "5-", "3")),
], ids=["a4", "serre5", "di5", "a5"])
def test_automorphism_permutations_match(spec, labels):
    from hurwitz.nielsen import _aut_perm
    G = make_group(spec)
    T = G.tables()
    auts = G.aut_gens(labels)
    assert auts
    for a in auts:
        perm = _aut_perm(G, a)
        assert sorted(perm) == list(range(G.order))
        assert [T.els[i] for i in perm] == [a(g) for g in T.els]


# ---------------------------------------------------------------------
# central extensions

def test_k22z3_alpha_order_three():
    for ell in (2, 5, 7):
        K = make_group({"family": "k22z3", "ell": ell, "k": 0})
        for g in K.elements()[: 200]:
            assert K.alpha(K.alpha(K.alpha(g))) == g


def test_k22z3_ell2_is_sl23_shape():
    # quaternion-type carries: the square of each K22 generator is the
    # central involution, so the fiber group is SL(2,3)
    K = make_group({"family": "k22z3", "ell": 2, "k": 0})
    x = (0, (1, 0, 0))
    y = (0, (0, 1, 0))
    w = (0, (0, 0, 1))
    assert K.mul(x, x) == w and K.mul(y, y) == w
    assert K.elem_order(w) == 2
    # 24 elements, exactly one involution: quaternion Sylow-2
    invs = [g for g in K.elements() if K.elem_order(g) == 2]
    assert K.order == 24 and invs == [w]


@pytest.mark.parametrize("kind,ell", [("heis2", 3), ("heis2", 5),
                                      ("k22z3", 2), ("k22z3", 5)])
def test_projection_is_homomorphism(kind, ell):
    cov = central_extension(kind, ell, 0)
    els = cov.ext.elements()
    rng = random.Random(1)
    for _ in range(80):
        a, b = rng.choice(els), rng.choice(els)
        assert cov.project(cov.ext.mul(a, b)) == cov.base.mul(
            cov.project(a), cov.project(b))


@pytest.mark.parametrize("kind,ell", [("heis2", 3), ("heis2", 5),
                                      ("k22z3", 2), ("k22z3", 5)])
def test_central_kernel_is_stem(kind, ell):
    cov = central_extension(kind, ell, 0)
    ext = cov.ext
    z = cov.central(1)
    # central
    for g in ext.elements()[: 100]:
        assert ext.mul(z, g) == ext.mul(g, z)
    assert ext.elem_order(z) == cov.L
    # stem: kernel generator is a commutator (lift invariant well-defined)
    els = ext.elements()
    comms = {ext.mul(ext.mul(a, b), ext.inv(ext.mul(b, a)))
             for a in els[:: max(1, len(els) // 40)] for b in els}
    assert z in comms


@pytest.mark.parametrize("kind,ell", [("heis2", 3), ("heis2", 5),
                                      ("k22z3", 2), ("k22z3", 5)])
def test_central_lift_exhaustive(kind, ell):
    cov = central_extension(kind, ell, 0)
    for g in cov.base.elements():
        d = cov.base.elem_order(g)
        if math.gcd(d, ell) != 1:
            continue
        gh = central_lift(cov, g)
        assert cov.project(gh) == g
        assert cov.ext.elem_order(gh) == d
        # uniqueness among central translates
        same = [u for u in range(cov.L)
                if cov.ext.elem_order(
                    cov.ext.mul(gh, cov.central(u))) == d]
        assert same == [0]


def test_central_extension_rejects_bad_ell():
    with pytest.raises(ValueError):
        central_extension("heis2", 2, 0)
    with pytest.raises(ValueError):
        central_extension("k22z3", 3, 0)


# ---------------------------------------------------------------------
# gl_orders

def test_gl_orders_against_brute():
    for N in range(2, 13):
        gl, sl, psl = gl_orders(N)
        bgl, bsl = _gl_brute(N)
        assert (gl, sl) == (bgl, bsl)
        assert psl == sl // (2 if N > 2 else 1)


def test_psl2_12_order():
    assert gl_orders(12)[2] == 576


def test_cen_in_sn_dihedral():
    D = make_group({"family": "dihedral", "m": 5})
    # involution-coset rep is self-normalizing; regular rep has full
    # centralizer quotient
    assert cen_in_Sn(D, "involution-cosets") == 1
    assert cen_in_Sn(D, "regular") == D.order
