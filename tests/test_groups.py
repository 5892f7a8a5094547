import math
import random

import pytest

from hurwitz import groups as groups_module
from hurwitz.groups import (make_group, central_lift, gl_orders, cen_in_Sn,
                            ConsistencyError, BudgetExceeded, PSL2, closure,
                            unit_gens, _gl_brute, automorphisms,
                            _automorphism_maps, _extend_hom, MAX_ORDER)
from oracles import cen_in_sn, heis2_mul, k22z3_alpha, k22z3_mul

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


def _tuple_span(G, elems):
    """The subgroup generated by elems, by BFS on the tuple arithmetic."""
    span, frontier = {G.identity}, [G.identity]
    while frontier:
        frontier = [y for y in {G.mul(x, g) for x in frontier for g in elems}
                    if y not in span]
        span.update(frontier)
    return span


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
        fast = set(G.class_of(g).members)
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
        # to_rep[a] conjugates a onto its class representative
        assert T.conj[T.to_rep[a]][a] == T.index[G.class_of(g).rep]
        mul, conj = T.mul[a], T.conj[a]
        for b, x in enumerate(els):
            assert els[mul[b]] == G.mul(g, x)
            assert els[conj[b]] == G.conj(x, g)
    assert len(_tuple_span(G, G.gens())) == G.order


@pytest.mark.parametrize("spec", SPECS)
def test_generates_matches_tuple_closure(spec):
    G = make_group(spec)
    els = G.elements()
    rng = random.Random(2)
    samples = [G.gens()] + [rng.sample(els, rng.randint(1, 3))
                            for _ in range(40)]
    answers = set()
    for elems in samples:
        brute = len(_tuple_span(G, elems)) == G.order
        assert G.generates(elems) == brute
        answers.add(brute)
    assert answers == {True, False}


@pytest.mark.parametrize("spec,labels", [
    ({"family": "affine2", "ell": 2, "k": 0, "order": 3},
     ("C+", "C+", "C-", "C-")),
    ({"family": "affine2", "ell": 5, "k": 0, "order": 2}, ("2",) * 4),
    ({"family": "affine2", "ell": 5, "k": 0, "order": 3},
     ("C+", "C+", "C-", "C-")),
    ({"family": "alternating", "n": 5}, ("5+", "5-", "3")),
], ids=["a4", "serre5", "di5", "a5"])
def test_automorphism_permutations_match(spec, labels):
    # every family generator fixes these multisets, so the record's
    # generators are the family's maps as index permutations
    G = make_group(spec)
    T = G.tables()
    gens, _, orbit = automorphisms(G, labels, 10 ** 8)
    assert orbit == {tuple(sorted(labels))}
    maps = G.aut_gens()
    assert gens and len(gens) == len(maps)
    for perm, a in zip(gens, maps):
        assert sorted(perm) == list(range(G.order))
        assert [T.els[i] for i in perm] == [a(g) for g in T.els]


def test_fallback_automorphisms_sl23():
    # k22z3 l=2 is SL(2,3), which has no built-in automorphism data: the
    # fallback extends every order- and class-size-preserving choice of
    # generator images, and finds Aut(SL(2,3)) = S4
    K = make_group({"family": "k22z3", "ell": 2, "k": 0})
    els = K.elements()
    gens = K.gens()
    maps = _automorphism_maps(K)
    assert len(maps) == 24
    assert len({tuple(m[g] for g in els) for m in maps}) == 24
    for m in maps:
        assert sorted(m.values()) == els
        for a in els:
            for b in gens:
                assert m[K.mul(a, b)] == K.mul(m[a], m[b])
    inner = {tuple(K.conj(g, c) for g in els) for c in els}
    assert len(inner) == 12
    assert inner <= {tuple(m[g] for g in els) for m in maps}
    # an assignment that is no homomorphism is refused
    assert _extend_hom(K, gens, [K.identity] * len(gens)) is None
    # the outer automorphism swaps the two classes of order-3 elements,
    # so it lies outside the stabilizer of 3^3, of order 12
    for labels, order in ((("3",) * 3, 12), (("3", "3_2", "3", "3_2"), 24)):
        gens, reps, _ = automorphisms(K, labels, 10 ** 8)
        assert len(closure(tuple(range(K.order)), [
            lambda x, p=p: tuple(map(p.__getitem__, x)) for p in gens])) \
            == order
        assert len(reps) == order


def test_stabilizer_is_bounded_by_the_budget():
    # the multiset {2, 2, rot1, rot5} of D13 has 3 points in its orbit
    # under the unit 2, which carries rot1, rot5 to rot2, rot3 to rot4,
    # rot6 (and back): 3 points x 1 generator x |G| 26 = 78
    D = make_group({"family": "dihedral", "m": 13})
    labels = ("2", "2", "rot1", "rot5")
    with pytest.raises(BudgetExceeded, match="exceeds the budget 77"):
        automorphisms(D, labels, 77)
    gens, reps, orbit = automorphisms(D, labels, 78)
    assert len(reps) == 4 and len(gens) == 1
    assert orbit == {("2", "2", "rot1", "rot5"), ("2", "2", "rot2", "rot3"),
                     ("2", "2", "rot4", "rot6")}


# ---------------------------------------------------------------------
# central extensions

def test_k22z3_alpha_order_three():
    # alpha is conjugation by t = (1, (0, 0, 0)), which lies over A*: it
    # is the closed-form alpha on every element
    for ell in (2, 5, 7):
        K = make_group({"family": "k22z3", "ell": ell, "k": 0})
        t = (1, (0, 0, 0))

        def alpha(g):
            return K.conj(g, t)
        assert K.elem_order(t) == 3
        for g in K.elements():
            assert alpha(g) == k22z3_alpha(ell, K.L, g)
            assert alpha(alpha(g)) == k22z3_alpha(ell, K.L, g, 2)
            assert alpha(alpha(alpha(g))) == g
        # alpha: x -> y -> (xy)^-1, w fixed, and a homomorphism
        x, y, w = (0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1))
        assert alpha(x) == y
        assert alpha(y) == K.inv(K.mul(x, y))
        assert alpha(w) == w
        for a in K.elements():
            for b in (x, y, w):
                assert alpha(K.mul(a, b)) == K.mul(alpha(a), alpha(b))


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


def _cover(kind, ell, k=0):
    return make_group({"family": "affine2", "ell": ell, "k": k,
                       "order": 2 if kind == "heis2" else 3}).cover()


# the pair sets of the product test, (kind, ell, k, n): each element
# against every n-th element for n > 0 (n = 1: every pair), or -n random
# pairs for n < 0
PRODUCT_PAIRS = [("heis2", 3, 0, 1), ("heis2", 5, 0, 1), ("k22z3", 2, 0, 1),
                 ("k22z3", 5, 0, 1), ("k22z3", 2, 1, 1), ("heis2", 7, 0, 7),
                 ("k22z3", 7, 0, 7), ("heis2", 3, 1, -200000),
                 ("k22z3", 2, 2, -200000), ("k22z3", 5, 1, -200000)]


@pytest.mark.parametrize("kind,ell,k,n", PRODUCT_PAIRS,
                         ids=["%s-%d-k%d" % c[:3] for c in PRODUCT_PAIRS])
def test_extension_product_is_the_closed_form(kind, ell, k, n):
    # the affine2 law plus a cocycle, against the closed-form products
    ext = _cover(kind, ell, k)
    assert ext is make_group({"family": kind, "ell": ell, "k": k})
    L = ell ** (k + 1)
    assert (ext.family, ext.L, ext.order) == (
        kind, L, (2 if kind == "heis2" else 3) * L ** 3)
    if kind == "heis2":
        def want(a, b):
            return heis2_mul(L, a, b)
    else:
        def want(a, b):
            return k22z3_mul(ell, L, a, b)
    if n > 0:
        els = ext.elements()
        pairs = ((a, b) for a in els for b in els[::n])
    else:
        rng = random.Random(ell * 10 + k)
        pairs = (tuple((rng.randrange(ext.base.aut_order),
                        (rng.randrange(L), rng.randrange(L),
                         rng.randrange(L))) for _ in "ab")
                 for _ in range(-n))
    assert [p for p in pairs if ext.mul(*p) != want(*p)] == []


@pytest.mark.parametrize("kind,ell", [("heis2", 3), ("heis2", 5),
                                      ("k22z3", 2), ("k22z3", 5)])
def test_projection_is_homomorphism(kind, ell):
    cov = _cover(kind, ell)
    els = cov.elements()
    rng = random.Random(1)
    for _ in range(80):
        a, b = rng.choice(els), rng.choice(els)
        assert cov.project(cov.mul(a, b)) == cov.base.mul(
            cov.project(a), cov.project(b))


@pytest.mark.parametrize("kind,ell", [("heis2", 3), ("heis2", 5),
                                      ("k22z3", 2), ("k22z3", 5)])
def test_central_kernel_is_stem(kind, ell):
    ext = _cover(kind, ell)
    z = ext.central(1)
    # central
    for g in ext.elements()[: 100]:
        assert ext.mul(z, g) == ext.mul(g, z)
    assert ext.elem_order(z) == ext.L
    # stem: kernel generator is a commutator (lift invariant well-defined)
    els = ext.elements()
    comms = {ext.mul(ext.mul(a, b), ext.inv(ext.mul(b, a)))
             for a in els[:: max(1, len(els) // 40)] for b in els}
    assert z in comms


# k22z3 l=2 k=3 has 3 * 16^3 = 12 288 elements, past MAX_ORDER: the lift
# reads its arithmetic pointwise, never its element list
LIFT_COVERS = [("heis2", 3, 0), ("heis2", 5, 0), ("k22z3", 2, 0),
               ("k22z3", 5, 0), ("k22z3", 2, 3)]


@pytest.mark.parametrize("kind,ell,k", LIFT_COVERS,
                         ids=["heis2-3", "heis2-5", "k22z3-2", "k22z3-5",
                              "k22z3-2-k3"])
def test_central_lift_exhaustive(kind, ell, k):
    cov = _cover(kind, ell, k)
    assert (cov.order > MAX_ORDER) == (k == 3)
    for g in cov.base.elements():
        d = cov.base.elem_order(g)
        if math.gcd(d, ell) != 1:
            continue
        gh = central_lift(cov, g)
        assert cov.project(gh) == g
        assert cov.elem_order(gh) == d
        # uniqueness among central translates
        same = [u for u in range(cov.L)
                if cov.elem_order(cov.mul(gh, cov.central(u))) == d]
        assert same == [0]
    if k == 3:
        with pytest.raises(ValueError, match="exceeds limit"):
            cov.elements()


def test_central_extension_rejects_bad_ell():
    with pytest.raises(ValueError, match="heis2 lifts need ell odd"):
        _cover("heis2", 2)
    with pytest.raises(ValueError, match="k22z3 lifts need ell != 3"):
        _cover("k22z3", 3)
    # the families themselves stay groups, and groups without a
    # parametrized cover have none
    assert make_group({"family": "heis2", "ell": 2, "k": 0}).order == 16
    assert make_group({"family": "dihedral", "m": 5}).cover() is None
    assert make_group({"family": "heis2", "ell": 3, "k": 0}).cover() is None


@pytest.mark.parametrize("family", ["affine2", "heis2", "k22z3"])
def test_composite_ell_is_rejected(family):
    for ell in (4, 6, 9):
        with pytest.raises(ValueError, match="needs ell prime"):
            make_group({"family": family, "ell": ell, "k": 0, "order": 3})


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


def test_psl2_element_count_matches_gl_orders():
    # extends the brute-force oracle of gl_orders past N = 12
    for N in list(range(2, 17)) + [18]:
        assert len(PSL2(N).elements()) == gl_orders(N)[2]


def test_unit_gens():
    # the least primitive root where one exists, else several units
    assert unit_gens(9) == [2] and unit_gens(49) == [3]
    assert unit_gens(15) == [2, 7] and unit_gens(8) == [3, 5]
    for m in range(2, 100):
        units = {b for b in range(1, m) if math.gcd(b, m) == 1}
        gens = unit_gens(m)
        assert closure(1, [lambda x, g=g: x * g % m for g in gens]) == units


def test_gl_orders_runs_its_oracle_once_per_n(monkeypatch):
    calls = []

    def counted(N):
        calls.append(N)
        return _gl_brute(N)
    monkeypatch.setattr(groups_module, "_gl_brute", counted)
    gl_orders.cache_clear()
    for N in (7, 7, 12, 7, 12):
        gl_orders(N)
    assert calls == [7, 12]


def test_cen_in_sn_dihedral():
    D = make_group({"family": "dihedral", "m": 5})
    # involution-coset rep is self-normalizing; regular rep has full
    # centralizer quotient
    assert cen_in_Sn(D, "involution-cosets") == 1
    assert cen_in_Sn(D, "regular") == D.order


@pytest.mark.parametrize("spec", [
    {"family": "alternating", "n": 7},
    {"family": "affine2", "ell": 2, "k": 3, "order": 3},
    {"family": "affine2", "ell": 7, "k": 0, "order": 3},
    {"family": "affine2", "ell": 7, "k": 0, "order": 2},
    {"family": "dihedral", "m": 49}],
    ids=["a7", "a4-level3", "di7", "serre7", "dihedral49"])
def test_tables_cost_the_generator_rows_alone(spec, monkeypatch):
    # a tables() build multiplies in the family k |G| times for the right
    # columns of its k generators, k |G| times for their product rows,
    # and ord(rep) - 1 times for each class's elem_order: the other
    # product rows, the conjugation rows and the inverses are composed
    # from those rows
    G = groups_module._build_group(spec)       # not interned: no tables
    mul, calls = type(G).mul, [0]

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)
    monkeypatch.setattr(type(G), "mul", counted)
    T = G.tables()
    monkeypatch.undo()
    assert calls[0] == 2 * len(T.gens) * G.order + sum(
        cl.elem_order - 1 for cl in T.classes.values())


def test_element_count_off_the_order_is_an_inconsistency(monkeypatch):
    # the count is checked with a raise, not an assert, so it holds under
    # python -O as well
    D = groups_module.Dihedral(5)
    monkeypatch.setattr(D, "_all_elements", lambda: [(0, 0), (1, 0)])
    with pytest.raises(ConsistencyError, match="not its order"):
        D.elements()


# ---------------------------------------------------------------------
# coset actions

COSET_CASES = [
    ({"family": "alternating", "n": 5}, "regular"),
    ({"family": "dihedral", "m": 5}, "involution-cosets"),
    ({"family": "dihedral", "m": 6}, "involution-cosets"),
    ({"family": "dihedral", "m": 9}, "regular"),
    ({"family": "affine2", "ell": 3, "k": 0, "order": 2},
     "involution-cosets"),
    ({"family": "affine2", "ell": 5, "k": 0, "order": 3}, "alpha-cosets"),
    ({"family": "affine2", "ell": 2, "k": 1, "order": 3}, "alpha-cosets"),
    ({"family": "symmetric", "n": 4}, "regular"),
    ({"family": "alternating", "n": 5}, "natural"),
    ({"family": "alternating", "n": 6}, "natural"),
]


@pytest.mark.parametrize("gspec,T", COSET_CASES)
def test_coset_action_matches_min_over_coset(gspec, T):
    # oracle: each coset xH as its least member, g acting by tuple
    # products, for every class representative g
    G = make_group(gspec)
    H = G.stabilizer(T)
    cosets = sorted({min(G.mul(x, y) for y in H) for x in G.elements()})
    for cl in G.classes().values():
        g = cl.rep
        act = {c: min(G.mul(G.mul(g, c), y) for y in H) for c in cosets}
        assert G.coset_action_orbit_count(g, T) == (
            len(groups_module.cycles(act, cosets)), len(cosets))


def test_cosets_are_built_once_per_group_and_T(monkeypatch):
    calls = []
    cosets = groups_module._cosets

    def counted(h, T):
        calls.append(T)
        return cosets(h, T)
    monkeypatch.setattr(groups_module, "_cosets", counted)
    D = make_group({"family": "dihedral", "m": 7})
    for lab in ("2", "2", "rot1", "2"):
        D.coset_action_orbit_count(D.classes()[lab].rep, "involution-cosets")
    D.coset_action_orbit_count(D.classes()["2"].rep, "regular")
    assert calls == ["involution-cosets", "regular"]


def test_stabilizer_that_is_no_subgroup_is_an_inconsistency(monkeypatch):
    D = groups_module.Dihedral(5)
    monkeypatch.setattr(D, "stabilizer", lambda T: [(0, 0), (0, 1)])
    with pytest.raises(ConsistencyError, match="not a subgroup"):
        D.coset_action_orbit_count((1, 0), "involution-cosets")


@pytest.mark.parametrize("gspec,T", COSET_CASES)
def test_cen_in_sn_matches_the_tuple_normalizer(gspec, T):
    G = make_group(gspec)
    assert cen_in_Sn(G, T) == cen_in_sn(G, T)


def test_cen_in_sn_gate_raises_on_doctored_generators(monkeypatch):
    # A5 on the cosets of its point stabilizer H is the natural action; a
    # 3-cycle read as H's generators fixes 2 of the 5 cosets
    A5 = groups_module.Alternating(5)
    assert cen_in_Sn(A5, "natural") == 1
    c = A5.tables().index[(1, 2, 0, 3, 4)]
    monkeypatch.setattr(groups_module, "_stabilizer_gens",
                        lambda h, T: [c])
    with pytest.raises(ConsistencyError, match=r"\[N_G\(H\):H\] = 2 does "
                                               r"not divide \[G:H\] = 5"):
        cen_in_Sn(A5, "natural")
