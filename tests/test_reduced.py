import hashlib
import json
from array import array

import pytest

from hurwitz import cli, reduced
from hurwitz.groups import (PSL2, ConsistencyError, make_group, cen_in_Sn,
                            gl_orders, closure)
from hurwitz.nielsen import NielsenSpec, enumerate_tuples
from hurwitz.braid import all_orbits
from hurwitz.reduced import (reduce_orbit, gamma_actions, cusps,
                             reduced_genus, sh_incidence, moduli_checks,
                             wohlfahrt)
from oracles import orbit, partition, sh_incidence_sets
from test_orderly import SPECS, spec_of as orderly_spec

A4 = {"family": "affine2", "ell": 2, "k": 0, "order": 3}
D5 = {"family": "dihedral", "m": 5}


def spec_of(gspec, labels, eq="inner", T=None):
    return NielsenSpec(make_group(gspec), labels, eq, T)


@pytest.fixture(scope="module")
def a4_spec():
    return spec_of(A4, ("C+", "C+", "C-", "C-"))


@pytest.fixture(scope="module")
def a4_orbits(a4_spec):
    return all_orbits(a4_spec)


@pytest.fixture(scope="module")
def a4_reduced(a4_orbits):
    return {o.size: reduce_orbit(o) for o in a4_orbits}


def test_qq_is_klein_four(a4_spec, a4_reduced):
    # the Q'' maps of the move arrays, over the numbers of all A4 forms:
    # sh^2 and q1 q3^-1 are commuting involutions, each mapping the orbit
    # onto itself
    seen = set()
    for rc in a4_reduced.values():
        sh2, q1q3i, nums = rc.sh2, rc.q1q3i, rc.orbit.nums
        for k in nums:
            a, b = sh2[k], q1q3i[k]
            assert sh2[a] == k
            assert q1q3i[b] == k
            assert sh2[b] == q1q3i[a]
        assert sorted(map(sh2.__getitem__, nums)) == \
            sorted(map(q1q3i.__getitem__, nums)) == list(nums)
        seen |= rc.orbit.members
    assert seen == set(enumerate_tuples(a4_spec))


def test_reduce_needs_r4():
    spec = spec_of({"family": "alternating", "n": 5}, ("5+", "5-", "3"))
    o = all_orbits(spec)[0]
    with pytest.raises(ValueError):
        reduce_orbit(o)


def test_a4_reduced_degrees(a4_reduced):
    assert a4_reduced[18].degree == 9
    assert a4_reduced[12].degree == 6


def test_qq_partition(a4_reduced):
    # rep_of and reps record the Q'' partition: the oracle's orbits of
    # (sh^2, q1 q3^-1) on the braid orbit, each under its least number
    for rc in a4_reduced.values():
        nums = rc.orbit.nums
        qq = partition(nums, [rc.sh2.__getitem__, rc.q1q3i.__getitem__],
                       "escaped")
        assert type(rc.reps) is array
        assert list(rc.reps) == [min(m) for m in qq]
        assert sum(map(len, qq)) == rc.orbit.size == len(nums)
        assert all(rc.rep_of[t] == min(m) for m in qq for t in m)


def test_gamma_actions_are_bijections(a4_reduced):
    for rc in a4_reduced.values():
        assert set(rc.reps) <= set(rc.orbit.nums)
        for g in gamma_actions(rc):
            assert type(g) is array and len(g) == len(rc.rep_of)
            assert sorted(map(g.__getitem__, rc.reps)) == list(rc.reps)


def test_a4_cusp_widths(a4_reduced):
    w9 = sorted(c.width for c in cusps(a4_reduced[18]))
    w6 = sorted(c.width for c in cusps(a4_reduced[12]))
    assert w9 == [2, 3, 4]
    assert w6 == [1, 1, 4]


def test_cusp_internal_relations(a4_reduced):
    for rc in a4_reduced.values():
        for c in cusps(rc):
            assert c.width * c.f == c.v
            assert c.raw_v % c.v == 0
            assert c.u in (1, 2, 3, 4)
            assert sum(1 for _ in c.reps) == c.width


def test_a4_reduced_genus(a4_reduced):
    assert reduced_genus(a4_reduced[18]) == 0
    assert reduced_genus(a4_reduced[12]) == 0


def _a4_orbits(k=0):
    """The braid orbits of A4 level k on a spec of their own, so that the
    class arrays a test doctors are its own."""
    return all_orbits(spec_of(dict(A4, k=k), ("C+", "C+", "C-", "C-")))


def test_qq_gates_raise_on_doctored_arrays():
    o, other = _a4_orbits()
    sh2, q1q3i = o.spec.memo(reduced._qq_moves, o.moves)[:2]
    a, b, c = o.nums[:3]
    for image in (-1, other.nums[0]):   # no number; another orbit's
        saved, sh2[a] = sh2[a], image
        with pytest.raises(ConsistencyError,
                           match="Q'' orbit escaped the braid orbit"):
            reduce_orbit(o)
        sh2[a] = saved
    for k in o.nums:                        # a 3-cycle, the rest fixed
        sh2[k] = q1q3i[k] = k
    sh2[a], sh2[b], sh2[c] = b, c, a
    with pytest.raises(ConsistencyError, match="Q'' orbit of size 3"):
        reduce_orbit(o)


def test_gamma_gate_raises_on_a_doctored_rep_of():
    # a -1 in rep_of must raise, not index the gamma arrays from the end
    o = _a4_orbits()[0]
    rc = reduce_orbit(o)
    last = rc.reps[-1]
    for k in o.nums:
        if rc.rep_of[k] == last:
            rc.rep_of[k] = -1
    with pytest.raises(ConsistencyError, match="not a permutation"):
        gamma_actions(rc)


def _reduced_data(rcs):
    return [(list(rc.reps), rc.degree, reduced_genus(rc), sh_incidence(rc),
             [(c.reps, c.width, c.u, c.v, c.f, c.raw_v, c.label)
              for c in rc.cusps]) for rc in rcs]


def test_reduction_order_does_not_matter():
    # the class arrays are shared by the orbits of a class and filled
    # orbit by orbit: A4 level 2 reduced in reverse order, with one orbit
    # reduced again after the others, reads as the in-order run does
    forward = _reduced_data(map(reduce_orbit, _a4_orbits(2)))
    orbits = _a4_orbits(2)
    backward = [reduce_orbit(o) for o in reversed(orbits)]
    assert _reduced_data(backward) == forward[::-1]
    assert _reduced_data([reduce_orbit(orbits[0])]) == forward[:1]
    assert len(forward) > 2


def test_width_multiset_seed_invariance(a4_spec, a4_orbits):
    # rebuild each orbit from a different member, numbered on its own;
    # cusp data must agree
    for o in a4_orbits:
        other = sorted(o.members)[-1]
        o2 = orbit(a4_spec, min(o.members))
        assert other in o2.members
        rc1, rc2 = reduce_orbit(o), reduce_orbit(o2)
        assert sorted(c.width for c in cusps(rc1)) == \
            sorted(c.width for c in cusps(rc2))
        assert [(c.u, c.width, c.v, c.f) for c in cusps(rc1)] == \
            [(c.u, c.width, c.v, c.f) for c in cusps(rc2)]


def test_sh_incidence_a4(a4_reduced):
    for rc in a4_reduced.values():
        M, labels = sh_incidence(rc)
        cl = cusps(rc)
        assert len(labels) == len(cl)
        assert all(row[j] == M[j][i] for i, row in enumerate(M)
                   for j in range(len(M)))
        assert [sum(row) for row in M] == [c.width for c in cl]
        assert sum(map(sum, M)) == rc.degree


@pytest.mark.parametrize("name", [n for n in sorted(SPECS)
                                  if len(SPECS[n][1]) == 4] +
                         ["a4-level%d" % k for k in (1, 2)])
def test_sh_incidence_is_the_set_intersections(name):
    # the counted matrix against the set-intersection formula
    if name.startswith("a4-level"):
        orbits = _a4_orbits(int(name[-1]))
    else:
        orbits = all_orbits(orderly_spec(name))
    for o in orbits:
        rc = reduce_orbit(o)
        assert sh_incidence(rc)[0] == sh_incidence_sets(rc)


@pytest.mark.parametrize("gspec", [A4, D5, {"family": "dihedral", "m": 8},
                                   {"family": "symmetric", "n": 4}])
def test_middle_product_prediction_is_the_raw_q2_orbit_length(gspec):
    # v of every pair of elements against its orbit under the raw q2,
    # (a, b) -> (a b a^-1, a); on D8 and S4 the cusps meet pairs of
    # distinct commuting involutions (u = 1, orbit length 2)
    h = make_group(gspec)
    T = h.tables()
    for a in range(h.order):
        for b in range(h.order):
            q2 = closure((a, b), [lambda p: (T.conj[p[0]][p[1]], p[0])])
            assert reduced._middle_product_uv(h, a, b)[1] == len(q2)


def test_sh_incidence_gate_raises_when_sh_does_not_permute_the_reps():
    o = _a4_orbits()[0]
    rc = reduce_orbit(o)
    rc.cusps
    # the shifted forms of two reps, sent to one Q'' orbit
    shift = o.moves[-1]
    a, b = rc.reps[:2]
    rc.rep_of[shift[b]] = rc.rep_of[shift[a]]
    with pytest.raises(ConsistencyError, match="does not permute the reps"):
        sh_incidence(rc)


def test_moduli_checks_a4(a4_spec, a4_reduced):
    for rc in a4_reduced.values():
        rep = moduli_checks(a4_spec, rc)
        assert rep["fine_inner"] is True       # trivial center
        assert set(rep["elliptic_fixed_points"]) == {"gamma0", "gamma1"}
        assert isinstance(rep["bfine"], bool)
        assert rep["bfine"] == (rep["qq_free"]
                                and rep["elliptic_fixed_points"]["gamma0"] == 0
                                and rep["elliptic_fixed_points"]["gamma1"] == 0)
        g0, g1, _ = gamma_actions(rc)
        assert rc.fixed_points == (sum(g0[t] == t for t in rc.reps),
                                   sum(g1[t] == t for t in rc.reps))


def test_fine_moduli_once_per_spec(monkeypatch):
    # fine_inner and fine_abs depend on the group and T only: one
    # cen_in_Sn call for the two components of A4
    calls = []

    def counted(h, T):
        calls.append(T)
        return cen_in_Sn(h, T)
    monkeypatch.setattr(reduced, "cen_in_Sn", counted)
    spec = spec_of(A4, ("C+", "C+", "C-", "C-"), T="alpha-cosets")
    rep = cli.cmd_report(spec)
    assert len(rep["moduli"]) == 2
    assert calls == ["alpha-cosets"]


def test_wohlfahrt_a4(a4_reduced):
    w9 = wohlfahrt(a4_reduced[18])
    assert w9["N"] == 12 and w9["psl2"] == 576
    assert w9["verdict"] == "not a modular curve"
    assert w9["sylow_cycle_type"] == [3, 6]
    assert w9["sylow_cycle_type"] != w9["widths"]

    w6 = wohlfahrt(a4_reduced[12])
    assert w6["N"] == 4 and w6["psl2"] == 24
    assert w6["verdict"] == "inconclusive"


def test_wohlfahrt_dihedral_modular_case():
    # the genuine modular curve passes the same Sylow test
    spec = spec_of(D5, ("2",) * 4)
    rcs = [reduce_orbit(o) for o in all_orbits(spec)]
    degs = sorted(rc.degree for rc in rcs)
    assert 12 in degs
    rc = next(rc for rc in rcs if rc.degree == 12)
    w = wohlfahrt(rc)
    assert w["N"] == 5
    assert w["widths"] == [1, 1, 5, 5]
    assert w["verdict"] == "inconclusive"
    assert w.get("sylow_cycle_type") == w["widths"]


# every (N, d) the Sylow test can reach: |PSL2(Z/N)| <= PSL2_LIMIT and d
# dividing it, pinned by the digest of the rows [N, d, cycle type or None]
SYLOW_TABLE_SHA256 = \
    "66346acd6ad39be65a143576edd24f22d0c8920ba9af460e259631dc6470cde6"


def test_psl2_sylow_table_is_pinned():
    levels = [N for N in range(2, 20)
              if gl_orders(N)[2] <= reduced.PSL2_LIMIT]
    assert levels == list(range(2, 17)) + [18]
    rows = []
    for N in levels:
        psl = gl_orders(N)[2]
        rows += [[N, d, reduced._psl2_sylow_cusp_type(N, psl // d)]
                 for d in range(1, psl + 1) if psl % d == 0]
    assert len(rows) == 290
    assert sum(r[2] is not None for r in rows) == 41
    digest = hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == SYLOW_TABLE_SHA256


def test_psl2_sylow_test_runs_once_per_level_and_order(monkeypatch):
    built = []

    class Counted(PSL2):
        def __init__(self, N):
            built.append(N)
            super().__init__(N)
    monkeypatch.setattr(reduced, "PSL2", Counted)
    reduced._psl2_sylow_cusp_type.cache_clear()
    assert reduced._psl2_sylow_cusp_type(12, 64) == [3, 6]
    assert reduced._psl2_sylow_cusp_type(12, 64) == [3, 6]
    assert built == [12]
