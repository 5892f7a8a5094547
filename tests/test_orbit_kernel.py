"""groups.orbit_arrays, the one orbit kernel, against the set-based
oracles.partition, on random permutations and on every kind of move
array the program hands it; and the array form of the orbits it makes."""

import random
from array import array

import pytest

from hurwitz.braid import all_orbits, orbit_index
from hurwitz.groups import (make_group, orbit_arrays, orbit_ids,
                            ConsistencyError, _cosets)
from hurwitz.nielsen import NielsenSpec, nielsen_class
from hurwitz.reduced import reduce_orbit
from oracles import partition
from test_groups import COSET_CASES

A4 = {"family": "affine2", "ell": 2, "k": 0, "order": 3}


def di_spec(ell, k=0):
    return NielsenSpec(make_group({**A4, "ell": ell, "k": k}),
                       ("C+", "C+", "C-", "C-"))


def agree(items, moves):
    """The kernel's orbits equal the oracle's, in the same order."""
    got = orbit_arrays(items, moves, "escaped")
    assert all(type(o) is array and list(o) == sorted(o) for o in got)
    assert [list(o) for o in got] == [
        sorted(o) for o in partition(items, [m.__getitem__ for m in moves],
                                     "escaped")]
    return got


def random_perm(rng, n, longest):
    """A random permutation of 0..n-1 whose cycles have at most `longest`
    points."""
    pts = list(range(n))
    rng.shuffle(pts)
    p = array("i", range(n))
    while pts:
        k = rng.randint(1, longest)
        cyc, pts = pts[:k], pts[k:]
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            p[x] = y
    return p


@pytest.mark.parametrize("seed", range(20))
def test_random_permutation_pairs(seed):
    # long cycles on even seeds, few orbits; short ones on odd seeds, many
    rng = random.Random(seed)
    n = rng.randint(1, 300)
    longest = n if seed % 2 == 0 else 3
    moves = [random_perm(rng, n, longest) for _ in range(2)]
    orbits = agree(range(n), moves)
    assert sorted(k for o in orbits for k in o) == list(range(n))
    kept = sorted(k for o in orbits if rng.random() < 0.5 for k in o)
    agree(kept, moves)
    # given in any order, the orbits still come least member first
    agree(kept[::-1], moves)


def test_escape_is_an_inconsistency():
    p = array("i", [1, 2, 0, 4, 3])
    assert [list(o) for o in orbit_arrays(range(5), [p], "out")] == \
        [[0, 1, 2], [3, 4]]
    # an image outside the items
    with pytest.raises(ConsistencyError, match="out"):
        orbit_arrays([0, 1, 3, 4], [p], "out")
    # an image of -1, which would otherwise wrap to the last number
    q = array("i", [1, 2, 0, 4, -1])
    with pytest.raises(ConsistencyError, match="out"):
        orbit_arrays(range(5), [q], "out")
    # an image past the end of the arrays
    q = array("i", [1, 2, 0, 4, 5])
    with pytest.raises(ConsistencyError, match="out"):
        orbit_arrays(range(5), [q], "out")


def test_no_moves_gives_singletons():
    assert [list(o) for o in orbit_arrays([3, 1], [], "out")] == [[1], [3]]


@pytest.mark.parametrize("ell", [2, 5], ids=["a4", "di5"])
def test_braid_moves_of_the_class(ell):
    # (q_{r-1}, sh) on every product-one form, generating or not
    nc = nielsen_class(di_spec(ell))
    orbits = agree(range(len(nc.forms)), [nc.moves[-2], nc.moves[-1]])
    assert all(any(o == x for x in orbits) for o in nc.orbits)


def test_qq_arrays_of_every_a4_orbit():
    for o in all_orbits(di_spec(2)):
        rc = reduce_orbit(o)
        qq = agree(o.nums, [rc.sh2, rc.q1q3i])
        assert list(rc.reps) == [m[0] for m in qq]
        assert all(rc.rep_of[k] == m[0] for m in qq for k in m)


@pytest.mark.parametrize("gspec,T", COSET_CASES)
def test_coset_actions(gspec, T):
    # the cosets xH as orbits of right multiplication by all of H, on
    # tuple products, against those the program builds from H's greedy
    # generators
    G = make_group(gspec)
    E = G.tables()
    H = E.indices(G.stabilizer(T))
    right = [array("i", [E.index[G.mul(x, E.els[g])] for x in E.els])
             for g in H]
    cosets = agree(range(G.order), right)
    got, coset_of = _cosets(G, T)
    assert got == cosets
    assert coset_of == orbit_ids(cosets, G.order)
    assert [E.right(g) for g in H] == right


def test_orbits_are_sorted_arrays_with_their_index():
    # A4 level 2: each braid orbit's numbers are a sorted array whose
    # least number is the seed's, the orbit-id array agrees with them,
    # and the class arrays of the Q'' generators, restricted to an
    # orbit's numbers, are commuting involutions of those numbers
    spec = di_spec(2, 2)
    nc = nielsen_class(spec)
    orbits = all_orbits(spec)
    ids = orbit_index(spec)
    assert type(ids) is array and len(ids) == len(nc.forms)
    assert sum(1 for i in ids if i >= 0) == sum(o.size for o in orbits)
    for i, o in enumerate(orbits):
        assert type(o.nums) is array
        assert list(o.nums) == sorted(set(o.nums))
        assert o.seed == min(o.members)
        assert all(ids[k] == i for k in o.nums)
        rc = reduce_orbit(o)
        sh2, q1q3i = rc.sh2, rc.q1q3i
        for k in o.nums:
            a, b = sh2[k], q1q3i[k]
            assert sh2[a] == k
            assert q1q3i[b] == k
            assert sh2[b] == q1q3i[a]
        assert sorted(map(sh2.__getitem__, o.nums)) == \
            sorted(map(q1q3i.__getitem__, o.nums)) == list(o.nums)
        assert all(rc.rep_of[rc.rep_of[k]] == rc.rep_of[k] <= k
                   for k in o.nums)
        assert sorted(set(map(rc.rep_of.__getitem__, o.nums))) == \
            list(rc.reps)
