"""The Hurwitz-monodromy action on Nielsen classes: the twist q_i on a
tuple, braid orbits on the numbered class (absolute ones through the
absolute class map), the braidable-automorphism test, and the
inner/absolute component lattice."""

from array import array
from functools import cached_property

from . import nielsen    # one name per memoized class derivation
from .groups import ConsistencyError, automorphisms, orbit_arrays, orbit_ids
from .nielsen import NielsenTuple, Moves, canonizer, from_indices


def q_twist(spec, i, t):
    """q_i: (..., g_i, g_{i+1}, ...) -> (..., g_i g_{i+1} g_i^{-1}, g_i, ...),
    1-based i; labels travel with the entries."""
    h = spec.group
    if not 1 <= i <= spec.r - 1:
        raise ValueError("twist index %d out of range" % i)
    j = i - 1
    e, l = list(t.entries), list(t.labels)
    a, b = e[j], e[j + 1]
    e[j], e[j + 1] = h.conj(b, a), a
    l[j], l[j + 1] = l[j + 1], l[j]
    return NielsenTuple(tuple(l), tuple(e))


class BraidOrbit:
    """One braid orbit: `nums`, the numbers of its forms as a sorted
    array, whose least number `nums[0]` is the seed's; `forms`, the
    nielsen.Forms of the class; and `moves`, for each of q_1..q_{r-1} and
    sh, an array from each number of the class to the number its move
    lands on.  The orbits of one class share `forms` and `moves`; which
    orbit holds a number is read off `orbit_index`.  The NielsenTuples
    `members` are built on first use."""

    def __init__(self, spec, nums, forms, moves):
        self.spec = spec
        self.nums = nums
        self.forms = forms
        self.moves = moves
        self.size = len(nums)
        self.seed = from_indices(spec.group.tables(), forms[nums[0]])

    @cached_property
    def members(self):
        T = self.spec.group.tables()
        return frozenset(from_indices(T, e)
                         for e in self.forms.rows(self.nums))

    def __repr__(self):
        return "BraidOrbit(size=%d, seed=%s)" % (self.size, (self.seed,))


def _orbits(spec):
    """The braid orbits of spec, read through spec.memo.  The twins share
    the numbered inner class: an absolute form carries the number of the
    least inner form of its automorphism class, and the absolute move
    arrays are the inner ones composed with the absolute class map, each
    when it is first read; the orbits are those of q_{r-1} and sh."""
    nc = spec.memo(nielsen.nielsen_class, spec.as_inner())
    if spec.equivalence == "inner":
        return [BraidOrbit(spec, o, nc.forms, nc.moves) for o in nc.orbits]
    cmap = spec.memo(nielsen.absolute_class_map, spec)
    moves = Moves([None] * spec.r,
                  lambda _, j: array("i", map(cmap.__getitem__, nc.moves[j])))
    roots = [k for k, v in enumerate(cmap) if v == k]
    return [BraidOrbit(spec, o, nc.forms, moves) for o in
            orbit_arrays(roots, moves[-2:],
                         "braid orbit escaped the enumeration")]


def all_orbits(spec):
    """Partition of enumerate_tuples(spec) into braid orbits, in seed
    order; computed once per spec, so the list is shared and not to be
    changed."""
    return spec.memo(_orbits, spec)


def orbit_index(spec):
    """The orbit of each number of the inner class, as an array over the
    numbers: its place in all_orbits(spec), or -1 for a number in no
    orbit (a non-generating form; for an absolute spec, also a form that
    is not the least of its automorphism class).  Read through
    spec.memo, once per spec."""
    nc = spec.memo(nielsen.nielsen_class, spec.as_inner())
    return orbit_ids((o.nums for o in all_orbits(spec)), len(nc.forms))


def braidable(spec, braid_orbit, a):
    """Is the automorphism a realizable by a braid on this inner orbit of
    all_orbits(spec)?  Testing the seed alone suffices (conjugation
    commutes with braids): its image under a, canonicalized and numbered
    in the class, lies in the orbit or not."""
    h = spec.group
    T = h.tables()
    inner = spec.as_inner()
    nc = spec.memo(nielsen.nielsen_class, inner)
    if braid_orbit.forms is not nc.forms:
        raise ValueError("braidable reads orbits numbered by the class")
    seed = braid_orbit.nums[0]
    image = T.indices(a(T.els[x]) for x in nc.forms[seed])
    k = nc.forms.find(h.memo(canonizer, h)(image))
    ids = spec.memo(orbit_index, inner)
    return k >= 0 and ids[k] == ids[seed]


class ComponentLattice:
    def __init__(self, spec, inner_orbits, abs_orbits, covering, counts):
        self.spec = spec
        self.inner_orbits = inner_orbits
        self.abs_orbits = abs_orbits
        self.covering = covering      # inner orbit index -> abs orbit index
        self.counts = counts          # abs orbit index -> v

    def v(self, abs_index):
        return self.counts[abs_index]


def component_lattice(spec):
    """Inner orbits, absolute orbits, the covering between them, and the
    verified component count v = (N_T : N^br) per absolute orbit."""
    inner_spec = spec.as_inner()
    abs_spec = spec.as_absolute()
    inner_orbits = all_orbits(inner_spec)
    abs_orbits = all_orbits(abs_spec)
    cmap = spec.memo(nielsen.absolute_class_map, abs_spec)

    # each inner orbit lies over one absolute orbit, and merging the inner
    # orbits along cmap reproduces the absolute partition: every root of
    # an inner orbit lies in its one absolute orbit, and every number of
    # an absolute orbit is a root of some inner orbit
    abs_of = spec.memo(orbit_index, abs_spec)
    covering, hit = {}, bytearray(len(cmap))
    for j, o in enumerate(inner_orbits):
        images = set()
        for k in o.nums:
            root = cmap[k]
            images.add(abs_of[root] if root >= 0 else -1)
            hit[root] = 1
        if len(images) != 1 or -1 in images:
            raise ConsistencyError("inner orbit maps to %d absolute orbits"
                                   % len(images - {-1}))
        covering[j] = images.pop()
    for o in abs_orbits:
        if not all(map(hit.__getitem__, o.nums)):
            raise ConsistencyError("absolute orbits disagree with the "
                                   "inner-orbit merge")

    # v per absolute orbit, verified against braidable coset representatives
    h = spec.group
    reps = h.memo(automorphisms, h, spec.labels, spec.budget)[1]
    counts = []
    for i in range(len(abs_orbits)):
        above = [j for j in covering if covering[j] == i]
        v = len(above)
        o = inner_orbits[above[0]]
        nbraidable = sum(1 for a in reps if braidable(inner_spec, o, a))
        if reps and v * nbraidable != len(reps):
            raise ConsistencyError(
                "component count v=%d inconsistent with braidable index "
                "%d/%d" % (v, len(reps), nbraidable))
        counts.append(v)
    return ComponentLattice(spec, inner_orbits, abs_orbits, covering, counts)
