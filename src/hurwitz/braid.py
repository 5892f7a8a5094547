"""The Hurwitz-monodromy action on Nielsen classes: twists q_i and the
shift sh, braid-orbit BFS over canonical forms, the braidable-
automorphism test, and the inner/absolute component lattice."""

from .groups import ConsistencyError, closure, partition
from .nielsen import (NielsenTuple, canonical, absolute_class_map,
                      apply_aut, nielsen_class, form_table, index_moves,
                      DEFAULT_BUDGET)


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


def q_untwist(spec, i, t):
    """Inverse twist: (a, b) -> (b, b^{-1} a b)."""
    h = spec.group
    j = i - 1
    e, l = list(t.entries), list(t.labels)
    a, b = e[j], e[j + 1]
    e[j], e[j + 1] = b, h.conj(a, h.inv(b))
    l[j], l[j + 1] = l[j + 1], l[j]
    return NielsenTuple(tuple(l), tuple(e))


def sh(spec, t):
    """Left shift (g_1,...,g_r) -> (g_2,...,g_r,g_1)."""
    return NielsenTuple(t.labels[1:] + t.labels[:1],
                        t.entries[1:] + t.entries[:1])


def braid_moves(spec):
    moves = [lambda t, i=i: q_twist(spec, i, t) for i in range(1, spec.r)]
    moves.append(lambda t: sh(spec, t))
    return moves


class BraidOrbit:
    """One braid orbit.  `moves` is the move table: for each map of
    braid_moves(spec), a dict from every form (at least every member) to
    the form its move lands on."""

    def __init__(self, spec, members, moves):
        self.spec = spec
        self.members = frozenset(members)
        self.seed = min(members)
        self.size = len(self.members)
        self.moves = moves

    def __repr__(self):
        return "BraidOrbit(size=%d, seed=%s)" % (self.size, (self.seed,))

    def __eq__(self, other):
        return self.members == other.members

    def __hash__(self):
        return hash(self.members)


def orbit(spec, seed):
    """Braid orbit of a canonical seed (BFS under q_i, sh, re-canonicalized
    after every move); its move table records each move the BFS makes."""
    if canonical(spec, seed) != seed:
        raise ValueError("seed is not canonical")
    table = [{} for _ in range(spec.r)]
    moves = [lambda t, m=m, d=d: d.setdefault(t, canonical(spec, m(t)))
             for m, d in zip(braid_moves(spec), table)]
    return BraidOrbit(spec, closure(seed, moves), table)


def braid_orbits(spec, forms, cmap=None):
    """The braid orbits on `forms`, a set of inner forms closed under the
    braid moves, in seed order.  Each move is applied once per form, on
    element indices, and its canonical image is mapped back to the form
    object in `forms`; the orbits share this move table.  Given an
    absolute class map `cmap`, the forms are its absolute forms and each
    move lands on the cmap image of its inner form."""
    h = spec.group
    T = h.tables()
    index_of = {t: T.indices(t.entries) for t in forms}
    target = None
    if cmap is not None:
        form_of = {t: t for t in forms}
        target = {T.indices(t.entries): form_of.get(a)
                  for t, a in cmap.items()}
    # an image outside `forms` is None, which partition reports as escaped
    table = form_table(h, index_of, index_moves(T, spec.r), target)
    return [BraidOrbit(spec, o, table) for o in
            partition(forms, [d.get for d in table],
                      "braid orbit escaped the enumeration")]


def _orbits(spec, budget):
    """(cmap, the braid orbits of spec), read through spec.memo; cmap is
    the absolute class map of the inner forms, None for an inner spec.
    The twins share the inner Nielsen class and its move table."""
    orbits, table = spec.memo(nielsen_class, spec.as_inner(), budget)
    if spec.equivalence == "inner":
        return None, [BraidOrbit(spec, o, table) for o in orbits]
    cmap = absolute_class_map(spec, [t for o in orbits for t in o])
    return cmap, braid_orbits(spec, set(cmap.values()), cmap)


def all_orbits(spec, budget=DEFAULT_BUDGET):
    """Partition of enumerate_tuples(spec) into braid orbits, in seed
    order; computed once per (spec, budget), so the list is shared and
    not to be changed."""
    return spec.memo(_orbits, spec, budget)[1]


def braidable(spec, braid_orbit, a):
    """Is the automorphism a realizable by a braid on this inner orbit?
    Testing the seed alone suffices (conjugation commutes with braids)."""
    return apply_aut(spec, a, braid_orbit.seed) in braid_orbit.members


class ComponentLattice:
    def __init__(self, spec, inner_orbits, abs_orbits, covering, v_data):
        self.spec = spec
        self.inner_orbits = inner_orbits
        self.abs_orbits = abs_orbits
        self.covering = covering      # inner orbit index -> abs orbit index
        self.v_data = v_data          # abs orbit index -> dict

    def v(self, abs_index):
        return self.v_data[abs_index]["v"]


def component_lattice(spec, budget=DEFAULT_BUDGET):
    """Inner orbits, absolute orbits, the covering between them, and the
    verified component count v = (N_T : N^br) per absolute orbit."""
    inner_spec = spec.as_inner()
    inner_orbits = all_orbits(inner_spec, budget)
    cmap, abs_orbits = spec.memo(_orbits, spec.as_absolute(), budget)

    abs_of_form = {}
    for i, o in enumerate(abs_orbits):
        for t in o.members:
            abs_of_form[t] = i

    covering = {}
    for j, o in enumerate(inner_orbits):
        images = {abs_of_form[cmap[t]] for t in o.members}
        if len(images) != 1:
            raise ConsistencyError("inner orbit maps to %d absolute orbits"
                                   % len(images))
        covering[j] = images.pop()

    # cross-check: merging inner orbits along cmap reproduces the direct
    # absolute partition
    merged = {}
    for j, o in enumerate(inner_orbits):
        merged.setdefault(covering[j], set()).update(cmap[t] for t in o.members)
    for i, o in enumerate(abs_orbits):
        if merged.get(i) != set(o.members):
            raise ConsistencyError("absolute orbits disagree with the "
                                   "inner-orbit merge")

    # v per absolute orbit, verified against braidable coset representatives
    reps = spec.group.coset_rep_auts(spec.labels)
    v_data = {}
    for i in range(len(abs_orbits)):
        above = [j for j in covering if covering[j] == i]
        v = len(above)
        o = inner_orbits[above[0]]
        nbraidable = sum(1 for a in reps if braidable(inner_spec, o, a))
        if reps and v * nbraidable != len(reps):
            raise ConsistencyError(
                "component count v=%d inconsistent with braidable index "
                "%d/%d" % (v, len(reps), nbraidable))
        v_data[i] = {"v": v, "inner_above": above,
                     "coset_reps": len(reps), "braidable": nbraidable}
    return ComponentLattice(spec, inner_orbits, abs_orbits, covering, v_data)
