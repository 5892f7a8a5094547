"""Nielsen tuples: the inner canonical form, the numbered Nielsen class
with its braid-move arrays and braid orbits, the absolute class map,
Riemann-Hurwitz cover genus, and the pure-cycle reduction.

A tuple is a NielsenTuple(labels, entries): `labels[i]` is the class
label of `entries[i]`.  Braids permute the labels along with the entries,
so tuples over a class multiset with repeats keep their position->class
assignment intact.  Inside the class, a form is its number: its place in
NielsenTuple order among the canonical index tuples.  The class keeps its
forms in `Forms`, r columns of element indices and an index of the
blocks of numbers that share a head, with no Python object per form.

The inner canonical form rests on one per-class record, `_centralizer`:
the centralizer of the class representative as conjugation rows on the
element indices, and the rule that takes a pinned tuple to its least
conjugate under it.  The enumeration, the canonizer, sh and q_{r-1} read
it.  The canonical forms are generated directly, least first, with no
canonicalization, one head block at a time: the forms that share the
entries before the last two and the label of entry r-1.  The class is
built block by block too.  sh moves each shifted form onto its pinned
entry by a transporter fixed per block and applies the record's rule;
q_{r-1} keeps each form's canonical head and minimizes over that head's
stabilizer; and the other twists follow from those two arrays when they
are first read.  A map that commutes with the braid moves (an
automorphism, the reduction to the tower level below) is canonicalized
at one form per braid orbit and carried over the rest along the move
arrays of q_{r-1} and sh by `transport`.
"""

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import chain, product, permutations, repeat
from typing import NamedTuple

from .groups import (Memo, make_group, ConsistencyError, BudgetExceeded,
                     automorphisms, orbit_arrays, cycles)


class NielsenTuple(NamedTuple):
    labels: tuple
    entries: tuple


DEFAULT_BUDGET = 10 ** 8


class NielsenSpec(Memo):
    """A Nielsen class: group, class labels, equivalence, coset action T,
    budget.  Its memo, shared with its twin, holds what is derived from it."""

    def __init__(self, group, labels, equivalence="inner", T=None,
                 budget=DEFAULT_BUDGET):
        super().__init__()
        self._twin = None
        self.group = group
        self.labels = tuple(labels)
        if equivalence not in ("inner", "absolute"):
            raise ValueError("equivalence must be inner or absolute")
        self.equivalence = equivalence
        self.T = T
        self.r = len(self.labels)
        if self.r < 3:
            raise ValueError("need r >= 3 classes")
        classes = group.classes()
        for lab in self.labels:
            if lab not in classes:
                raise ValueError("no class labelled %r in %s (have %s)"
                                 % (lab, group.family, sorted(classes)))
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.budget = budget

    def as_inner(self):
        return self if self.equivalence == "inner" else self._get_twin()

    def as_absolute(self):
        return self if self.equivalence == "absolute" else self._get_twin()

    def _get_twin(self):
        """The other equivalence's spec: made once, linked both ways."""
        if self._twin is None:
            other = "absolute" if self.equivalence == "inner" else "inner"
            self._twin = NielsenSpec(self.group, self.labels, other, self.T,
                                     self.budget)
            self._twin._twin = self
            self._twin._memo = self._memo
        return self._twin

    def aut_gens(self):
        """The generators of the stabilizer of the class multiset, as
        permutations of the element indices (groups.automorphisms)."""
        return self.group.memo(automorphisms, self.group, self.labels,
                               self.budget)[0]

    def to_json(self):
        return {"group": self.group.to_spec(), "classes": list(self.labels),
                "equivalence": self.equivalence, "T": self.T}

    @classmethod
    def from_json(cls, d, budget=DEFAULT_BUDGET):
        return cls(make_group(d["group"]), d["classes"],
                   d.get("equivalence", "inner"), d.get("T"), budget)

    def __repr__(self):
        return "NielsenSpec(%s, %s, %s)" % (
            self.group.to_spec(), list(self.labels), self.equivalence)


# ---------------------------------------------------------------------
# canonical forms on element indices (see groups.ElementTables)

def _centralizer(h, label):
    """(rep, rows, least) of the class `label`: its representative as an
    element index; the distinct conjugation rows of the noncentral
    elements z of its centralizer C, the z with rep z = z rep (the
    central ones, the identity among them, conjugate trivially); and
    least(e), the least conjugate under C of an index tuple e whose entry
    1 is rep.  That conjugate first minimizes entry 2, so least applies
    the one row of C that does, or under a tie (the stabilizer of entry 2
    in C acts nontrivially) takes the least of the tied rows' images, and
    gives e itself when the identity's row is the one.  The enumeration,
    the canonizer, sh and the last twist read it through h.memo, once per
    class."""
    T = h.tables()
    rep = T.index[h.classes()[label].rep]
    distinct = {}   # a conjugation row is fixed by its images of the gens
    for z, (zr, rz) in enumerate(zip(T.mul[rep], T.right(rep))):
        if zr == rz and len(T.classes[T.label[z]]) > 1:
            row = T.conj[z]
            distinct.setdefault(tuple(map(row.__getitem__, T.gens)), row)
    rows = list(distinct.values())
    ident = T.conj[T.e]
    single, ties = [], {}   # per element: its one row, or None and ties
    for x, m in enumerate(map(min, ident, *rows) if rows else ident):
        tied = [row for row in (ident, *rows) if row[x] == m]
        single.append(tied[0] if len(tied) == 1 else None)
        if len(tied) > 1:
            ties[x] = tied

    def least(e):
        row = single[e[1]]
        if row is ident:
            return e
        if row is None:
            return min([tuple(map(row.__getitem__, e)) for row in ties[e[1]]])
        return tuple(map(row.__getitem__, e))
    return rep, rows, least


def canonizer(h):
    """The inner canonical form on index tuples: the minimum over all
    conjugations, found by moving entry 1 onto its class representative
    by its transporter `T.to_rep` and taking the least conjugate under
    that representative's centralizer by the `least` of _centralizer.
    Any transporter will do, since they form one coset C(rep) t.  Index
    order is element order, so this is the minimum of the element tuples
    too.  Read through h.memo: the one canonicalization of the group."""
    T = h.tables()
    conj, label, transporter = T.conj, T.label, T.to_rep
    records = {}    # label -> its _centralizer record

    def canon(e):
        lab = label[e[0]]
        d = records.get(lab)
        if d is None:
            d = records[lab] = h.memo(_centralizer, h, lab)
        to_rep = conj[transporter[e[0]]]
        if to_rep[e[0]] != d[0]:
            raise ConsistencyError("canonical form lost its pinned entry")
        return d[2](tuple(map(to_rep.__getitem__, e)))
    return canon


def from_indices(T, e):
    """The NielsenTuple of the index tuple e, on the shared elements."""
    return NielsenTuple(tuple(map(T.label.__getitem__, e)),
                        tuple(map(T.els.__getitem__, e)))


def inner_canonical(spec, t):
    """Minimum over all conjugations of t (labels kept)."""
    h = spec.group
    T = h.tables()
    best = h.memo(canonizer, h)(T.indices(t.entries))
    return NielsenTuple(t.labels, tuple(map(T.els.__getitem__, best)))


# ---------------------------------------------------------------------
# enumeration


def index_moves(T, r):
    """q_1..q_{r-1} and sh on index tuples: q_i is (a, b) -> (a b a^-1, a)
    at positions i, i+1."""
    conj = T.conj

    def twist(j):
        return lambda e: e[:j] + (conj[e[j]][e[j + 1]], e[j]) + e[j + 2:]
    return [twist(j) for j in range(r - 1)] + [lambda e: e[1:] + e[:1]]


def _orderings(spec, free):
    """The orderings of the class labels, once the raw tuple count (the
    classes `free` chosen freely in each ordering) is within spec.budget."""
    orderings = sorted(set(permutations(spec.labels)))
    raw = len(orderings)
    for lab in free:
        raw *= len(spec.group.classes()[lab].members)
    if raw > spec.budget:
        raise BudgetExceeded("raw tuple count %d exceeds budget %d"
                             % (raw, spec.budget))
    return orderings


def _orderly_forms(spec):
    """The inner canonical forms of the product-one tuples, each once and
    in NielsenTuple order, with no canonicalization.  A canonical form
    pins its first entry to the class representative and is the least
    tuple under conjugation by that representative's centralizer C, and
    a tuple is least iff each entry is least in its orbit under the
    stabilizer in C of the entries before it (a smaller conjugate would
    first differ at an entry its conjugator's prefix fixes).  So each
    middle entry runs over those least members, in order, and once the
    stabilizer is trivial the rest run free; the last entry is the
    inverse of the product, which the stabilizer of the rest fixes.
    The forms come one head block at a time, as (prefix, xs, tails): the
    entries before the last two, then the increasing entries r-1 of the
    block and their entries r, so no tuple per form is built."""
    h = spec.group
    classes = h.classes()
    T = h.tables()
    mul, inv, label = T.mul, T.inv, T.label
    for ordering in _orderings(spec, spec.labels[1:-1]):
        pin, stab, _ = h.memo(_centralizer, h, ordering[0])
        mids = [sorted(T.indices(classes[lab].members))
                for lab in ordering[1:-1]]
        xs_all, last = mids[-1], ordering[-1]
        # ok[y]: the inverse of y lies in the last class
        ok = bytes(label[inv[y]] == last for y in range(len(inv)))

        def block(prefix, p, stab):
            # entries r-1 and r after `prefix` of product p
            row = mul[p]
            xs = [x for x in xs_all if ok[row[x]]]
            if stab:
                xs = [x for x in xs if all(s[x] >= x for s in stab)]
            if xs:
                yield prefix, xs, [inv[row[x]] for x in xs]

        def extend(head, p, stab, i):
            # entry i of mids, under the stabilizer rows `stab` of head
            if i == len(mids) - 1:
                yield from block(head, p, stab)
            elif not stab:
                # the rest of the prefix runs free
                for combo in product(*mids[i:-1]):
                    q = p
                    for g in combo:
                        q = mul[q][g]
                    yield from block(head + combo, q, stab)
            else:
                for x in mids[i]:
                    if all(row[x] >= x for row in stab):
                        yield from extend(
                            head + (x,), mul[p][x],
                            [row for row in stab if row[x] == x], i + 1)
        yield from extend((pin,), pin, stab, 0)


class Forms(Sequence):
    """A numbering of canonical index tuples, number -> tuple, kept as r
    columns of element indices with no Python object per form.  `heads`
    maps each head, the entries before the last two and the label of
    entry r-1, to its block (lo, hi) of numbers.  In NielsenTuple order a
    block is one run of numbers in which entry r-1 strictly increases and
    fixes entry r by product-one, so `find` bisects entry r-1 inside the
    block and checks the last two columns: a tuple's number, or -1.
    Indexing decodes a number to its tuple; iterating zips the columns."""

    def __init__(self, T, r, blocks):
        """`blocks`: (prefix, xs, tails) per head block, in NielsenTuple
        order, as _orderly_forms yields them, read once."""
        code = "H" if len(T.els) < 1 << 16 else "I"
        self.cols = cols = [array(code) for _ in range(r)]
        self.heads = heads = {}
        label = T.label
        lo = 0
        for prefix, xs, tails in blocks:
            key = (*prefix, label[xs[0]])
            if key in heads:
                raise ConsistencyError("forms out of NielsenTuple order")
            hi = lo + len(xs)
            heads[key] = lo, hi
            lo = hi
            for c, v in zip(cols, prefix):
                c.fromlist([v] * len(xs))
            cols[-2].fromlist(xs)
            cols[-1].fromlist(tails)
        mid, end = cols[-2], cols[-1]

        def find(e):
            x = e[-2]
            block = heads.get(e[:-2] + (label[x],))
            if block is None:
                return -1
            lo, hi = block
            k = bisect_left(mid, x, lo, hi)
            return k if k < hi and mid[k] == x and end[k] == e[-1] else -1
        # a closure, so that a hot loop pays one call per lookup
        self.find = find

    def __len__(self):
        return len(self.cols[0])

    def __getitem__(self, k):
        return tuple([c[k] for c in self.cols])

    def __iter__(self):
        return zip(*self.cols)

    def rows(self, nums):
        """The tuples of the numbers `nums`, in their iteration order."""
        return zip(*[map(c.__getitem__, nums) for c in self.cols])


class Moves(Sequence):
    """The move arrays of a numbering, for q_1..q_{r-1} and sh.  `made`
    holds the arrays built so far and None for the rest; make(moves, j)
    builds move j when it is first read.  `inverse(j)` is the inverse
    array of move j: those given in `inverses` (move index -> array), the
    rest made by _check_permutation when first read."""

    def __init__(self, made, make, inverses=()):
        self.made = made
        self._make = make
        self._inverses = dict(inverses)

    def __len__(self):
        return len(self.made)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self.made)))]
        m = self.made[j]
        if m is None:
            m = self.made[j] = self._make(self, j % len(self.made))
        return m

    def inverse(self, j):
        j %= len(self.made)
        inv = self._inverses.get(j)
        if inv is None:
            inv = self._inverses[j] = _check_permutation(self[j], "move %d"
                                                         % j)
        return inv


def _check_permutation(row, what):
    """The inverse of the move array `row`, which must be a permutation of
    the numbers: a -1 (an image outside the enumeration) is rejected
    before any composition reads it, since array[-1] would wrap, and a
    number hit twice leaves another unhit, a -1 in the inverse, which
    means a form duplicated, missing or not canonical."""
    if -1 in row:
        raise ConsistencyError("braid orbit escaped the enumeration")
    inverse = array("i", [-1]) * len(row)
    for k, v in enumerate(row):
        inverse[v] = k
    if -1 in inverse:
        raise ConsistencyError("%s is not a permutation of the enumerated "
                               "forms" % what)
    return inverse


class NielsenClass(NamedTuple):
    """The numbered inner class of nielsen_class: every product-one form
    (generating or not), packed, and looked up by `forms.find`; the braid
    moves as permutations of the numbers, of which q_{r-1} and sh are
    built with the class and the other twists when first read; and the
    generating braid orbits."""
    forms: Forms        # number -> canonical index tuple, packed
    moves: Moves        # per q_1..q_{r-1} and sh, a permutation of numbers
    orbits: list        # the generating braid orbits, sorted arrays of
                        # numbers in order of their least member


def _last_twist(h, forms):
    """q_{r-1} as an array over the numbers of `forms`, with no
    canonicalization.  The twist keeps a form's head e[:r-2], which is
    least in its orbit under the centralizer C of the pinned entry (see
    _orderly_forms).  So the canonical image is the least conjugate under
    the stabilizer of the head in C, whose rows fix the head and leave the
    twisted pair to compare; with none, the image is already canonical.
    Per block of `forms`, those rows are found once, and the images lie in
    the one block of the head with the label of the last entry, where they
    are bisected."""
    T = h.tables()
    conj, label = T.conj, T.label
    heads, mid, end = forms.heads, forms.cols[-2], forms.cols[-1]
    out = array("i")
    for key, (lo, hi) in heads.items():
        head = key[:-1]
        cen_rows = h.memo(_centralizer, h, label[head[0]])[1]
        rows = [row for row in cen_rows if all(row[y] == y for y in head[1:])]
        tlo, thi = heads.get(head + (label[end[lo]],), (0, 0))
        for x, y in zip(mid[lo:hi], end[lo:hi]):
            # the twisted pair (z, x), and its least conjugate (u, w)
            u = z = conj[x][y]
            w = x
            for row in rows:
                if (row[z], row[x]) < (u, w):
                    u, w = row[z], row[x]
            k = bisect_left(mid, u, tlo, thi)
            out.append(k if k < thi and mid[k] == u and end[k] == w else -1)
    return out


def _shift(h, forms):
    """sh as an array over the numbers of `forms`, canonicalized block by
    block.  The shifted form (e_2, .., e_r, e_1) is moved onto the pinned
    entry by the transporter of e_2, which for r >= 4 is fixed in a head
    block and for r = 3 is kept per value of e_2, and the pinned-entry
    check runs once per transporter.  Then the `least` of _centralizer
    gives its least conjugate, and `forms.find` its number."""
    T = h.tables()
    conj, label, transporter = T.conj, T.label, T.to_rep
    find, mid, end = forms.find, forms.cols[-2], forms.cols[-1]
    pinned = {}     # e_2 -> its transporter's row, and least

    def pin(x):
        to_rep = conj[transporter[x]]
        rep, _, least = h.memo(_centralizer, h, label[x])
        if to_rep[x] != rep:
            raise ConsistencyError("canonical form lost its pinned entry")
        return to_rep, least
    out = array("i")
    append = out.append
    for key, (lo, hi) in forms.heads.items():
        prefix = key[:-1]
        xs = mid[lo:hi]
        seconds = xs if len(prefix) == 1 else repeat(prefix[1], hi - lo)
        e2 = None
        for x, y, z in zip(xs, end[lo:hi], seconds):
            if z != e2:
                e2 = z
                d = pinned.get(z)
                if d is None:
                    d = pinned[z] = pin(z)
                to_rep, least = d
                # the transported prefix after e_2, and e_1
                rest = tuple(map(to_rep.__getitem__, prefix[1:]))
                first = to_rep[prefix[0]]
            append(find(least((*rest, to_rep[x], to_rep[y], first))))
    return out


def nielsen_class(spec):
    """The numbered inner NielsenClass of spec.  The canonical forms of the
    product-one tuples come from _orderly_forms, numbered in NielsenTuple
    order, so an orbit's least number is its seed, and are packed into
    Forms block by block.  sh is read off _shift and q_{r-1} off
    _last_twist, both per head block.  They generate the Hurwitz
    monodromy group, so the orbits are theirs, and the class keeps just
    those two arrays: sh q_{j+1} sh^-1 = q_j on tuples and braid moves
    commute with conjugation, so the other twists follow downward,
    q_j[k] = sh[q_{j+1}[sh^-1[k]]], exactly on the numbers, each when it
    is first read.  A braid move keeps the generated subgroup and a
    conjugation conjugates it, so generation is tested on one form per
    orbit.  Callers read it through spec.memo with the inner spec, once
    per spec and shared by the twins."""
    h = spec.group
    T = h.tables()
    forms = Forms(T, spec.r, _orderly_forms(spec))
    shift = _shift(h, forms)
    last = _last_twist(h, forms)
    r = spec.r
    inverses = {r - 2: _check_permutation(last, "q_%d" % (r - 1)),
                r - 1: _check_permutation(shift, "sh")}

    def twist(moves, j):
        q = moves[j + 1]
        return array("i", [shift[q[u]] for u in moves.inverse(-1)])
    moves = Moves([None] * (r - 2) + [last, shift], twist, inverses)
    orbits = orbit_arrays(range(len(forms)), [last, shift],
                          "braid orbit escaped the enumeration")
    return NielsenClass(forms, moves, [
        o for o in orbits
        if h.generates([T.els[i] for i in forms[o[0]]])])


def enumerate_tuples(spec):
    """All canonical representatives of the Nielsen class, sorted: the
    members of the generating braid orbits of nielsen_class, or for an
    absolute spec their images under the absolute class map."""
    nc = spec.memo(nielsen_class, spec.as_inner())
    nums = [k for o in nc.orbits for k in o]
    if spec.equivalence == "absolute":
        cmap = spec.memo(absolute_class_map, spec)
        nums = set(map(cmap.__getitem__, nums))
    T = spec.group.tables()
    return [from_indices(T, e) for e in nc.forms.rows(sorted(nums))]


def transport(nums, direct, source, target, escaped):
    """The map `direct` (a number -> the number of its image) on the braid
    orbit `nums`, a sorted array, for a map that commutes with the braid
    moves: `direct` at the orbit's least number, carried over the orbit
    by a BFS along the paired move arrays, img[m[x]] = m'[img[x]] for
    each (m, m') of zip(source, target), and checked by `direct` once
    more at the orbit's largest number.  Returns {number: image}.  A
    negative image raises ConsistencyError with the message `escaped`; so
    do two paths giving one form different images, a BFS that reaches
    other numbers than `nums` and a failed check."""
    seed = nums[0]
    img = {seed: direct(seed)}
    if img[seed] < 0:
        raise ConsistencyError(escaped)
    pairs = list(zip(source, target))
    frontier = [seed]
    for x in frontier:
        for m, m2 in pairs:
            y, v = m[x], m2[img[x]]
            if y not in img:
                img[y] = v
                frontier.append(y)
            elif img[y] != v:
                raise ConsistencyError("transported map does not commute "
                                       "with the braid moves")
    check = nums[-1]
    if (len(img) != len(nums) or not all(map(img.__contains__, nums))
            or img[check] != direct(check)):
        raise ConsistencyError("transported map disagrees with its direct "
                               "canonicalization")
    return img


def absolute_class_map(spec):
    """The absolute class map of the absolute spec, as an array over the
    numbers of its inner class: a generating form's number -> the least
    number of its component under the stabilizer of the class multiset
    (its absolute form), -1 for the non-generating forms.  An automorphism
    commutes with the braid moves, so each generator is canonicalized at
    one form per inner orbit and transported over the rest.  Callers
    read it through spec.memo, once per spec."""
    h = spec.group
    nc = spec.memo(nielsen_class, spec.as_inner())
    canon = h.memo(canonizer, h)
    moves = (nc.moves[-2], nc.moves[-1])
    table = []
    for p in spec.aut_gens():
        def direct(k):
            return nc.forms.find(canon(tuple(map(p.__getitem__,
                                                 nc.forms[k]))))
        row = array("i", [-1]) * len(nc.forms)
        for o in nc.orbits:
            for k, v in transport(o, direct, moves, moves, "automorphism "
                                  "orbit left the enumeration").items():
                row[k] = v
        table.append(row)
    cmap = array("i", [-1]) * len(nc.forms)
    for o in orbit_arrays(array("i", chain.from_iterable(nc.orbits)), table,
                          "automorphism orbit left the enumeration"):
        rep = o[0]
        for k in o:
            cmap[k] = rep
    return cmap


# ---------------------------------------------------------------------
# Riemann-Hurwitz

def cover_genus(spec):
    """Genus from 2(n+g-1) = sum ind(g_i); T-cover via the coset action
    of spec.T, Galois cover via T='regular' (n = |G|)."""
    h = spec.group
    if spec.T is None:
        raise ValueError("spec has no representation T")
    n = None
    total = 0
    for lab in spec.labels:
        rep = h.classes()[lab].rep
        orbits, pts = h.coset_action_orbit_count(rep, spec.T)
        if n is None:
            n = pts
        total += pts - orbits
    if total % 2:
        raise ConsistencyError("odd index sum %d" % total)
    g = total // 2 - n + 1
    if g < 0:
        raise ConsistencyError("negative genus %d" % g)
    return g


# ---------------------------------------------------------------------
# pure-cycle reduction for alternating groups

def pure_cycle_reduce(spec):
    """Replace each class by the pure cycles of its disjoint-cycle
    decomposition (odd cycles only, so the generated group stays A_n);
    asserts the T-cover genus is unchanged."""
    h = spec.group
    if h.family != "alternating":
        raise ValueError("pure-cycle reduction needs an alternating group")
    new_labels = []
    for lab in spec.labels:
        rep = h.classes()[lab].rep
        for cyc in _cycles_as_perms(rep, h.n):
            ln = sum(1 for i, j in zip(cyc, range(h.n)) if i != j)
            if ln % 2 == 0:
                raise ValueError("even cycle of length %d: the pure-cycle "
                                 "closure is S_n, not A_n" % ln)
            new_labels.append(h.class_of(cyc).label)
    out = NielsenSpec(h, new_labels, spec.equivalence, spec.T, spec.budget)
    if spec.T is not None and cover_genus(out) != cover_genus(spec):
        raise ConsistencyError("pure-cycle reduction changed the genus")
    return out


def _cycles_as_perms(p, n):
    out = []
    for cyc in cycles(p, range(n)):
        if len(cyc) > 1:
            perm = list(range(n))
            for j in cyc:
                perm[j] = p[j]
            out.append(tuple(perm))
    return out
