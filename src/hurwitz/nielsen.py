"""Nielsen tuples: the product-one/generation predicate, inner and
absolute canonical forms, pinned enumeration, Riemann-Hurwitz cover
genus, and HM/DI shape detection.

A tuple is a NielsenTuple(labels, entries): `labels[i]` is the class
label of `entries[i]`.  Braids permute the labels along with the entries,
so tuples over a class multiset with repeats keep their position->class
assignment intact.
"""

from itertools import product, permutations
from typing import NamedTuple

from .groups import (Memo, make_group, ConsistencyError, BudgetExceeded,
                     closure, partition, cycles)


class NielsenTuple(NamedTuple):
    labels: tuple
    entries: tuple


class NielsenSpec(Memo):
    """A Nielsen class: group, class labels, equivalence and coset action
    T.  Its memo, shared with its twin, holds what is derived from it."""

    def __init__(self, group, labels, equivalence="inner", T=None):
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

    def as_inner(self):
        return self if self.equivalence == "inner" else self._get_twin()

    def as_absolute(self):
        return self if self.equivalence == "absolute" else self._get_twin()

    def _get_twin(self):
        """The other equivalence's spec: made once, linked both ways."""
        if self._twin is None:
            other = "absolute" if self.equivalence == "inner" else "inner"
            self._twin = NielsenSpec(self.group, self.labels, other, self.T)
            self._twin._twin = self
            self._twin._memo = self._memo
        return self._twin

    def aut_gens(self):
        return self.group.memo(self.group.aut_gens, self.labels)

    def key(self):
        return (tuple(sorted(self.group.to_spec().items())), self.labels,
                self.equivalence, self.T)

    def to_json(self):
        return {"group": self.group.to_spec(), "classes": list(self.labels),
                "equivalence": self.equivalence, "T": self.T}

    @classmethod
    def from_json(cls, d):
        return cls(make_group(d["group"]), d["classes"],
                   d.get("equivalence", "inner"), d.get("T"))

    def __repr__(self):
        return "NielsenSpec(%s, %s, %s)" % (
            self.group.to_spec(), list(self.labels), self.equivalence)


# ---------------------------------------------------------------------
# per-(group, label) canonicalization data

def _class_data(h, label):
    """(rep, transporter, centralizer of rep) for the class `label`; read
    through h.memo, so it is built once per group."""
    cl = h.classes()[label]
    rep = cl.rep
    # transporter[x] = t with t x t^{-1} = rep, by BFS from rep
    transporter = {rep: h.identity}
    frontier = [rep]
    gens = h.gens()
    while frontier:
        new = []
        for x in frontier:
            tx = transporter[x]
            for g in gens:
                y = h.conj(x, h.inv(g))      # x = g y g^{-1}
                if y not in transporter:
                    transporter[y] = h.mul(tx, g)
                    new.append(y)
        frontier = new
    if len(transporter) != len(cl.members):
        raise ConsistencyError("transporter misses class members")
    return rep, transporter, h.centralizer(rep)


def is_nielsen(spec, t):
    h = spec.group
    classes = h.classes()
    if len(t.entries) != spec.r or sorted(t.labels) != sorted(spec.labels):
        return False
    for lab, g in zip(t.labels, t.entries):
        if g not in classes[lab].members:
            return False
    p = h.identity
    for g in t.entries:
        p = h.mul(p, g)
    if p != h.identity:
        return False
    return h.generates(list(t.entries))


def inner_canonical(spec, t):
    """Minimum over all conjugations; computed by moving entry 1 onto its
    class representative and minimizing over the (small) centralizer."""
    h = spec.group
    rep, transporter, cen = h.memo(_class_data, h, t.labels[0])
    c = transporter[t.entries[0]]
    base = tuple(h.conj(g, c) for g in t.entries)
    best = base
    for z in cen:
        cand = tuple(h.conj(g, z) for g in base)
        if cand < best:
            best = cand
    if best[0] != rep:
        raise ConsistencyError("canonical form lost its pinned entry")
    return NielsenTuple(t.labels, best)


def apply_aut(spec, a, t):
    """Automorphism on a tuple: map entries, recompute labels, and return
    the inner canonical form."""
    h = spec.group
    entries = tuple(a(g) for g in t.entries)
    labels = tuple(h.class_of(g).label for g in entries)
    return inner_canonical(spec, NielsenTuple(labels, entries))


def _aut_moves(spec):
    return [lambda t, a=a: apply_aut(spec, a, t) for a in spec.aut_gens()]


def absolute_canonical(spec, t):
    """Min over the closure of the inner form under the automorphism
    generators (the same value the orbit machinery assigns)."""
    return min(closure(inner_canonical(spec, t), _aut_moves(spec)))


def canonical(spec, t):
    if spec.equivalence == "inner":
        return inner_canonical(spec, t)
    return absolute_canonical(spec, t)


# ---------------------------------------------------------------------
# enumeration

DEFAULT_BUDGET = 10 ** 8


def enumerate_tuples(spec, budget=DEFAULT_BUDGET):
    """All canonical representatives of the Nielsen class.  Inner forms
    are produced by pinning the first entry to its class representative
    (every tuple is conjugate to a pinned one); absolute forms glue the
    inner ones along the automorphism generators."""
    h = spec.group
    classes = h.classes()
    orderings = sorted(set(permutations(spec.labels)))
    raw = len(orderings)
    for lab in spec.labels[1:-1]:
        raw *= len(classes[lab].members)
    if raw > budget:
        raise BudgetExceeded("raw tuple count %d exceeds budget %d"
                             % (raw, budget))

    forms = set()
    for ordering in orderings:
        cls = [classes[lab] for lab in ordering]
        pin, _, _ = h.memo(_class_data, h, ordering[0])
        mids = [sorted(c.members) for c in cls[1:-1]]
        last = cls[-1].members
        for combo in product(*mids):
            p = pin
            for g in combo:
                p = h.mul(p, g)
            tail = h.inv(p)
            if tail not in last:
                continue
            entries = (pin,) + combo + (tail,)
            if not h.generates(list(entries)):
                continue
            forms.add(inner_canonical(spec, NielsenTuple(ordering, entries)))
    if spec.equivalence == "inner":
        return sorted(forms)
    return sorted(set(absolute_class_map(spec, sorted(forms)).values()))


def absolute_class_map(spec, inner_forms):
    """inner canonical form -> absolute canonical form (min of its
    automorphism-closure component), over a complete set of inner forms."""
    cmap = {}
    for o in partition(inner_forms, _aut_moves(spec),
                       "automorphism orbit left the enumeration"):
        rep = min(o)
        cmap.update(dict.fromkeys(o, rep))
    return cmap


def unpinned_enumerate(spec, budget=DEFAULT_BUDGET):
    """Oracle: brute enumeration without first-entry pinning (small specs
    only); must agree with enumerate_tuples."""
    h = spec.group
    classes = h.classes()
    orderings = sorted(set(permutations(spec.labels)))
    raw = len(orderings)
    for lab in spec.labels[:-1]:
        raw *= len(classes[lab].members)
    if raw > budget:
        raise BudgetExceeded("raw tuple count %d exceeds budget %d"
                             % (raw, budget))
    forms = set()
    for ordering in orderings:
        cls = [classes[lab] for lab in ordering]
        last = cls[-1].members
        for combo in product(*[sorted(c.members) for c in cls[:-1]]):
            p = h.identity
            for g in combo:
                p = h.mul(p, g)
            tail = h.inv(p)
            if tail not in last:
                continue
            entries = combo + (tail,)
            if not h.generates(list(entries)):
                continue
            forms.add(canonical(spec, NielsenTuple(ordering, entries)))
    return sorted(forms)


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
# shapes

def hm_detect(spec, t):
    """(g1, g1^{-1}, g2, g2^{-1}, ...) in consecutive pairs."""
    h = spec.group
    if len(t.entries) % 2:
        return False
    return all(t.entries[i + 1] == h.inv(t.entries[i])
               for i in range(0, len(t.entries), 2))


def di_detect(spec, t, di_class=None):
    """Double-identity shape (g1, g2, g1, g4); when di_class is given,
    positions 2 and 4 must carry that label."""
    if len(t.entries) != 4:
        return False
    if t.entries[0] != t.entries[2]:
        return False
    if di_class is not None:
        return t.labels[1] == di_class and t.labels[3] == di_class
    return t.labels[1] == t.labels[3]


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
    out = NielsenSpec(h, new_labels, spec.equivalence, spec.T)
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
