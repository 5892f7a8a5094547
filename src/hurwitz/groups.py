"""Finite group families used throughout: element arithmetic,
automorphism data, the tower steps of the parametrized families, and the
central extensions that feed the lift-invariant machinery.

Elements are plain (nested) tuples of ints, so they hash, compare and
serialize for free; each family supplies the tuple arithmetic.  The total
order on elements is the lexicographic order on these tuples -- canonical
forms downstream depend on it being stable.

A group's generic data is derived once, on element indices, by
`h.tables()`.  It numbers the elements by their position in the sorted
`h.elements()`, so index order is tuple order.  It picks the greedy
generators from its own right-multiplication columns, and grows each
conjugacy class from its least member by one BFS, which also records a
transporter onto that member.  It holds the product and conjugation
rows, inverses, class labels and transporters as plain lists; rows are
built on first use, each composed from a generator's row, so memory
tracks the rows a computation touches.  `gens`, `classes`, `class_of`,
`generates` and `center` read it, and the hot loops (enumeration,
canonical forms, the generation test once per braid orbit, braid and
automorphism moves) run on its indices.

Every orbit computation runs on the primitives defined here: `closure`
(BFS set), `orbit_arrays` (the orbits of move arrays, each a sorted array
of numbers, in order of their least member), `orbit_ids` (the orbit of
each number) and `cycles` (the cycles of a permutation).

A family says what the lift and the tower read of it: `cover()` is the
central extension the lift invariant is read in (None by default), and
`next_level()` and `reduce(g, parent)` step up and down its parametrized
tower (affine2 and dihedral).  The one cover construction is `Extension`:
the affine2 product on (c, (x, y)) plus a 2-cocycle on an appended
central coordinate, with the shape maps the lift reads.  Its two
instances, `heis2` over the order-2 family and `k22z3` over the order-3
one, are `make_group` families too, interned with the handle that
`Affine2.cover()` returns.

`PSL2(N)`, the group PSL_2(Z/N), is internal to the Wohlfahrt congruence
test in `reduced`; it is not a `make_group` family.
"""

from array import array
from functools import cache
from itertools import permutations, product
import math
from operator import itemgetter


class ConsistencyError(RuntimeError):
    """An internal oracle disagreed with a computed value.  Never caught."""


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------
# the orbit engine

def closure(start, moves):
    """The set reached from `start` by the maps in `moves` (BFS)."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for f in moves:
                y = f(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def orbit_arrays(items, moves, escaped):
    """The orbits of the move arrays `moves`, each an array over the
    numbers 0..n-1, on the sequence of numbers `items`: a BFS over the
    arrays that marks the numbers in a bytearray.  Each orbit is a sorted
    array('i'), and they come in order of their least member.  An image
    of -1, or an image outside `items`, raises ConsistencyError with the
    message `escaped`."""
    if not moves:
        return [array("i", [t]) for t in sorted(items)]
    n = len(moves[0])
    mark = bytearray(n)         # 1: in items, not reached; 2: reached
    for t in items:
        mark[t] = 1
    out = []
    try:
        for t in items:
            if mark[t] != 1:
                continue
            mark[t] = 2
            orbit = array("i", [t])
            for x in orbit:     # the queue grows as it is read
                for m in moves:
                    y = m[x]
                    if y < 0:
                        raise ConsistencyError(escaped)
                    s = mark[y]
                    if s == 1:
                        mark[y] = 2
                        orbit.append(y)
                    elif not s:
                        raise ConsistencyError(escaped)
            out.append(array("i", sorted(orbit)))
    except IndexError:
        raise ConsistencyError(escaped) from None
    out.sort(key=itemgetter(0))
    return out


def orbit_ids(orbits, n):
    """The place in `orbits` of the orbit holding each number, as an array
    over 0..n-1, with -1 for a number in none."""
    ids = array("i", [-1]) * n
    for i, o in enumerate(orbits):
        for k in o:
            ids[k] = i
    return ids


def cycles(perm, domain):
    """The cycles of the permutation `perm` (indexed by point) on
    `domain`, each a list starting at its first point in domain order."""
    seen = set()
    out = []
    for t in domain:
        if t not in seen:
            cyc = []
            x = t
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = perm[x]
            out.append(cyc)
    return out


class ConjClass:
    __slots__ = ("label", "rep", "members", "elem_order")

    def __init__(self, label, rep, members, elem_order):
        self.label = label
        self.rep = rep              # minimal member
        self.members = members      # frozenset
        self.elem_order = elem_order

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "ConjClass(%r, size=%d, order=%d)" % (
            self.label, len(self.members), self.elem_order)


MAX_ORDER = 10 ** 4


class Memo:
    """memo(fn, *args) is fn(*args), computed once per object."""

    def __init__(self):
        self._memo = {}

    def memo(self, fn, *args):
        key = (fn, args)
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]


class GroupHandle(Memo):
    family = None

    def __init__(self):
        super().__init__()
        self._inv = {}
        self._order_cache = {}

    def _check_enumerable(self):
        # element-level operations (elements/classes) only; pointwise
        # arithmetic stays available on larger groups (e.g. big covers)
        if self.order > MAX_ORDER:
            raise ValueError("group order %d exceeds limit %d"
                             % (self.order, MAX_ORDER))

    # -- families override these three --------------------------------
    def mul(self, a, b):
        raise NotImplementedError

    def _all_elements(self):
        raise NotImplementedError

    def to_spec(self):
        raise NotImplementedError

    # -- generic machinery --------------------------------------------
    def elements(self):
        if not hasattr(self, "_elements"):
            self._check_enumerable()
            self._elements = sorted(self._all_elements())
            if len(self._elements) != self.order:
                raise ConsistencyError("%s has %d elements, not its order %d"
                                       % (self.family, len(self._elements),
                                          self.order))
        return self._elements

    def elem_order(self, g):
        o = self._order_cache.get(g)
        if o is None:
            o, x = 1, g
            while x != self.identity:
                x = self.mul(x, g)
                o += 1
            self._order_cache[g] = o
        return o

    def inv(self, a):
        b = self._inv.get(a)
        if b is None:
            prev, x = self.identity, a
            while x != self.identity:
                prev, x = x, self.mul(x, a)
            b = prev      # a^(ord-1)
            self._inv[a] = b
            self._inv[b] = a
        return b

    def conj(self, g, h):
        """h g h^{-1}."""
        return self.mul(self.mul(h, g), self.inv(h))

    def power(self, g, n):
        n %= self.elem_order(g)
        x = self.identity
        for _ in range(n):
            x = self.mul(x, g)
        return x

    def gens(self):
        """A small generating set, found greedily in element order."""
        T = self.tables()
        return [T.els[g] for g in T.gens]

    def generates(self, elems):
        T = self.tables()
        return len(closure(T.e, [T.mul[T.index[g]].__getitem__
                                 for g in elems])) == self.order

    def classes(self):
        return self.tables().classes

    def class_of(self, g):
        T = self.tables()
        return T.classes[T.label[T.index[g]]]

    def _label_classes(self, raw):
        out = {}
        counts = {}
        for cl in raw:
            base = str(cl.elem_order)
            counts[base] = counts.get(base, 0) + 1
            label = base if counts[base] == 1 else "%s_%d" % (base, counts[base])
            cl.label = label
            out[label] = cl
        return out

    def center(self):
        return [g for g in self.elements() if len(self.class_of(g)) == 1]

    def tables(self):
        """The group's ElementTables, built on first use."""
        return self.memo(ElementTables, self)

    # -- automorphism data (families override) ------------------------
    def aut_gens(self):
        """Maps generating the normalizer action used for absolute
        equivalence; `automorphisms` takes the stabilizer of a class
        multiset.  By default every automorphism (|G| <= 500)."""
        return [m.__getitem__ for m in self.memo(_automorphism_maps, self)]

    def coset_rep_auts(self):
        """Maps making a complete family of coset representatives, used
        to verify the component count v of the inner->absolute
        covering."""
        return self.aut_gens()

    # -- the lift cover and the tower (families override) -------------
    def cover(self):
        """The central extension the lift invariant is read in, or None."""
        return None

    def next_level(self):
        """The next group of the parametrized family (k -> k+1)."""
        raise ValueError("no parametrized tower for family %r" % self.family)

    def reduce(self, g, parent):
        """The image of g in `parent`, a lower level of the tower."""
        raise ValueError("no parametrized tower for family %r" % self.family)

    # -- permutation representations ----------------------------------
    def stabilizer(self, T):
        """Point stabilizer for the named coset representation T."""
        if T == "regular":
            return [self.identity]
        raise ValueError("representation %r not available for %s" % (T, self.family))

    def coset_action_orbit_count(self, g, T):
        """(number of <g>-orbits on the cosets of stabilizer(T), number of
        cosets); g acts through its one `mul` row."""
        cosets, coset_of = self.memo(_cosets, self, T)
        E = self.tables()
        row = E.mul[E.index[g]]
        perm = [coset_of[row[c[0]]] for c in cosets]
        return len(cycles(perm, range(len(cosets)))), len(cosets)


def _cosets(h, T):
    """The cosets xH of H = h.stabilizer(T) on element indices, as the
    orbits of right multiplication by H's greedy generators; and the coset
    number of each element.  Read through h.memo, once per (group, T)."""
    E = h.tables()
    H = set(E.indices(h.stabilizer(T)))
    gens, span = [], {E.e}
    for x in sorted(H):
        if x not in span:
            gens.append(x)
            span = closure(E.e, [E.mul[g].__getitem__ for g in gens])
    if span != H:
        raise ConsistencyError("stabilizer(%r) is not a subgroup" % (T,))
    cosets = orbit_arrays(range(h.order), [E.right(g) for g in gens],
                          "coset escaped the group")
    return cosets, orbit_ids(cosets, h.order)


# ---------------------------------------------------------------------
# integer-indexed element tables

class _Rows(dict):
    """rows[c], a list over the element indices, built on first use: with
    c = x g_k in the Cayley tree, rows[c] = rows[x] o gen_rows[k].  That
    holds for left multiplication ((x g) b = x (g b)) and for conjugation
    (x g b g^-1 x^-1), so only the generators' rows cost group
    arithmetic."""

    def __init__(self, root, parent, gen_rows):
        super().__init__()
        self._parent = parent
        self._gen_rows = gen_rows
        self[root] = list(range(len(parent)))

    def __missing__(self, c):
        path = []
        while c not in self:
            path.append(c)
            c = self._parent[c][0]
        row = self[c]
        for y in reversed(path):
            row = list(map(row.__getitem__,
                           self._gen_rows[self._parent[y][1]]))
            self[y] = row
        return row


class ElementTables:
    """The group data on element indices, index i standing for `els[i]`
    of the sorted `h.elements()`, each derived here once: `mul[a][b]` is
    the index of a b, `conj[c][g]` that of c g c^-1 (rows built on first
    use), `inv[a]` that of a^-1, `gens` the greedy generators, `classes`
    the labelled ConjClasses, `label[a]` the label of a's class and
    `to_rep[a]` an element t with t a t^-1 the class representative."""

    def __init__(self, h):
        self.els = els = h.elements()
        self.index = index = {g: i for i, g in enumerate(els)}
        n = len(els)
        self.e = e = index[h.identity]

        def cayley(right):
            # the BFS tree from e over the columns right[k][x] = x g_k:
            # parent[y] = (x, k) with y = x g_k, in visiting order
            parent = [None] * n
            parent[e] = (e, None)
            tree = [e]
            for x in tree:
                for k, col in enumerate(right):
                    y = col[x]
                    if parent[y] is None:
                        parent[y] = (x, k)
                        tree.append(y)
            return parent, tree

        # greedy generators in element order: each one the least element
        # outside the span of those before it
        self.gens, right = [], []
        parent, tree = cayley(right)
        for g in range(n):
            if parent[g] is None:
                self.gens.append(g)
                right.append([index[h.mul(x, els[g])] for x in els])
                parent, tree = cayley(right)
        gens = [els[g] for g in self.gens]
        # (x g)^-1 = g^-1 x^-1
        left_ginv = [[index[h.mul(h.inv(g), b)] for b in els] for g in gens]
        self.inv = inv = [None] * n
        inv[e] = e
        for y in tree[1:]:
            x, k = parent[y]
            inv[y] = left_ginv[k][inv[x]]
        self.mul = _Rows(e, parent,
                         [[index[h.mul(g, b)] for b in els] for g in gens])
        self.conj = _Rows(e, parent,
                          [[index[h.conj(b, g)] for b in els] for g in gens])
        # each class grown from its least member by one BFS: with
        # x = g y g^-1, y's transporter is x's times g
        moves = [(self.conj[inv[g]], col) for g, col in zip(self.gens, right)]
        self.to_rep = to_rep = [None] * n
        number = [None] * n     # element -> its class's place in raw
        raw = []
        for rep in range(n):
            if number[rep] is None:
                number[rep] = len(raw)
                to_rep[rep] = e
                members = [rep]
                for x in members:
                    for ginv_conj, col in moves:
                        y = ginv_conj[x]
                        if number[y] is None:
                            number[y] = len(raw)
                            to_rep[y] = col[to_rep[x]]
                            members.append(y)
                raw.append(ConjClass("?", els[rep],
                                     frozenset(map(els.__getitem__, members)),
                                     h.elem_order(els[rep])))
        self.classes = h._label_classes(raw)
        self.label = [raw[c].label for c in number]

    def indices(self, entries):
        return tuple(map(self.index.__getitem__, entries))

    def right(self, g):
        """Right multiplication by g as an array over the element indices:
        x g = (g^-1 x^-1)^-1, from the one `mul` row of g^-1."""
        inv, row = self.inv, self.mul[self.inv[g]]
        return array("i", [inv[row[inv[x]]] for x in range(len(inv))])


# ---------------------------------------------------------------------
# permutation families

def _pmul(p, q):
    # (p*q)(i) = p(q(i)) : apply q first
    return tuple(p[i] for i in q)


def _cycle_type(p):
    return tuple(sorted((len(c) for c in cycles(p, range(len(p)))),
                        reverse=True))


def _parity(p):
    return sum(l - 1 for l in _cycle_type(p)) % 2


class PermGroup(GroupHandle):
    def __init__(self, n, even_only):
        self.n = n
        self.even_only = even_only
        self.identity = tuple(range(n))
        self.order = math.factorial(n) // (2 if even_only else 1)
        super().__init__()

    def mul(self, a, b):
        return _pmul(a, b)

    def inv(self, a):
        out = [0] * self.n
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def _all_elements(self):
        ps = permutations(range(self.n))
        if self.even_only:
            return [p for p in ps if _parity(p) == 0]
        return list(ps)

    def _label_classes(self, raw):
        # cycle-type labels; classes that split in A_n get +/- suffixes,
        # "+" on the one holding the smaller minimal representative.
        by_type = {}
        for cl in raw:
            t = _cycle_type(cl.rep)
            key = ".".join(str(l) for l in t if l > 1) or "1"
            by_type.setdefault(key, []).append(cl)
        out = {}
        for key, cls in sorted(by_type.items()):
            if len(cls) == 1:
                cls[0].label = key
            elif len(cls) == 2:
                cls.sort(key=lambda c: c.rep)
                cls[0].label = key + "+"
                cls[1].label = key + "-"
            else:
                raise ConsistencyError("cycle type %s in >2 classes" % key)
            for cl in cls:
                out[cl.label] = cl
        return out

    def stabilizer(self, T):
        if T == "natural":
            return [p for p in self.elements() if p[0] == 0]
        return super().stabilizer(T)


class Alternating(PermGroup):
    family = "alternating"

    def __init__(self, n):
        super().__init__(n, even_only=True)

    def to_spec(self):
        return {"family": "alternating", "n": self.n}

    def aut_gens(self):
        t = (1, 0) + tuple(range(2, self.n))
        return [lambda g: _pmul(_pmul(t, g), t)]

    def coset_rep_auts(self):
        return [lambda g: g] + self.aut_gens()


class Symmetric(PermGroup):
    family = "symmetric"

    def __init__(self, n):
        super().__init__(n, even_only=False)

    def to_spec(self):
        return {"family": "symmetric", "n": self.n}

    def aut_gens(self):
        return []

    def coset_rep_auts(self):
        return [lambda g: g]


# ---------------------------------------------------------------------
# dihedral

class Dihedral(GroupHandle):
    """D_m = Z/m x| Z/2, elements (eps, t) with (e1,t1)(e2,t2) =
    (e1+e2, (-1)^e2 t1 + t2) -- Eq.-style (n1 n2, m1^{n2} m2)."""

    family = "dihedral"

    def __init__(self, m):
        self.m = m
        self.identity = (0, 0)
        self.order = 2 * m
        super().__init__()

    def mul(self, a, b):
        (e1, t1), (e2, t2) = a, b
        return ((e1 + e2) % 2, ((t1 if e2 == 0 else -t1) + t2) % self.m)

    def _all_elements(self):
        return [(e, t) for e in (0, 1) for t in range(self.m)]

    def to_spec(self):
        return {"family": "dihedral", "m": self.m}

    def _label_classes(self, raw):
        out = {}
        for cl in raw:
            e, t = cl.rep
            if e == 1:
                # reflections; for odd m a single class
                label = "2" if "2" not in out else "2_%d" % t
            elif t == 0:
                label = "1"
            else:
                label = "rot%d" % t
            cl.label = label
            out[label] = cl
        return out

    def _unit_maps(self, bs):
        return [lambda g, b=b: (g[0], (b * g[1]) % self.m) for b in bs]

    def aut_gens(self):
        return self._unit_maps(unit_gens(self.m))

    def coset_rep_auts(self):
        units = [b for b in range(1, self.m) if math.gcd(b, self.m) == 1]
        return self._unit_maps(units)

    def stabilizer(self, T):
        if T == "involution-cosets":
            return [(0, 0), (1, 0)]
        return super().stabilizer(T)

    def next_level(self):
        p = min(q for q in range(2, self.m + 1) if self.m % q == 0)
        return make_group({"family": "dihedral", "m": self.m * p})

    def reduce(self, g, parent):
        e, t = g
        return (e, t % parent.m)


def unit_gens(m):
    """Generators of (Z/m)^x: the least unit of largest order (the least
    primitive root, where one exists), then each unit outside the span
    of those before it."""
    units = [b for b in range(1, m) if math.gcd(b, m) == 1]
    if not units:
        return []           # m = 1: the trivial unit group

    def span(gens):
        return closure(1, [lambda x, g=g: x * g % m for g in gens])
    gens, seen = [], set()
    for b in [max(units, key=lambda b: len(span([b])))] + units:
        if b not in seen:
            gens.append(b)
            seen = span(gens)
    return gens


# ---------------------------------------------------------------------
# affine families  (Z/ell^{k+1})^2 x| Z/2 or Z/3

A_STAR = ((0, -1), (1, -1))     # order 3, left action on column vectors


def _matvec(M, v, L):
    return ((M[0][0] * v[0] + M[0][1] * v[1]) % L,
            (M[1][0] * v[0] + M[1][1] * v[1]) % L)


def _matmul(M, N, L):
    return tuple(tuple(sum(M[i][t] * N[t][j] for t in range(2)) % L
                       for j in range(2)) for i in range(2))


class Affine2(GroupHandle):
    family = "affine2"

    def __init__(self, ell, k, aut_order):
        if aut_order not in (2, 3):
            raise ValueError("aut order must be 2 or 3")
        self.ell = ell
        self.k = k
        self.L = ell ** (k + 1)
        self.aut_order = aut_order
        self.identity = (0, (0, 0))
        self.order = aut_order * self.L ** 2
        if aut_order == 3:
            I = ((1, 0), (0, 1))
            self._apow = [I]
            for _ in range(2):
                self._apow.append(_matmul(A_STAR, self._apow[-1], self.L))
            if _matmul(A_STAR, self._apow[2], self.L) != tuple(
                    tuple(x % self.L for x in row) for row in I):
                raise ConsistencyError("A* does not have order 3")
        super().__init__()

    def _act(self, c, v):
        """A^c v (A = -1 for order 2, A = A* for order 3)."""
        if self.aut_order == 2:
            return v if c % 2 == 0 else ((-v[0]) % self.L, (-v[1]) % self.L)
        return _matvec(self._apow[c % 3], v, self.L)

    def mul(self, a, b):
        (c1, v1), (c2, v2) = a, b
        w = self._act(-c2 % self.aut_order, v1)
        return ((c1 + c2) % self.aut_order,
                ((w[0] + v2[0]) % self.L, (w[1] + v2[1]) % self.L))

    def _all_elements(self):
        R = range(self.L)
        return [(c, (x, y)) for c in range(self.aut_order) for x in R for y in R]

    def to_spec(self):
        return {"family": "affine2", "ell": self.ell, "k": self.k,
                "order": self.aut_order}

    def _label_classes(self, raw):
        out = {}
        for cl in raw:
            c, v = cl.rep
            if self.aut_order == 3 and c == 1 and v == (0, 0):
                cl.label = "C+"
            elif self.aut_order == 3 and c == 2 and v == (0, 0):
                cl.label = "C-"
            elif self.aut_order == 2 and c == 1 and v == (0, 0):
                cl.label = "2"
            elif cl.rep == self.identity:
                cl.label = "1"
            else:
                cl.label = "c%d|%d,%d" % (c, v[0], v[1])
            out[cl.label] = cl
        return out

    def _vec_maps(self, mats, twists=()):
        """Automorphisms (c,v) -> (c, Mv) for M in mats, and class-swapping
        (c,v) -> (-c, Nv) for N in twists."""
        L, o = self.L, self.aut_order
        return ([lambda g, M=M: (g[0], _matvec(M, g[1], L)) for M in mats] +
                [lambda g, N=N: ((-g[0]) % o, _matvec(N, g[1], L))
                 for N in twists])

    def aut_gens(self):
        if self.aut_order == 2:
            b = unit_gens(self.L)[0] if self.ell != 2 else 1
            return self._vec_maps([((1, 1), (0, 1)), ((1, 0), (1, 1)),
                                   ((b, 0), (0, b))])
        # centralizer units x + y*A of A*, plus the A <-> A^2 swap
        return self._vec_maps(self._za_unit_gens(), twists=[((0, 1), (1, 0))])

    def coset_rep_auts(self):
        if self.aut_order == 2:
            # scalar coset reps of the braidable part, per the normalizer
            # action b:(a,a') -> b(a,a')
            return self._vec_maps(
                [((b, 0), (0, b))
                 for b in range(1, self.L) if math.gcd(b, self.ell) == 1])
        units = self._za_units()
        return self._vec_maps(units, twists=[_matmul(((0, 1), (1, 0)), M,
                                                     self.L) for M in units])

    def _za_units(self):
        """The matrices x + y*A* with a unit determinant."""
        I = ((1, 0), (0, 1))
        out = []
        for x in range(self.L):
            for y in range(self.L):
                M = tuple(tuple((x * I[i][j] + y * A_STAR[i][j]) % self.L
                                for j in range(2)) for i in range(2))
                det = (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % self.L
                if math.gcd(det, self.ell) == 1:
                    out.append(M)
        return out

    def _za_unit_gens(self):
        units = self._za_units()
        I = ((1, 0), (0, 1))

        gens, span = [], {I}
        for M in units:
            if M not in span:
                gens.append(M)
                span = closure(I, [lambda X, g=g: _matmul(X, g, self.L)
                                   for g in gens])
                if len(span) == len(set(units)):
                    break
        return gens

    def stabilizer(self, T):
        if T == "involution-cosets" and self.aut_order == 2:
            return [self.identity, (1, (0, 0))]
        if T == "alpha-cosets" and self.aut_order == 3:
            return [(c, (0, 0)) for c in range(3)]
        return super().stabilizer(T)

    def cover(self):
        return self.memo(_affine_cover, self)

    def next_level(self):
        return make_group({"family": "affine2", "ell": self.ell,
                           "k": self.k + 1, "order": self.aut_order})

    def reduce(self, g, parent):
        c, v = g
        return (c, (v[0] % parent.L, v[1] % parent.L))


# ---------------------------------------------------------------------
# the central extensions of the affine families: the lift covers

def _affine_cover(h):
    """The cover of the affine2 group h: heis2 over the order-2 family,
    k22z3 over the order-3 one, the handle that make_group interns for
    that spec.  Read through h.memo."""
    if h.aut_order == 2:
        if h.ell == 2:
            raise ValueError("heis2 lifts need ell odd (division by 2)")
        family = "heis2"
    else:
        if h.ell == 3:
            raise ValueError("k22z3 lifts need ell != 3 (ell' condition)")
        family = "k22z3"
    return make_group({"family": family, "ell": h.ell, "k": h.k})


class Extension(GroupHandle):
    """The central extension of an affine2 group `base` by Z/L, L =
    ell^{k+1}: elements (c, (x, y, u)) over (c, (x, y)), multiplied by the
    affine2 law on (c, (x, y)) plus a 2-cocycle f on the central
    coordinate u,

        (c1, v1, u1) (c2, v2, u2) = (c1 + c2, w + v2, u1 + u2 + f),
        w = A^-c2 v1.

    heis2, over the order-2 family (A = -1): f = w0 y2, the Heisenberg
    group of M(a, a', w) with the sign acting by (a, a') -> (-a, -a').
    k22z3, over the order-3 family (A = A*): the standard forms x^m y^n w^u
    with y x = x y w, extended by the order-3 map alpha: x -> y -> (xy)^-1
    that lifts A*; f is the shift of u by alpha^-c2, plus w1 x2, plus for
    ell = 2 the quaternion-type carry s (floor((w0 + x2)/L) + floor((w1 +
    y2)/L)) that compatibility with alpha forces, 3s = L/2 mod L (k = 0
    gives SL(2,3)); odd ell needs no carry.

    The extension is the cover the lift invariant is read in, through its
    shape maps `project`, `section`, `central`, `offset` and
    `central_part`.  `unit` fixes the generator of the kernel that lift
    values are read against (values scale by a unit under that choice),
    chosen so the closed-form invariants come out in lowest terms:
    a(a3'-a2') for heis2 involution tuples, m^2+n^2-mn for k22z3 order-3
    triples.  The lift reads only pointwise arithmetic, never the
    element list, so a cover may pass MAX_ORDER."""

    def __init__(self, base):
        self.base = base
        self.ell, self.k, self.L = base.ell, base.k, base.L
        self.identity = (0, (0, 0, 0))
        self.order = base.aut_order * self.L ** 3
        if base.aut_order == 2:
            self.family, self.unit = "heis2", -2 % self.L
            self.cocycle = self._heis2
        else:
            self.family, self.unit = "k22z3", -1 % self.L
            self.cocycle = self._k22z3
            self.carry = ((self.L // 2) * pow(3, -1, self.L) % self.L
                          if self.ell == 2 else 0)
        super().__init__()

    def mul(self, a, b):
        (c1, (x1, y1, u1)), (c2, (x2, y2, u2)) = a, b
        L = self.L
        w = self.base._act(-c2, (x1, y1))
        return ((c1 + c2) % self.base.aut_order,
                ((w[0] + x2) % L, (w[1] + y2) % L,
                 (u1 + u2 + self.cocycle(c2, x1, y1, w, x2, y2)) % L))

    def _heis2(self, c2, x1, y1, w, x2, y2):
        return w[0] * y2

    def _k22z3(self, c2, m, n, w, x2, y2):
        # alpha(x^m y^n w^u) = y^m (xy)^-n w^u, put in standard form: each
        # step with n != 0 shifts u by this polynomial in the (m, n) it
        # starts from
        L, s = self.L, self.carry
        f = w[1] * x2
        if s:
            f += s * ((w[0] + x2) // L + (w[1] + y2) // L)
        for _ in range(-c2 % 3):
            if n:
                f += n * (n + 1) // 2 - m * n - 2 * s + (s if m >= n else 0)
            m, n = -n % L, (m - n) % L
        return f

    def _all_elements(self):
        R = range(self.L)
        return [(c, (x, y, u)) for c in range(self.base.aut_order)
                for x in R for y in R for u in R]

    def to_spec(self):
        return {"family": self.family, "ell": self.ell, "k": self.k}

    # -- the cover's shape maps ---------------------------------------
    def project(self, ghat):
        c, k = ghat
        return (c, (k[0], k[1]))

    def section(self, g):
        c, v = g
        return (c, (v[0], v[1], 0))

    def central(self, u):
        return (0, (0, 0, u % self.L))

    def offset(self, ghat):
        """The u with ghat = section(project(ghat)) central(u)."""
        return ghat[1][2]

    def central_part(self, ghat):
        c, k = ghat
        if (c, (k[0], k[1])) != self.base.identity:
            raise ValueError("element is not central over the identity")
        return k[2]


# ---------------------------------------------------------------------
# factory / serialization

_GROUPS = {}


def make_group(spec):
    """spec: dict like {"family":"affine2","ell":5,"k":0,"order":3}.
    Groups are interned by spec, so every caller shares one handle and its
    element, class and canonicalization caches."""
    if not isinstance(spec, dict):
        raise TypeError("group spec must be a mapping, not %r" % (spec,))
    key = tuple(sorted(spec.items()))
    h = _GROUPS.get(key)
    if h is None:
        h = _GROUPS.setdefault(key, _build_group(spec))
    return h


def _build_group(spec):
    fam = spec["family"]
    least = {"ell": 2, "k": 0, "m": 1, "n": 2 if fam == "alternating" else 1}
    for field, low in least.items():
        if field in spec and spec[field] < low:
            raise ValueError("%s needs %s >= %d, not %r"
                             % (fam, field, low, spec[field]))
    # the ell-adic families, whose lifts hold for a prime ell only
    if fam in ("affine2", "heis2", "k22z3"):
        ell = spec["ell"]
        if any(ell % p == 0 for p in range(2, math.isqrt(ell) + 1)):
            raise ValueError("%s needs ell prime, not %r" % (fam, ell))
    if fam == "alternating":
        return Alternating(spec["n"])
    if fam == "symmetric":
        return Symmetric(spec["n"])
    if fam == "dihedral":
        return Dihedral(spec["m"])
    if fam == "affine2":
        return Affine2(spec["ell"], spec["k"], spec["order"])
    if fam in ("heis2", "k22z3"):
        return Extension(make_group({"family": "affine2", "ell": spec["ell"],
                                     "k": spec["k"],
                                     "order": 2 if fam == "heis2" else 3}))
    raise ValueError("unsupported family %r" % fam)


def cen_in_Sn(h, T):
    """Cen_{S_n}(G) for the coset representation T, computed as
    N_G(G(1))/G(1).  Returns the quotient order (1 means trivial)."""
    H = frozenset(h.stabilizer(T))
    norm = [g for g in h.elements()
            if frozenset(h.conj(x, g) for x in H) == H]
    q, r = divmod(len(norm), len(H))
    if r:
        raise ConsistencyError("|N_G(H)| not divisible by |H|")
    return q


# ---------------------------------------------------------------------
# generic automorphism fallback (|G| <= 500)

def _automorphism_maps(h):
    if h.order > 500:
        raise ValueError("no built-in automorphism data and |G|=%d > 500"
                         % h.order)
    gens = h.gens()
    orders = [h.elem_order(g) for g in gens]
    sizes = [len(h.class_of(g).members) for g in gens]
    candidates = []
    for i, g in enumerate(gens):
        candidates.append([x for x in h.elements()
                           if h.elem_order(x) == orders[i]
                           and len(h.class_of(x).members) == sizes[i]])
    auts = []
    for images in product(*candidates):
        m = _extend_hom(h, gens, images)
        if m is not None:
            auts.append(m)
    return auts


def _extend_hom(h, gens, images):
    """Extend gens->images to a homomorphism by closure; None on conflict."""
    e = h.identity
    m = {e: e}
    frontier = [(e, e)]
    while frontier:
        new = []
        for x, fx in frontier:
            for g, fg in zip(gens, images):
                y, fy = h.mul(x, g), h.mul(fx, fg)
                if y in m:
                    if m[y] != fy:
                        return None
                else:
                    m[y] = fy
                    new.append((y, fy))
        frontier = new
    if len(m) != h.order or len(set(m.values())) != h.order:
        return None
    return m


def automorphisms(h, labels, budget):
    """(gens, reps, orbit): the normalizer action on the labelled class
    multiset `labels`, the one place it is derived; read through h.memo.
    `gens` generate the stabilizer of the multiset in the group of
    `h.aut_gens()`, each an array('i') permutation of the element indices:
    by Schreier's lemma, a BFS over the orbit of the multiset keeps one
    transversal permutation t_x per orbit point x, and each point x and
    generator s give t_y^-1 s t_x, with y = s(x), less the identity and
    repeats.  `orbit` is that orbit, the frozenset of sorted label tuples.
    `reps` are the maps of `h.coset_rep_auts()` that fix the multiset;
    they stay maps, since a caller applies each one to a few tuples only.
    Raises BudgetExceeded once orbit points x generators x |G| passes
    `budget`."""
    T = h.tables()
    rep = {lab: T.index[cl.rep] for lab, cl in T.classes.items()}

    def image(ms, f):
        # the multiset ms under f, a map on the element indices
        return tuple(sorted(T.label[f(rep[lab])] for lab in ms))

    maps = h.aut_gens()
    base = tuple(sorted(labels))
    ident = array("i", range(h.order))
    moves = [array("i", [T.index[a(g)] for g in T.els]) for a in maps]
    transversal = {base: (ident, ident)}    # point -> (t, t^-1)
    points = [base]
    gens = {}
    for x in points:        # the queue grows as it is read
        if len(points) * len(maps) * h.order > budget:
            raise BudgetExceeded(
                "the stabilizer of the class multiset: %d orbit points x "
                "%d generators x |G| %d exceeds the budget %d"
                % (len(points), len(maps), h.order, budget))
        t = transversal[x][0]
        for s in moves:
            st = array("i", map(s.__getitem__, t))
            y = image(x, s.__getitem__)
            if y not in transversal:
                inv = array("i", ident)
                for i, j in enumerate(st):
                    inv[j] = i
                transversal[y] = (st, inv)
                points.append(y)
                continue
            g = array("i", map(transversal[y][1].__getitem__, st))
            if g != ident:
                gens.setdefault(g.tobytes(), g)
    reps = [a for a in h.coset_rep_auts()
            if image(base, lambda x: T.index[a(T.els[x])]) == base]
    return list(gens.values()), reps, frozenset(points)


# ---------------------------------------------------------------------
# the unique same-order lift

def central_lift(cover, g):
    """The unique lift of g with the same order (order coprime to ell)."""
    d = cover.base.elem_order(g)
    if math.gcd(d, cover.ell) != 1:
        raise ValueError("order %d not coprime to %d" % (d, cover.ell))
    ghat = cover.section(g)
    t = cover.central_part(cover.power(ghat, d))
    corr = (-t * pow(d, -1, cover.L)) % cover.L
    lift = cover.mul(ghat, cover.central(corr))
    if cover.elem_order(lift) != d or cover.project(lift) != g:
        raise ConsistencyError("same-order lift failed for %r" % (g,))
    return lift


# ---------------------------------------------------------------------
# PSL2(Z/N), and the orders of GL2/SL2/PSL2 over Z/N

class PSL2(GroupHandle):
    """PSL_2(Z/N): determinant-1 matrices (a, b, c, d) mod N, each stored
    as the lesser of M and -M.  Internal to Wohlfahrt's congruence test,
    so not a make_group family; `elements()` checks its count against
    gl_orders."""

    def __init__(self, N):
        self.N = N
        self.identity = (1, 0, 0, 1)
        self.order = gl_orders(N)[2]
        super().__init__()

    def _norm(self, x):
        a, b, c, d = x
        N = self.N
        return min(x, (-a % N, -b % N, -c % N, -d % N))

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        N = self.N
        return self._norm(((a * e + b * g) % N, (a * f + b * h) % N,
                           (c * e + d * g) % N, (c * f + d * h) % N))

    def _all_elements(self):
        N = self.N
        return {self._norm(x) for x in product(range(N), repeat=4)
                if (x[0] * x[3] - x[1] * x[2]) % N == 1}


@cache
def gl_orders(N):
    """(|GL2|, |SL2|, |PSL2|) over Z/N by CRT + prime-power counting;
    cross-checked against matrix brute force for N <= 12.  Computed once
    per N."""
    if N < 2:
        raise ValueError("N >= 2 required")
    gl = sl = 1
    M = N
    p = 2
    while M > 1:
        if M % p == 0:
            e = 0
            while M % p == 0:
                M //= p
                e += 1
            gl *= p ** (4 * e - 3) * (p - 1) * (p * p - 1)
            sl *= p ** (3 * e - 2) * (p * p - 1)
        p += 1
    psl = sl // (2 if N > 2 else 1)
    if N <= 12:
        bg, bs = _gl_brute(N)
        if (bg, bs) != (gl, sl):
            raise ConsistencyError("gl_orders(%d) CRT %s vs brute %s"
                                   % (N, (gl, sl), (bg, bs)))
    return gl, sl, psl


def _gl_brute(N):
    units = {a for a in range(N) if math.gcd(a, N) == 1}
    gl = sl = 0
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    det = (a * d - b * c) % N
                    if det in units:
                        gl += 1
                        if det == 1:
                            sl += 1
    return gl, sl
