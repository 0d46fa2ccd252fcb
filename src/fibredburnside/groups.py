"""Finite groups as explicit Cayley tables, with the elementary machinery
built on top: subgroups, quotients, homomorphisms, automorphisms, double
cosets and a small-groups catalog.

Element convention: elements of a group of order n are the indices
0..n-1, with 0 always the identity.  The group law is held once, as the
rows of ``FiniteGroup.table``; every product is read off a row.
Conjugation is ``^g x = g x g^-1`` and ``x^g = g^-1 x g`` throughout.  A
subgroup is the tuple ``(parent, elements, mask)``: its elements
ascending and their bitmask; ``check_subgroup`` validates one given from
outside.  The domain of a homomorphism is a subgroup, a group standing
for its full subgroup, and the homomorphism is the tuple of the images
of its domain's elements in ascending order; ``check_homomorphism``
validates one given from outside.

All values are immutable after construction, and every operation is a
pure function of its arguments.  Derived data lives in the memo of the
youngest group it is keyed by (:func:`memoized`), so it dies with that
group, and keeps the older ones alive until then.  Only the builders
keyed by integers are cached for the process, and their groups count as
the oldest of all; a group derived from others (a product, a quotient,
a subgroup as a group) is as young as the youngest of them.

The enumerations of subgroups, homomorphisms and automorphisms, and group
specs, refuse orders above ``SUBGROUP_ORDER_BOUND``, and the catalog
stops at ``CATALOG_MAX_ORDER``.  Both are module constants, not
parameters; the enumeration functions read the bound at call time, so it
is set in one place.  The bound limits nothing else: a table given from
outside is validated by the public constructor whatever its order, and
product, quotient and subgroup tables, derived from validated groups, are
trusted at any order (the test suite holds them to references).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "GroupError",
    "GroupSpecError",
    "BoundExceededError",
    "FiniteGroup",
    "Subgroup",
    "check_subgroup",
    "ProductEmbedding",
    "AutomorphismData",
    "cyclic",
    "dihedral",
    "quaternion8",
    "symmetric",
    "alternating4",
    "dicyclic",
    "group_from_spec",
    "check_homomorphism",
    "product_embedding",
    "subgroups",
    "center",
    "frattini",
    "homomorphisms",
    "automorphisms",
    "quotient",
    "subgroup_as_group",
    "double_coset_representatives",
    "isomorphism",
    "small_groups_catalog",
]

SUBGROUP_ORDER_BOUND = 64
CATALOG_MAX_ORDER = 15


class GroupError(Exception):
    """Base error for group construction and queries."""


class GroupSpecError(GroupError):
    """Malformed or unsupported group spec string."""


class BoundExceededError(GroupError):
    """An enumeration was requested beyond the configured order bound."""


# ---------------------------------------------------------------------------
# core types


_serials = itertools.count()


def memoized(fn):
    """Memoize ``fn`` in the ``_memo`` of the youngest group among its
    arguments, a subgroup as first argument standing for its parent, so
    that the entry dies with that group: ``_memo`` maps the wrapper to a
    dict from argument tuples to values.  Youth is ``_serial``: a group
    from a builder cached for the process has the least, so no entry about
    a group that can be dropped is stored in it, and of two groups of one
    serial the earlier argument holds the entry.  Its key and value hold
    the older groups: a dropped group is freed once every younger group
    it met in a memoized call is dropped too.  A call with no argument
    has no owner, and goes to ``fn`` uncached."""

    @functools.wraps(fn)
    def cached(*args):
        if not args:
            return fn()
        owner = args[0]
        if type(owner) is Subgroup:
            owner = owner.parent
        for arg in args:
            if type(arg) is FiniteGroup and arg._serial > owner._serial:
                owner = arg
        try:
            return owner._memo[cached][args]
        except KeyError:
            pass
        return owner._memo.setdefault(cached, {}).setdefault(args, fn(*args))

    return cached


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Instances compare by identity (two structurally equal tables are still
    distinct groups); use :func:`isomorphism` for mathematical comparison.
    Instances are immutable after construction.  Derived data (generators,
    element orders, conjugation, subgroups, homomorphisms, ...) lives in
    the ``_memo`` of the youngest group it is keyed by, ``_serial`` telling
    which (see :func:`memoized`), so a dropped group takes its entries with
    it.
    """

    __slots__ = ("order", "table", "inverses", "labels", "name", "_memo",
                 "_serial")

    def __init__(self, table, labels=None, name=None):
        rows = tuple(tuple(row) for row in table)
        # an entry like 0.7 or "1" is rejected, never truncated or parsed
        if any(type(x) is not int for row in rows for x in row):
            raise GroupError("table entries must be integers")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(rows):
                raise GroupError("labels length does not match order")
        self._setup(rows, labels, name, next(_serials), validate=True)

    @classmethod
    def _from_rows(cls, rows: tuple, labels, name,
                   serial: int) -> "FiniteGroup":
        """A group on rows that are already tuples of ints and labels that
        are already a tuple of strings, derived here (products, quotients,
        subgroups) from validated groups, with the largest ``_serial`` of
        those.  Such a table is trusted at any order, with none of the
        public constructor's checks: ``SUBGROUP_ORDER_BOUND`` limits
        enumerations and specs only, and the test suite holds derived
        tables to references."""
        self = cls.__new__(cls)
        self._setup(rows, labels, name, serial, validate=False)
        return self

    def _setup(self, rows, labels, name, serial, validate):
        self._memo = {}
        self._serial = serial
        n = len(rows)
        self.order = n
        self.table = rows
        self.name = name or f"group{n}"
        self.labels = labels
        if validate:
            self._validate()
        inv = [-1] * n
        for a in range(n):
            b = rows[a].index(0)
            inv[a] = b
        self.inverses = tuple(inv)

    def _validate(self):
        n = self.order
        table = self.table
        if n <= 0:
            raise GroupError("group must be nonempty")
        if any(len(row) != n or min(row) < 0 or max(row) >= n
               for row in table):
            raise GroupError("table entries out of range")
        columns = list(zip(*table))
        for a in range(n):
            if len(set(table[a])) != n:
                raise GroupError(f"row {a} is not a permutation")
            if len(set(columns[a])) != n:
                raise GroupError(f"column {a} is not a permutation")
        if any(table[0][a] != a or table[a][0] != a for a in range(n)):
            raise GroupError("element 0 does not act as identity")
        # Light's test: the g with (xg)y = x(gy) for all x, y contain 0
        # and are closed under products, and right multiplication by a
        # generating sequence reaches every element from 0, so checking
        # the generators checks the whole table; for each x the row of
        # xg is compared with row x permuted by row g
        for g in self.generators():
            row_g = table[g]
            for row_x in table:
                if table[row_x[g]] != tuple(map(row_x.__getitem__, row_g)):
                    raise GroupError("table is not associative")

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @memoized
    def generators(self) -> tuple:
        """A small generating set of the whole group, computed once."""
        return tuple(_generating_sequence(self, range(self.order)))

    def element_order(self, a: int) -> int:
        return self._element_orders()[a]

    @memoized
    def _element_orders(self) -> tuple:
        orders = []
        for x, row in enumerate(self.table):
            k, y = 1, x
            while y:
                y = row[y]
                k += 1
            orders.append(k)
        return tuple(orders)

    def order_census(self) -> tuple:
        """Sorted multiset of element orders (an isomorphism invariant)."""
        return tuple(sorted(self.element_order(a) for a in range(self.order)))

    @property
    @memoized
    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, which they do exactly
        when every pair of elements does."""
        table = self.table
        gens = self.generators()
        return all(table[a][b] == table[b][a] for a in gens for b in gens)

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        return check_subgroup(self, sorted(set(elements)))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), 1)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)), (1 << self.order) - 1)

    def generated_subgroup(self, generators: Iterable[int]) -> "Subgroup":
        return subgroup_of_mask(self, closure_mask(self, list(generators)))

    # -- conjugation helpers ------------------------------------------------

    @memoized
    def conjugation_perm(self, g: int) -> tuple:
        """The permutation x -> g x g^-1 as a tuple."""
        table = self.table
        gi = self.inverses[g]
        return tuple(table[x][gi] for x in table[g])

    @memoized
    def conjugation_reps(self) -> tuple:
        """Coset representatives of the center; conjugation by any element
        equals conjugation by one of these."""
        z = center(self).mask
        seen = 0
        out = []
        for g in range(self.order):
            if not (seen >> g) & 1:
                out.append(g)
                m = z
                while m:
                    b = m & -m
                    seen |= 1 << self.mul(g, b.bit_length() - 1)
                    m ^= b
        return tuple(out)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        data = {"order": self.order, "table": [list(r) for r in self.table]}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        if not isinstance(data, dict):
            raise GroupError("group JSON must be an object")
        table, labels, name = map(data.get, ("table", "labels", "name"))
        if not (isinstance(table, list)
                and all(isinstance(row, list) for row in table)):
            raise GroupError("group JSON 'table' must be a list of lists")
        if not isinstance(labels, (list, type(None))):
            raise GroupError("group JSON 'labels' must be a list")
        if not isinstance(name, (str, type(None))):
            raise GroupError("group JSON 'name' must be a string")
        order = data.get("order", len(table))
        if type(order) is not int or order != len(table):
            raise GroupError(f"order {order!r} does not match the "
                             f"{len(table)} rows of the table")
        return cls(table, labels=labels, name=name)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup(NamedTuple):
    """A subgroup of ``parent``: its elements, ascending, and their
    bitmask.  Parents compare by identity.  The tuple is built unchecked
    from derived data; ``check_subgroup`` validates elements given from
    outside."""

    parent: FiniteGroup
    elements: tuple
    mask: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_normal(self) -> bool:
        G = self.parent
        m = self.mask
        return all(conjugate_mask(G, m, g) == m for g in G.conjugation_reps())


def subgroup_of_mask(G: FiniteGroup, mask: int) -> Subgroup:
    """The subgroup of G whose elements are the set bits of ``mask``."""
    return Subgroup(G, mask_to_elements(mask), mask)


def check_subgroup(G: FiniteGroup, elements) -> Subgroup:
    """The subgroup of G on elements given from outside, checked to be
    sorted, distinct, in range and closed."""
    els = tuple(elements)
    if list(els) != sorted(set(els)):
        raise GroupError("subgroup elements must be sorted and distinct")
    if not els or els[0] != 0:
        raise GroupError("subgroup must contain the identity")
    mask = 0
    for x in els:
        if not (0 <= x < G.order):
            raise GroupError("subgroup element out of range")
        mask |= 1 << x
    mul = G.mul
    inv = G.inverses
    for a in els:
        if not (mask >> inv[a]) & 1:
            raise GroupError("subgroup not closed under inverses")
        for b in els:
            if not (mask >> mul(a, b)) & 1:
                raise GroupError("subgroup not closed under products")
    return Subgroup(G, els, mask)


def check_homomorphism(domain: Union[FiniteGroup, Subgroup],
                       codomain: FiniteGroup, images) -> tuple:
    """The image tuple of a map given from outside, checked to be a
    homomorphism from ``domain``, a group read as its full subgroup, into
    ``codomain``.  Every image is range-checked before any product is
    read."""
    if type(domain) is FiniteGroup:
        domain = domain.full_subgroup()
    images = tuple(images)
    els = domain.elements
    if len(images) != len(els):
        raise GroupError("image list does not match domain size")
    if not all(0 <= fa < codomain.order for fa in images):
        raise GroupError("image out of range")
    mul = domain.parent.mul
    lookup = dict(zip(els, images))
    cmul = codomain.mul
    for a, fa in zip(els, images):
        for b, fb in zip(els, images):
            if lookup[mul(a, b)] != cmul(fa, fb):
                raise GroupError("map is not a homomorphism")
    return images


# ---------------------------------------------------------------------------
# bitmask helpers


@functools.lru_cache(maxsize=256)
def mask_to_elements(mask: int) -> tuple:
    """The set bits of ``mask`` in ascending order.  A class is decoded
    wherever its elements are read (canonical forms, ``.elements``, a
    composition's profiles), so the last 256 masks are kept: that holds
    every mask a warm pass of the benchmark workloads decodes (at most
    144), and 95 % of the reads of ``hat C2xC2xC2 C2`` hit.  The key is
    an int, so no group is kept alive."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def elements_to_mask(elements: Iterable[int]) -> int:
    m = 0
    for x in elements:
        m |= 1 << x
    return m


def pairs_to_raw(pairs) -> tuple:
    """The (mask, delta) pair of unsorted (element, value) pairs: the
    bitmask of the elements and the values in ascending element order.
    There is at least one pair, as a subgroup holds the identity."""
    elements, delta = zip(*sorted(pairs))
    return elements_to_mask(elements), delta


def _permute_raw(perm, elements: Tuple[int, ...], delta: Tuple[int, ...]):
    """The (mask, delta) pair of the image of a subgroup with a character
    under an element map, the character values carried along."""
    return pairs_to_raw(zip((perm[x] for x in elements), delta))


def conjugate_mask(G: FiniteGroup, mask: int, g: int) -> int:
    perm = G.conjugation_perm(g)
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def closure_mask(G: FiniteGroup, seed: Iterable[int],
                 base: Sequence[int] = (0,)) -> int:
    """Bitmask of the subgroup generated by ``seed``, closed coset by coset.

    ``base`` is the element tuple of a subgroup B inside the result, the
    trivial group by default.  In a finite group the monoid generated by
    the seed is the subgroup it generates, so the result is the least set
    holding 1 that is closed under right multiplication by the seed.  The
    kernel grows a union of right cosets B r from r = 1: for each
    representative r and seed element s with z = r s new, it adds the
    whole coset B z.  The union stays closed because (B r) s = B (r s),
    and r s lies in a coset added by then, so every product is covered
    with one multiplication per (representative, seed element) plus one
    per element added.  With the trivial base each coset is one element.
    """
    table = G.table
    gens = []
    seen = 1
    for s in seed:
        if not (seen >> s) & 1:
            seen |= 1 << s
            gens.append(s)
    rows = [table[x] for x in base]
    mask = 0
    for x in base:
        mask |= 1 << x
    reps = [0]
    for r in reps:
        row = table[r]
        for g in gens:
            z = row[g]
            if not (mask >> z) & 1:
                for x in rows:
                    mask |= 1 << x[z]
                reps.append(z)
    return mask


# ---------------------------------------------------------------------------
# constructors


# The public constructors check their argument and hand it, positionally,
# to a cached builder, so every call for one group returns the same object.


def _lifelong(G: FiniteGroup) -> FiniteGroup:
    """G, built by a builder cached for the process, marked as older than
    every group that can be dropped (see :func:`memoized`)."""
    G._serial = -1
    return G


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n; element i is c^i."""
    if n < 1:
        raise GroupError("cyclic order must be positive")
    return _cyclic(n)


@functools.cache
def _cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if n == 1:
        labels = ["1"]
    else:
        labels = ["1", "c"] + [f"c{i}" for i in range(2, n)]
    return _lifelong(FiniteGroup(table, labels=labels, name=f"C{n}"))


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order, presented as
    <a, b | a^n = b^2 = 1, b a b^-1 = a^-1> with n = order/2.
    Element i + n*j stands for a^i b^j."""
    if order < 2 or order % 2:
        raise GroupError("dihedral order must be even and >= 2")
    return _inverting_extension(order // 2, 0, "ab", f"D{order}")


def quaternion8() -> FiniteGroup:
    """Quaternion group <x, y | x^4 = 1, y x y^-1 = x^-1, x^2 = y^2>.
    Element i + 4*j stands for x^i y^j."""
    return _inverting_extension(4, 2, "xy", "Q8")


@functools.cache
def _inverting_extension(n: int, s: int, letters: str,
                         name: str) -> FiniteGroup:
    """<a, b | a^n = 1, b a b^-1 = a^-1, b^2 = a^s>, with element i + n*j
    standing for a^i b^j and the letters a and b spelled ``letters``:
    a^i b^j times a^k b^l is a^(i+k) b^l if j = 0, else a^(i-k) b^(1+l),
    where b^2 = a^s."""
    x, y = letters
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for k in range(n):
            for l in (0, 1):
                table[i][k + n * l] = (i + k) % n + n * l
                table[i + n][k + n * l] = ((i - k + s * l) % n
                                           + n * (1 - l))
    labels = []
    for j in (0, 1):
        for i in range(n):
            w = "" if i == 0 else (x if i == 1 else f"{x}{i}")
            w += y if j else ""
            labels.append(w or "1")
    return _lifelong(FiniteGroup(table, labels=labels, name=name))


def _perm_label(p: tuple) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + "".join(str(x) for x in cyc) + ")")
    return "".join(parts) or "e"


def _perm_group(perms: list, name: str) -> FiniteGroup:
    perms = sorted(perms)
    ident = tuple(range(len(perms[0])))
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(len(p)))] for q in perms]
             for p in perms]
    labels = [_perm_label(p) for p in perms]
    return _lifelong(FiniteGroup(table, labels=labels, name=name))


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters (1 <= n <= 4), elements in lexicographic
    order of permutation tuples, identity first."""
    if not 1 <= n <= 4:
        raise GroupError("symmetric group supported only for 1 <= n <= 4")
    return _symmetric(n)


@functools.cache
def _symmetric(n: int) -> FiniteGroup:
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return _perm_group(perms, name=f"S{n}")


@functools.cache
def alternating4() -> FiniteGroup:
    """Alternating group on 4 letters."""

    def sign(p):
        s = 0
        for i in range(4):
            for j in range(i + 1, 4):
                s += p[i] > p[j]
        return s % 2

    perms = [tuple(p) for p in itertools.permutations(range(4))
             if sign(p) == 0]
    return _perm_group(perms, name="A4")


def dicyclic(order: int) -> FiniteGroup:
    """Dicyclic group of order 4m, presented as
    <a, b | a^{2m} = 1, b^2 = a^m, b a b^-1 = a^-1>.
    Element i + 2m*j stands for a^i b^j."""
    if order % 4 or order < 8:
        raise GroupError("dicyclic order must be a multiple of 4, >= 8")
    m = order // 4
    return _inverting_extension(2 * m, m, "ab", f"Dic{m}")


# ---------------------------------------------------------------------------
# direct products


class ProductEmbedding:
    """A group realized as an explicit direct product of named factors,
    with coordinate encode/decode and the projection homomorphisms.

    Encoding is mixed-radix with the last factor varying fastest, i.e.
    lexicographic in the coordinate tuple.  When all factors but one are
    trivial the ambient *is* that factor (the canonical isomorphism is the
    identity on indices), which keeps subgroup masks interchangeable.

    ``coords[x]`` is the coordinate tuple of ambient element x; the table
    is built once, and ``decode`` is a lookup in it.  ``encode`` of a
    two-factor product is ``a * stride + b``; with more factors it is the
    general mixed-radix sum, which, like ``zip``, reads only as many
    leading coordinates as it is given.
    """

    __slots__ = ("factors", "ambient", "coords", "factor_projections",
                 "_strides")

    def __init__(self, factors: tuple, ambient: FiniteGroup, strides: tuple,
                 coords: tuple):
        self.factors = factors
        self.ambient = ambient
        self._strides = strides
        self.coords = coords
        self.factor_projections = tuple(
            tuple(c[i] for c in coords) for i in range(len(factors)))

    def encode(self, *coords: int) -> int:
        strides = self._strides
        if len(strides) == 2:
            a, b = coords
            return a * strides[0] + b
        return sum(c * s for c, s in zip(coords, strides))

    def decode(self, x: int) -> tuple:
        return self.coords[x]

    def __repr__(self):
        names = " x ".join(f.name for f in self.factors)
        return f"ProductEmbedding({names})"


@memoized
def product_embedding(*factors: FiniteGroup) -> ProductEmbedding:
    """Memoized product: the same factor tuple yields the same embedding
    (and hence the very same ambient group object).  Groups hash by
    identity, so the key holds the factor groups themselves."""
    if not factors:
        raise GroupError("product of no factors")
    orders = [f.order for f in factors]
    strides = []
    s = 1
    for o in reversed(orders):
        strides.append(s)
        s *= o
    strides = tuple(reversed(strides))
    coords = tuple(itertools.product(*(range(o) for o in orders)))
    nontrivial = [f for f in factors if f.order > 1]
    if len(nontrivial) <= 1:
        ambient = nontrivial[0] if nontrivial else factors[0]
    else:
        # fold the factors in from the right: with R the product of the
        # later factors (order m), row (a, b) of f x R is
        # f.table[a] x R.table[b] in mixed radix, that is the blocks
        # x*m + R.table[b] for x in f.table[a], each block built once
        rows = factors[-1].table
        m = factors[-1].order
        for f in reversed(factors[:-1]):
            shifts = [(x * m).__add__ for x in range(f.order)]
            blocks = [[list(map(s, r)) for s in shifts] for r in rows]
            table = []
            for fr in f.table:
                for blk in blocks:
                    row = []
                    for x in fr:
                        row += blk[x]
                    table.append(tuple(row))
            rows = tuple(table)
            m *= f.order
        labels = None
        if all(f.labels is not None for f in factors):
            labels = tuple("(" + ",".join(ls) + ")" for ls in
                           itertools.product(*(f.labels for f in factors)))
        name = "x".join(f.name for f in factors)
        ambient = FiniteGroup._from_rows(
            rows, labels, name, max(f._serial for f in factors))
    return ProductEmbedding(factors, ambient, strides, coords)


# ---------------------------------------------------------------------------
# subgroup enumeration and friends


def subgroups(G: FiniteGroup) -> list:
    """All subgroups of G, each exactly once, sorted by (order, elements).

    Each subgroup T != 1 is built from its canonical parent.  The greedy
    seed (s1, ..., sk) of T takes at each step the least element of T
    not yet generated (see :func:`_generating_sequence`).  The canonical
    parent of T is P = <s1, ..., s(k-1)>, and T = <P, g> with
    g = sk = min(T minus P).  P's own greedy seed is (s1, ..., s(k-1)),
    as every element of T outside P exceeds s(k-1); so, by induction on
    k from the trivial group, every subgroup is reached.  Conversely,
    the search adjoins to P only g > s(k-1), and keeps <P, g> only if g
    is its least element outside P; then (s1, ..., s(k-1), g) is the
    greedy seed of <P, g>, so P is its canonical parent and g its last
    seed element, and no subgroup is kept twice.  <P, g> is closed from
    whole right cosets of P (see :func:`closure_mask`).  Before closing,
    the cosets P g^u with u prime to the order of g are marked: they lie
    in <P, g> outside P and each of their elements generates <P, g> with
    P, so they need no closure of their own; and if one of them holds an
    element below g, <P, g> is not a child of P and is not closed at
    all.
    """
    _check_bound("subgroup enumeration", G.order)
    return list(_subgroups(G))


def _check_bound(what: str, order: int):
    """Refuse ``order`` above ``SUBGROUP_ORDER_BOUND``, naming what it
    bounds and the order."""
    if order > SUBGROUP_ORDER_BOUND:
        raise BoundExceededError(
            f"{what} bound exceeded: {order} > {SUBGROUP_ORDER_BOUND}")


@memoized
def _subgroups(G: FiniteGroup) -> tuple:
    table = G.table
    n = G.order
    # the generators of each <g>: its powers g^u with u prime to |g|
    cyclic_gens = []
    for g in range(n):
        powers = [g]
        while powers[-1]:
            powers.append(table[powers[-1]][g])
        k = len(powers)
        cyclic_gens.append([y for u, y in enumerate(powers, 1)
                            if math.gcd(u, k) == 1])
    work = [((0,), 1, [])]
    for els, mask, seed in work:
        rows = [table[x] for x in els]
        covered = mask
        for g in range(seed[-1] + 1 if seed else 1, n):
            if (covered >> g) & 1:
                continue
            cosets = 0
            for y in cyclic_gens[g]:
                for x in rows:
                    cosets |= 1 << x[y]
            covered |= cosets
            below = (1 << g) - 1
            if cosets & below:
                continue
            res = closure_mask(G, seed + [g], base=els)
            if res & below & ~mask:
                continue
            work.append((mask_to_elements(res), res, seed + [g]))
    return tuple(Subgroup(G, els, mask) for els, mask, _ in
                 sorted(work, key=lambda w: (len(w[0]), w[0])))


@memoized
def center(G: FiniteGroup) -> Subgroup:
    """The elements that commute with every generator, and so with every
    element."""
    table = G.table
    gens = G.generators()
    els = tuple(a for a, row in enumerate(table)
                if all(row[g] == table[g][a] for g in gens))
    return Subgroup(G, els, elements_to_mask(els))


@memoized
def frattini(G: FiniteGroup) -> Subgroup:
    """Intersection of all maximal subgroups (the whole group if none)."""
    # every proper subgroup lies in a maximal one of larger order, so
    # from the largest down a subgroup is maximal when no maximal one
    # found so far contains it
    mask = (1 << G.order) - 1
    maximal = []
    for s in reversed(subgroups(G)[:-1]):
        if not any(s.mask & ~m == 0 for m in maximal):
            maximal.append(s.mask)
            mask &= s.mask
    return subgroup_of_mask(G, mask)


def _generating_sequence(G: FiniteGroup, elements: Sequence[int]) -> list:
    """Greedy small generating set (least new element each step).

    Each step extends the running subgroup, which lies in the next one,
    by closing with it as the base."""
    mask = elements_to_mask(elements)
    gens = []
    cur = 1
    for x in elements:
        if not (cur >> x) & 1:
            gens.append(x)
            cur = closure_mask(G, gens, base=mask_to_elements(cur))
            if cur == mask:
                break
    return gens


def homomorphisms(domain: Union[FiniteGroup, Subgroup],
                  C: FiniteGroup) -> list:
    """All homomorphisms from a subgroup into C, as sorted image tuples; a
    group is read as its full subgroup, so both share one memo entry."""
    if type(domain) is FiniteGroup:
        domain = domain.full_subgroup()
    _check_bound("homomorphism enumeration",
                 max(len(domain.elements), C.order))
    return list(_homomorphisms(domain, C))


def _hom_search(G: FiniteGroup, els: Sequence[int], gens: list,
                H: FiniteGroup, bijective: bool):
    """Yield the image tuple, over ``els`` in order, of every
    homomorphism f from the subgroup ``els`` of G, generated by ``gens``,
    into H; only the bijective ones if ``bijective``.

    Level j of the breadth-first edge list holds the edges (a, g_i),
    i <= j, of <g_1..g_j> that <g_1..g_(j-1)> does not hold.  An edge
    that first reaches b = a g_i defines f(b) = f(a) f(g_i); every other
    edge checks f(b).  So each edge is read at the first level whose
    generator images fix it, and f is a homomorphism on <g_1..g_j> once
    level j holds.  Generator images are assigned depth first, each
    running ascending over the elements of H whose order divides (equals,
    for a bijection) its own, so the maps come in ``itertools.product``
    order.  A conflict prunes the branch, and so does, for a bijection, a
    repeated image, seen as an element other than 1 sent to 1: a
    homomorphism is injective exactly when its kernel is trivial.  Images
    are read off the table rows of H into a list indexed by the elements
    of G.  With no generators the one empty assignment gives the trivial
    map."""
    table = G.table
    levels = []
    reached = [0]
    seen = 1
    for j in range(len(gens)):
        edges = []
        old = len(reached)
        for k, a in enumerate(reached):  # grows as new elements are found
            row = table[a]
            for i in range(j if k < old else 0, j + 1):
                b = row[gens[i]]
                defines = not (seen >> b) & 1
                if defines:
                    seen |= 1 << b
                    reached.append(b)
                edges.append((a, i, b, defines))
        levels.append(edges)

    def fits(g, c):
        o, p = G.element_order(g), H.element_order(c)
        return o == p if bijective else o % p == 0

    candidates = [[c for c in range(H.order) if fits(g, c)] for g in gens]
    rows = H.table
    img = [0] * G.order
    gimg = [0] * len(gens)

    def extend(j):
        if j == len(gens):
            yield tuple(map(img.__getitem__, els))
            return
        for c in candidates[j]:
            gimg[j] = c
            for a, i, b, defines in levels[j]:
                fb = rows[img[a]][gimg[i]]
                if defines:
                    if bijective and not fb:
                        break
                    img[b] = fb
                elif img[b] != fb:
                    break
            else:
                yield from extend(j + 1)

    return extend(0)


@memoized
def _homomorphisms(S: Subgroup, C: FiniteGroup) -> tuple:
    G = S.parent
    els = S.elements
    return tuple(sorted(_hom_search(G, els, _generating_sequence(G, els), C,
                                    bijective=False)))


class AutomorphismData(NamedTuple):
    """Automorphism census, as image tuples: all of Aut, the inner ones,
    one representative per coset of Inn (the least), and ``out_rep_of``,
    the map from every automorphism to the representative of its coset."""

    group: FiniteGroup
    all: tuple
    inner: tuple
    out_representatives: tuple
    out_rep_of: dict

    @property
    def out_order(self) -> int:
        return len(self.out_representatives)


def automorphisms(G: FiniteGroup) -> AutomorphismData:
    _check_bound("automorphism enumeration", G.order)
    return _automorphisms(G)


@memoized
def _automorphisms(G: FiniteGroup) -> AutomorphismData:
    els = list(range(G.order))
    autos = tuple(sorted(_hom_search(G, els, G.generators(), G,
                                     bijective=True)))
    inner_images = {G.conjugation_perm(g) for g in range(G.order)}
    inner = tuple(h for h in autos if h in inner_images)
    out_rep_of = {}
    out_reps = []
    for h in autos:  # ascending image tuples: first hit is the least rep
        if h in out_rep_of:
            continue
        out_reps.append(h)
        for k in inner:
            out_rep_of[tuple(h[x] for x in k)] = h
    return AutomorphismData(G, autos, inner, tuple(out_reps), out_rep_of)


def subgroup_as_group(S: Subgroup):
    """Reindex a subgroup as a standalone group.

    Returns (group, inclusion) where the inclusion is the tuple of parent
    elements, new index i mapping to ``S.elements[i]``.  The full subgroup
    yields the parent itself.  Memoized per (parent, elements).
    """
    G = S.parent
    if len(S.elements) == G.order:
        return G, S.elements
    return _subgroup_as_group(S)


@memoized
def _subgroup_as_group(S: Subgroup):
    G = S.parent
    els = S.elements
    pos = {x: i for i, x in enumerate(els)}
    table = tuple(tuple([pos[G.mul(a, b)] for b in els]) for a in els)
    labels = tuple(G.labels[x] for x in els) if G.labels else None
    sub = FiniteGroup._from_rows(table, labels, f"{G.name}|{len(els)}",
                                 G._serial)
    return sub, els


def quotient(G: FiniteGroup, N: Subgroup):
    """Quotient by a normal subgroup.

    Returns (Q, projection), the projection as the coset index of every
    element of G.  Cosets are ordered by least representative, so the
    identity coset is element 0.
    """
    if N.parent is not G:
        raise GroupError("subgroup belongs to a different group")
    if not N.is_normal():
        raise GroupError("subgroup is not normal")
    if N.order == 1:
        return G, tuple(range(G.order))
    if N.order == G.order:
        return cyclic(1), (0,) * G.order
    return _quotient(N)


@memoized
def _quotient(N: Subgroup):
    G = N.parent
    n = G.order
    coset_of = [-1] * n
    reps = []
    for g in range(n):
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for x in N.elements:
            coset_of[G.mul(g, x)] = idx
    table = tuple(tuple([coset_of[G.mul(a, b)] for b in reps]) for a in reps)
    labels = None
    if G.labels is not None:
        labels = tuple(f"[{G.labels[r]}]" for r in reps)
    Q = FiniteGroup._from_rows(table, labels, f"{G.name}/{len(N.elements)}",
                               G._serial)
    return Q, tuple(coset_of)


def double_coset_representatives(G: FiniteGroup, A: Subgroup,
                                 B: Subgroup) -> list:
    """Least-index representatives of the double cosets A g B, ascending."""
    table = G.table
    covered = 0
    reps = []
    for g in range(G.order):
        if (covered >> g) & 1:
            continue
        reps.append(g)
        for a in A.elements:
            row = table[table[a][g]]
            for b in B.elements:
                covered |= 1 << row[b]
    return reps


def isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[tuple]:
    """The image tuple of some isomorphism G -> H, or None.
    Deterministic: generator images are tried in ascending order and the
    first success is returned."""
    if G.order != H.order:
        return None
    if G.order_census() != H.order_census():
        return None
    els = list(range(G.order))
    return next(_hom_search(G, els, G.generators(), H, bijective=True),
                None)


# ---------------------------------------------------------------------------
# the small-groups catalog


# one spec per isomorphism class, by order, built by ``group_from_spec``:
# every catalog name parses to its group by construction
_CATALOG = (
    ("C1",), ("C2",), ("C3",), ("C4", "C2xC2"), ("C5",), ("C6", "S3"),
    ("C7",), ("C8", "C4xC2", "C2xC2xC2", "D8", "Q8"), ("C9", "C3xC3"),
    ("C10", "D10"), ("C11",), ("C12", "C6xC2", "D12", "A4", "Dic3"),
    ("C13",), ("C14", "D14"), ("C15",))


_EXPECTED_CLASS_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1)


def small_groups_catalog(max_order: int = CATALOG_MAX_ORDER) -> list:
    """One representative per isomorphism class per order <= max_order.

    The full catalog is validated once (class counts and pairwise
    non-isomorphism within each order) and cached.
    """
    if not 1 <= max_order <= CATALOG_MAX_ORDER:
        raise BoundExceededError(
            f"catalog supports orders 1..{CATALOG_MAX_ORDER}")
    return [g for g in _full_catalog() if g.order <= max_order]


@functools.cache
def _full_catalog() -> tuple:
    full = []
    for order, specs in enumerate(_CATALOG, 1):
        groups = [group_from_spec(spec) for spec in specs]
        if len(groups) != _EXPECTED_CLASS_COUNTS[order - 1]:
            raise GroupError(f"catalog miscount at order {order}")
        for i, g in enumerate(groups):
            if g.order != order:
                raise GroupError(f"catalog order mismatch for {g.name}")
            for h in groups[:i]:
                if isomorphism(g, h) is not None:
                    raise GroupError(
                        f"catalog entries {g.name} and {h.name} are "
                        "isomorphic")
        full.extend(groups)
    return tuple(full)


# ---------------------------------------------------------------------------
# group spec mini-language


_ATOM_RE = re.compile(r"^([A-Z][a-z]*)(\d*)$")


def _parse_atom(token: str):
    """The order of an atom and a builder of its group, which is not
    built yet."""
    m = _ATOM_RE.match(token)
    if not m:
        raise GroupSpecError(f"cannot parse atom {token!r}")
    kind, num = m.group(1), m.group(2)
    digits = num.lstrip("0")
    # five digits are past any bound, and int() refuses over 4,300
    if len(digits) > 4:
        raise BoundExceededError(f"group order bound exceeded: "
                                 f"{token[:12]}... > {SUBGROUP_ORDER_BOUND}")
    n = int(digits or "0")
    if kind == "C" and num:
        if n < 1:
            raise GroupSpecError(f"cyclic atom needs a positive order: "
                                 f"{token!r}")
        return n, lambda: cyclic(n)
    if kind == "D" and num:
        if n < 2 or n % 2:
            raise GroupSpecError(f"dihedral atom needs an even order: {token!r}")
        return n, lambda: dihedral(n)
    if kind == "Q" and num == "8":
        return 8, quaternion8
    if kind == "S" and num:
        if not 1 <= n <= 4:
            raise GroupSpecError(f"symmetric atom supports 1 <= n <= 4: "
                                 f"{token!r}")
        return math.factorial(n), lambda: symmetric(n)
    if kind == "A" and num == "4":
        return 12, alternating4
    if kind == "Dic" and num:
        if n < 2:
            raise GroupSpecError(f"dicyclic atom needs n >= 2: {token!r}")
        return 4 * n, lambda: dicyclic(4 * n)
    raise GroupSpecError(f"unsupported atom {token!r}")


def group_from_spec(spec: str) -> FiniteGroup:
    """Build a group from a spec like ``"Q8"``, ``"C2xC4"`` or ``"D8"``.

    Atoms are Cn, D2n, Q8, Sn (n <= 4), A4 and Dicn (order 4n, n >= 2),
    connected with ``x``, so every catalog name parses to its group.
    The same normalized spec returns the same object, as atoms and
    products are memoized.  A spec of order above
    ``SUBGROUP_ORDER_BOUND`` raises ``BoundExceededError`` before any
    table is built.
    """
    if not isinstance(spec, str):
        raise GroupSpecError("spec must be a string")
    norm = spec.replace(" ", "").replace("X", "x")
    if not norm:
        raise GroupSpecError("empty group spec")
    tokens = norm.split("x")
    if any(not t for t in tokens):
        raise GroupSpecError(f"cannot parse spec {spec!r}")
    atoms = [_parse_atom(t) for t in tokens]
    _check_bound("group order", math.prod(o for o, _ in atoms))
    factors = [build() for _, build in atoms]
    if len(factors) == 1:
        return factors[0]
    return product_embedding(*factors).ambient
