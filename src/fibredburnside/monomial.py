"""Explicit finite actions and monomial sets.

A monomial set is a finite (G x C)-set on which the fibre group C acts
freely; these are the brute-force counterparts of the formal classes in
the ring module.  Everything here works with concrete points and action
tables, so it is slow but independent of any composition formula: this
module is the oracle the formulas are tested against.

The orbit oracle of the ring module takes the orbits of a group acting
on pairs of points through one kernel, ``_glue``: pair moves, one orbit
partition, root labels, the split of each root into its two points, and
the result rows it is asked for.  A finite group's orbits are the
connected components of the graph whose edges are the moves of any
generating set (an inverse is a power of its element), so the gluing
builds moves only for a small generating set of the acting group, never
for all of its elements.  The oracle goes further: it builds rows
of its ``CosetModel``s and of the result only for generators, and reads
each stabilizer by evaluating one point under every group element.  A
``CosetModel`` of a subgroup of A x C that meets C trivially holds one
cell per element of A and multiplies coordinatewise in the tables of A
and C, so the oracle builds no table of A x C.  C acts freely on such a
model, and its points are numbered t |C| + c, c times the base point
t |C|.  So when the acting group contains C, each C-orbit of pairs meets
the base pairs {t |C|} x Y exactly once, and the oracle glues only those,
|C| times fewer pairs, carrying each pair to its normal form.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

from .groups import (
    FiniteGroup,
    GroupError,
    cyclic,
    product_embedding,
)

__all__ = [
    "FiniteAction",
    "MonomialSet",
    "CosetModel",
    "coset_action",
    "monomial_set_from_pair",
    "decompose_monomial",
]


class FiniteAction:
    """A finite set with a left action of a fixed group, as a full table."""

    __slots__ = ("group", "size", "table")

    def __init__(self, group: FiniteGroup, table: Sequence[Sequence[int]]):
        self.group = group
        self.table = [tuple(row) for row in table]
        self.size = len(self.table[0]) if self.table else 0
        if len(self.table) != group.order:
            raise GroupError("action table must have one row per element")

    def validate(self):
        n = self.size
        if self.table[0] != tuple(range(n)):
            raise GroupError("identity does not act trivially")
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise GroupError("action row is not a permutation")
        # compatibility against a generating set implies it everywhere
        for g in self.group.generators():
            rg = self.table[g]
            for a in range(self.group.order):
                ra = self.table[a]
                rga = self.table[self.group.mul(g, a)]
                if any(rg[ra[p]] != rga[p] for p in range(n)):
                    raise GroupError("action is not compatible with products")

    def act(self, a: int, p: int) -> int:
        return self.table[a][p]

    def orbits(self) -> List[List[int]]:
        seen = [False] * self.size
        out = []
        for p in range(self.size):
            if seen[p]:
                continue
            orbit = sorted({row[p] for row in self.table})
            for q in orbit:
                seen[q] = True
            out.append(orbit)
        return out

    def stabilizer_elements(self, p: int) -> List[int]:
        return [a for a in range(self.group.order) if self.table[a][p] == p]

    def __repr__(self):
        return f"FiniteAction({self.group.name} on {self.size} points)"


class CosetModel:
    """Left translation on the left cosets of a subgroup S of A x C that
    meets the fibre C trivially, the element (a, c) being a |C| + c,
    evaluated on demand.  S projects onto a subgroup V of A, and C acts
    freely on the cosets, so point p = t |C| + c is the coset of
    (b_t, c), with b_t = ``bases[t]`` the least element of the t-th left
    coset of V in A (ascending); (b_t, c) is also the least element of
    the point.  ``cell[a]`` is the point of (a, 1), ``row(x)`` the
    permutation of element x and ``image(x, p)`` one point's image.
    Products are taken coordinatewise in the rows of A and C; the model
    holds one cell per element of A, and no table of A x C and no full
    action table is built."""

    __slots__ = ("acting", "fibre", "cell", "bases")

    def __init__(self, A: FiniteGroup, C: FiniteGroup,
                 subgroup_elements: Sequence[int]):
        nc, inv = C.order, C.inverses
        pairs = [divmod(s, nc) for s in subgroup_elements]
        if len({v for v, _ in pairs}) != len(pairs):
            raise GroupError("subgroup meets the fibre nontrivially")
        cell = [-1] * A.order
        bases = []
        for a, ra in enumerate(A.table):
            if cell[a] < 0:
                # (a v, c) lies in point (t, 1), so (a v, 1) in (t, c^-1)
                p = len(bases) * nc
                for v, c in pairs:
                    cell[ra[v]] = p + inv[c]
                bases.append(a)
        self.acting, self.fibre = A, C
        self.cell, self.bases = cell, bases

    @property
    def size(self) -> int:
        return len(self.bases) * self.fibre.order

    def row(self, x: int) -> List[int]:
        nc, tc = self.fibre.order, self.fibre.table
        a, c = divmod(x, nc)
        ra, cell = self.acting.table[a], self.cell
        # (a, c) takes point t |C| + f to t' |C| + f' c f, where
        # t' |C| + f' is the cell of a b_t
        heads = [(q - q % nc, tc[q % nc])
                 for q in [cell[ra[b]] for b in self.bases]]
        return [base + r[y] for base, r in heads for y in tc[c]]

    def image(self, x: int, p: int) -> int:
        nc, tc = self.fibre.order, self.fibre.table
        a, c = divmod(x, nc)
        t, f = divmod(p, nc)
        q = self.cell[self.acting.table[a][self.bases[t]]]
        return q - q % nc + tc[q % nc][tc[c][f]]


def coset_action(G: FiniteGroup, subgroup_elements: Sequence[int]) -> FiniteAction:
    """Left translation on the left cosets of a subgroup; points are
    ordered by least coset representative."""
    model = CosetModel(G, cyclic(1), subgroup_elements)
    return FiniteAction(G, [model.row(x) for x in range(G.order)])


def _twisted_diagonal(C: FiniteGroup, d_elements: Sequence[int],
                      values: Iterable[int]) -> List[int]:
    """The twisted diagonal {(a, delta(a)^-1)} of a subgroup D of the
    acting group and a character delta on it into the fibre C, given by
    its values on ``d_elements``, with (a, c) encoded as a |C| + c: the
    stabilizer of a transitive monomial set."""
    n, inv = C.order, C.inverses
    return sorted(a * n + inv[v] for a, v in zip(d_elements, values))


class MonomialSet:
    """A C-free (G x C)-set with explicit points.

    ``acting`` is the group part G (itself often a direct product) and
    ``fibre`` the abelian group C.  The combined action is stored over the
    product embedding of (G, C).  The constructor checks only where the
    action lives; ``validate`` checks that it is a C-free action.
    """

    __slots__ = ("acting", "fibre", "embedding", "action")

    def __init__(self, acting: FiniteGroup, fibre: FiniteGroup,
                 action: FiniteAction):
        self.acting = acting
        self.fibre = fibre
        self.embedding = product_embedding(acting, fibre)
        if action.group is not self.embedding.ambient:
            raise GroupError("action must live over the (G, C) product")
        self.action = action

    def validate(self):
        """Check that the fibre is abelian, that the action is compatible
        with products, and that the fibre acts freely."""
        if not self.fibre.is_abelian:
            raise GroupError("fibre group must be abelian")
        self.action.validate()
        emb = self.embedding
        for c in range(1, self.fibre.order):
            row = self.action.table[emb.encode(0, c)]
            if any(row[p] == p for p in range(self.size)):
                raise GroupError("fibre group does not act freely")

    @property
    def size(self) -> int:
        return self.action.size

    def act(self, a: int, c: int, p: int) -> int:
        return self.action.table[self.embedding.encode(a, c)][p]

    def __repr__(self):
        return (f"MonomialSet({self.acting.name} with fibre "
                f"{self.fibre.name} on {self.size} points)")


def monomial_set_from_pair(acting: FiniteGroup, fibre: FiniteGroup,
                           d_elements: Sequence[int],
                           delta: Callable[[int], int]) -> MonomialSet:
    """The transitive monomial set attached to a subgroup D of the acting
    group and a character delta on it: cosets of the twisted diagonal
    {(a, delta(a)^-1)}."""
    twisted = _twisted_diagonal(fibre, d_elements, map(delta, d_elements))
    return MonomialSet(acting, fibre, coset_action(
        product_embedding(acting, fibre).ambient, twisted))


def decompose_monomial(T: MonomialSet) -> List[Tuple[Tuple[int, ...],
                                                     Tuple[int, ...]]]:
    """Split a monomial set into transitive pieces and read off the
    (subgroup, character) pair from the stabilizer of each orbit's least
    point.  Returns one (d_elements, delta_images) pair per orbit."""
    emb = T.embedding
    inv = T.fibre.inverses
    return [_read_stabilizer((d, inv[c]) for d, c in map(
                emb.decode, T.action.stabilizer_elements(orbit[0])))
            for orbit in T.action.orbits()]


def _read_stabilizer(pairs) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The (d_elements, delta_images) pair of a stabilizer given by its
    (d, delta(d)) pairs in any order; raises unless each d appears once,
    that is unless the stabilizer is a twisted diagonal."""
    pairs = sorted(pairs)
    d_elements = tuple(p[0] for p in pairs)
    if len(set(d_elements)) != len(d_elements):
        raise GroupError("stabilizer is not a twisted diagonal")
    return d_elements, tuple(p[1] for p in pairs)


def _orbit_partition(n_points: int, moves: List[Sequence[int]]):
    """Orbits of a point set under the group generated by a list of
    permutations (as maps).  The orbits of a finite group are the
    components reached by its generators' forward moves alone, so
    ``moves`` need only come from a generating set.  Returns the least
    point of each point's orbit, and those roots numbered in ascending
    order."""
    rep = [-1] * n_points
    roots = {}
    for p in range(n_points):
        if rep[p] >= 0:
            continue
        # every smaller point lies in an orbit already labelled
        roots[p] = len(roots)
        rep[p] = p
        orbit = [p]
        # the loop reaches each point appended while it runs
        for x in orbit:
            for mv in moves:
                y = mv[x]
                if rep[y] < 0:
                    rep[y] = p
                    orbit.append(y)
    return rep, roots


def _glue(n1: int, n2: int, moves, rows, shifts, free):
    """The orbits of pairs of points of two sets of sizes n1 and n2 under
    a group that may contain a fibre C.  C acts freely on the first set,
    whose point p = t |C| + c is c times the base point t |C|, and on the
    second by the rows ``shifts[c]``; (1, c) takes (p, j) to
    (c.p, c^-1.j).  So each C-orbit of pairs meets the base pairs
    {t |C|} x {0..n2-1} exactly once, in the normal form (t, c.j) of
    (t |C| + c, j), and only base pairs are glued, (t, j) being pair
    t * n2 + j.  Each row pair (r1, r2) takes (p, j) to the normal form of
    (r1[p], r2[j]): ``moves`` come from elements that generate the
    acting group together with C, ``rows`` from the elements of the
    group acting on the result that the caller asks for.  A root (t, j)
    is dropped when some c in ``free`` (fibre elements other than 1)
    leaves (t, c.j), the normal form of (c.p, j), in its orbit.  The
    kept orbits are numbered by their least pairs, ascending.  Returns
    one result row per row pair of ``rows``, the label of every base
    pair (its orbit's number, or None when dropped) and the point pair
    (t |C|, j) of each kept root."""
    nc = len(shifts)

    def pair_move(r1, r2):
        by_offset = [[s[y] for y in r2] for s in shifts]
        out = []
        for p in range(0, n1, nc):
            t, c = divmod(r1[p], nc)
            t *= n2
            out.extend([t + y for y in by_offset[c]])
        return out

    find_rep, roots = _orbit_partition(
        n1 // nc * n2, [pair_move(r1, r2) for r1, r2 in moves])
    fixed = {root for root in roots for c in free
             if find_rep[root - root % n2 + shifts[c][root % n2]] == root}
    kept = [root for root in roots if root not in fixed]
    number = [None] * len(find_rep)
    for k, root in enumerate(kept):
        number[root] = k
    label = [number[r] for r in find_rep]
    split = [(root // n2 * nc, root % n2) for root in kept]
    js = [j for _, j in split]
    return ([[label[q // nc * n2 + shifts[q % nc][r2[j]]]
              for q, j in zip([r1[i] for i, _ in split], js)]
             for r1, r2 in rows], label, split)
