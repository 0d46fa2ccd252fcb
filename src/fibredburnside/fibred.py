"""The monomial Burnside ring and its composition calculus.

Transitive classes are pairs (D, delta) with D a subgroup of an ambient
group and delta a character of D into an abelian fibre group C; classes
over a product G x H compose like bisets, and every class given by
coordinate pairs is built by ``_graph_class``.  ``compose`` implements the
double-coset formula in one kernel, ``_compose_raw``, which reads each
factor through its profile (decoded once per class and kept in the memo
of the class's younger group) and the double cosets of the two middle
projections through a memo per middle group.  ``compose_oracle``
recomputes the same thing set-theoretically from explicit orbit
counting and shares none of that code; the two must always agree, and
that agreement is the backbone of the test suite.
"""

from __future__ import annotations

import collections
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .groups import (
    FiniteGroup,
    GroupError,
    ProductEmbedding,
    Subgroup,
    _permute_raw,
    check_homomorphism,
    check_subgroup,
    cyclic,
    elements_to_mask,
    group_from_spec,
    homomorphisms,
    mask_to_elements,
    memoized,
    pairs_to_raw,
    product_embedding,
    subgroups,
    double_coset_representatives,
)
from . import monomial
from .goursat import _quotient_of_subgroup, kernel_part, projection

__all__ = [
    "FibreError",
    "TransitiveFibredBiset",
    "FibredElement",
    "subcharacter_classes",
    "transitive_basis",
    "canonicalize",
    "transitive_fibred_biset",
    "element_of",
    "identity_element",
    "opposite",
    "compose",
    "compose_oracle",
    "is_idempotent",
    "BoucFactorization",
    "bouc_factorize",
    "element_to_json",
    "element_from_json",
]


# ---------------------------------------------------------------------------
# raw (mask, delta) machinery
#
# Internally a class over an ambient group is the pair of its subgroup
# bitmask and the tuple of character values aligned with the sorted
# subgroup elements.  Canonical form is the least such pair over the
# conjugacy orbit; the orbit walk only needs coset representatives of the
# center.


@memoized
def _canonical_pairs(ambient: FiniteGroup) -> dict:
    """Canonical form of every pair met so far over ambient.  One miss
    fills the whole conjugacy orbit, which a per-pair memo could not."""
    return {}


def _canonical_raw(ambient: FiniteGroup, mask: int, delta: Tuple[int, ...]):
    if ambient.is_abelian:
        return mask, delta
    cache = _canonical_pairs(ambient)
    hit = cache.get((mask, delta))
    if hit is not None:
        return hit
    elements = mask_to_elements(mask)
    seen = []
    best = (mask, delta)
    for g in ambient.conjugation_reps():
        cand = _permute_raw(ambient.conjugation_perm(g), elements, delta)
        seen.append(cand)
        if cand < best:
            best = cand
    for cand in seen:
        cache[cand] = best
    return best


# ---------------------------------------------------------------------------
# public types


class FibreError(GroupError):
    """The fibre group is not abelian."""


def _check_fibre(C: FiniteGroup):
    if not C.is_abelian:
        raise FibreError(f"fibre group must be abelian, {C.name} is not")


class TransitiveFibredBiset(NamedTuple):
    """A transitive class over G x H: the subgroup D of the product as its
    bitmask, and the character delta into the fibre as its values on the
    elements of D in ascending order.  Groups compare by identity.  The
    tuple is built unchecked; ``transitive_fibred_biset`` is the validated
    constructor and ``canonicalize`` gives the least pair of the orbit."""

    left: FiniteGroup
    right: FiniteGroup
    fibre: FiniteGroup
    mask: int
    delta: Tuple[int, ...]

    @property
    def ambient(self) -> FiniteGroup:
        return product_embedding(self.left, self.right).ambient

    @property
    def embedding(self) -> ProductEmbedding:
        return product_embedding(self.left, self.right)

    @property
    def raw(self):
        return self.mask, self.delta

    @property
    def elements(self) -> Tuple[int, ...]:
        return mask_to_elements(self.mask)

    def subgroup_and_kernel(self) -> Tuple[Subgroup, Subgroup]:
        """D and ker delta as subgroups of the ambient group."""
        amb = self.ambient
        return (Subgroup(amb, self.mask),
                Subgroup(amb, elements_to_mask(
                    x for x, c in zip(self.elements, self.delta) if c == 0)))

    def describe(self) -> str:
        elements = self.elements
        els = ",".join(self.ambient.label(x) for x in elements[:4])
        tail = ",..." if len(elements) > 4 else ""
        vals = ",".join(self.fibre.label(c) for c in self.delta[:4])
        return (f"[D={{{els}{tail}}} |D|={len(elements)} "
                f"delta=({vals}{tail})]")

    def __repr__(self):
        return (f"TransitiveFibredBiset({self.left.name}x{self.right.name}, "
                f"fibre={self.fibre.name}, |D|={len(self.delta)})")


def _graph_class(left: FiniteGroup, right: FiniteGroup, C: FiniteGroup,
                 pairs: Iterable[Tuple[int, int]],
                 values: Optional[Iterable[int]] = None
                 ) -> TransitiveFibredBiset:
    """The canonical class of the subgroup of left x right on the pairs
    (a, b), with the character values read from ``values`` in the same
    order, all 0 by default.  A pair listed twice must carry one value."""
    n = right.order
    # (a, b) is a |right| + b, as product_embedding encodes it
    keys = [a * n + b for a, b in pairs]
    values = [0] * len(keys) if values is None else list(values)
    mask, delta = pairs_to_raw(zip(keys, values))
    if mask.bit_count() < len(delta):  # a pair listed more than once
        mask, delta = pairs_to_raw(set(zip(keys, values)))
        if mask.bit_count() < len(delta):
            raise GroupError("character is ill-defined on the subgroup")
    amb = product_embedding(left, right).ambient
    return TransitiveFibredBiset(left, right, C,
                                 *_canonical_raw(amb, mask, delta))


def transitive_fibred_biset(left, right, fibre, d_elements,
                            delta_images) -> TransitiveFibredBiset:
    """Validated public constructor for a transitive class.  The i-th
    value of ``delta_images`` belongs to the i-th element of
    ``d_elements``, in whatever order the elements are listed."""
    _check_fibre(fibre)
    d_elements, delta_images = list(d_elements), list(delta_images)
    if len(d_elements) != len(delta_images):
        raise GroupError(f"term field 'delta' must list one value per "
                         f"element of 'D': got {len(delta_images)} for "
                         f"{len(d_elements)}")
    pairs = sorted(zip(d_elements, delta_images))
    amb = product_embedding(left, right).ambient
    D = check_subgroup(amb, [x for x, _ in pairs])
    delta = check_homomorphism(D, fibre, (v for _, v in pairs))
    return TransitiveFibredBiset(left, right, fibre, D.mask, delta)


def canonicalize(X: TransitiveFibredBiset) -> TransitiveFibredBiset:
    """The least (D, delta) in the conjugacy orbit of X; X itself when it
    is that pair already."""
    raw = _canonical_raw(X.ambient, X.mask, X.delta)
    if raw == X.raw:
        return X
    return TransitiveFibredBiset(X.left, X.right, X.fibre, *raw)


class FibredElement:
    """An integer combination of canonical transitive classes sharing the
    same (left, right, fibre)."""

    __slots__ = ("left", "right", "fibre", "terms")

    def __init__(self, left, right, fibre, terms: Dict[TransitiveFibredBiset,
                                                       int]):
        self.left = left
        self.right = right
        self.fibre = fibre
        clean = {}
        for cls, coeff in terms.items():
            if coeff == 0:
                continue
            cls = canonicalize(cls)
            if (cls.left is not left or cls.right is not right
                    or cls.fibre is not fibre):
                raise GroupError("terms do not match the element's groups")
            clean[cls] = clean.get(cls, 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def _of_canonical(cls, left, right, fibre,
                      terms: Dict[TransitiveFibredBiset, int]):
        """The element with ``terms`` as they are: canonical classes over
        (left, right, fibre) with nonzero coefficients, so that none is
        looked up again."""
        elt = object.__new__(cls)
        elt.left, elt.right, elt.fibre, elt.terms = left, right, fibre, terms
        return elt

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].raw)

    def __eq__(self, other):
        return (isinstance(other, FibredElement)
                and self.left is other.left and self.right is other.right
                and self.fibre is other.fibre and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.left), id(self.right), id(self.fibre),
                     tuple(sorted((c.raw, v)
                                  for c, v in self.terms.items()))))

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for cls, coeff in other.terms.items():
            terms[cls] = terms.get(cls, 0) + coeff
        return FibredElement(self.left, self.right, self.fibre, terms)

    def __neg__(self):
        return FibredElement(self.left, self.right, self.fibre,
                             {c: -v for c, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _check_compatible(self, other):
        if (self.left is not other.left or self.right is not other.right
                or self.fibre is not other.fibre):
            raise GroupError("elements live over different groups")

    def __repr__(self):
        n = len(self.terms)
        return (f"FibredElement({self.left.name}x{self.right.name}, "
                f"fibre={self.fibre.name}, {n} term{'s' if n != 1 else ''})")


def element_of(X: TransitiveFibredBiset, coeff: int = 1) -> FibredElement:
    return FibredElement(X.left, X.right, X.fibre, {X: coeff})


# ---------------------------------------------------------------------------
# bases


@memoized
def _class_keys(left: FiniteGroup, right: FiniteGroup,
                C: FiniteGroup) -> List[tuple]:
    """Sorted canonical (mask, delta) keys of the classes over left x
    right."""
    _check_fibre(C)
    amb = product_embedding(left, right).ambient
    found = set()
    for D in subgroups(amb):
        for delta in homomorphisms(D, C):
            found.add(_canonical_raw(amb, D.mask, delta))
    return sorted(found)


def transitive_basis(G: FiniteGroup, H: FiniteGroup,
                     C: FiniteGroup) -> List[TransitiveFibredBiset]:
    """Canonical transitive classes over G x H: the basis of the
    morphism group from H to G."""
    return [TransitiveFibredBiset(G, H, C, mask, delta)
            for mask, delta in _class_keys(G, H, C)]


def subcharacter_classes(G: FiniteGroup,
                         C: FiniteGroup) -> List[TransitiveFibredBiset]:
    """Canonical representatives of the G-classes of pairs (D, delta), as
    classes over G x C1, whose ambient is G itself; they index the basis
    of the monomial Burnside ring of G."""
    return transitive_basis(G, cyclic(1), C)


def identity_element(G: FiniteGroup, C: FiniteGroup) -> FibredElement:
    """The class of C (G x G)/Delta(G): the identity morphism of G."""
    return element_of(_graph_class(G, G, C, [(g, g) for g in range(G.order)]))


# ---------------------------------------------------------------------------
# opposites


def opposite(X: TransitiveFibredBiset) -> TransitiveFibredBiset:
    """Swap the two factors: D -> {(h, g) : (g, h) in D} and
    delta -> delta(g, h)^-1."""
    coords = X.embedding.coords
    inv = X.fibre.inverses
    return _graph_class(X.right, X.left, X.fibre,
                        [coords[x][::-1] for x in X.elements],
                        [inv[c] for c in X.delta])


# ---------------------------------------------------------------------------
# composition: the double-coset formula
#
# A profile is keyed by the character too, so that a subgroup with two
# characters has two, and holds ints only, so that one serves every fibre.


@memoized
def _left_profile(left: FiniteGroup, right: FiniteGroup, mask: int,
                  delta: Tuple[int, ...]) -> tuple:
    """What a class (V, nu) over left x right contributes as the left
    factor of a composition: the mask of p2(V); k2(V) with its values, as
    (h, nu(1, h)) pairs, which the character condition walks; and the
    elements of V grouped by their right coordinate, as
    (h, ((g, nu(g, h)), ...)) pairs."""
    n = right.order
    rows: Dict[int, list] = {}
    # x is g |right| + h, as product_embedding encodes it
    for x, c in zip(mask_to_elements(mask), delta):
        g, h = divmod(x, n)
        rows.setdefault(h, []).append((g, c))
    return (elements_to_mask(rows),
            tuple((h, row[0][1]) for h, row in rows.items() if not row[0][0]),
            tuple((h, tuple(row)) for h, row in rows.items()))


@memoized
def _right_profile(left: FiniteGroup, right: FiniteGroup, mask: int,
                   delta: Tuple[int, ...]) -> tuple:
    """What a class (U, mu) over left x right contributes as the right
    factor of a composition: the mask of p1(U), and the elements of U by
    their left coordinate h, as a tuple over all h of left holding
    ((k, mu(h, k)), ...) in ascending k, empty when h is not in p1(U).
    So h is in k1(U) when its first k is 1, with mu(h, 1) beside it."""
    n = right.order
    rows = [[] for _ in range(left.order)]
    p1 = 0
    for x, c in zip(mask_to_elements(mask), delta):
        h, k = divmod(x, n)
        rows[h].append((k, c))
        p1 |= 1 << h
    return p1, tuple(map(tuple, rows))


@memoized
def _double_cosets(H: FiniteGroup, a_mask: int, b_mask: int) -> tuple:
    """The representatives h of the double cosets A h B of the subgroups
    of H with masks ``a_mask`` and ``b_mask``, ascending, each with the
    permutation x -> h^-1 x h."""
    hinv = H.inverses
    return tuple((h, H.conjugation_perm(hinv[h]))
                 for h in double_coset_representatives(
                     H, Subgroup(H, a_mask), Subgroup(H, b_mask)))


def _compose_raw(V: TransitiveFibredBiset, U: TransitiveFibredBiset):
    """All summands of the composition of a transitive class (V, nu) over
    G x H with one (U, mu) over H x K, by the double-coset formula: for
    each representative h of p2(V) h p1(U) whose character condition
    holds (nu(1, x) mu(h^-1 x h, 1) = 1 wherever both are defined), the
    pairs (g, k) with (g, x) in V and (h^-1 x h, k) in U for some x, with
    the value nu(g, x) mu(h^-1 x h, k).

    Returns (h, mask, delta) per such h, in ascending h.  The factors are
    read from their profiles and the representatives from
    ``_double_cosets``; the classes need not be canonical.
    """
    H = V.right
    if H is not U.left:
        raise GroupError("middle groups do not agree")
    p2v, k2v, v_rows = _left_profile(V.left, H, V.mask, V.delta)
    p1u, u_rows = _right_profile(H, U.right, U.mask, U.delta)
    # a summand's elements (g, k) are encoded in G x K inline, as
    # g * stride + k, and fibre products are read from the rows of C
    stride = U.right.order
    ctable = V.fibre.table
    out = []
    for h, twist in _double_cosets(H, p2v, p1u):
        # the character condition, on x in k2(V) with h^-1 x h in k1(U)
        ok = True
        for x, c_nu in k2v:
            hits = u_rows[twist[x]]
            if hits and hits[0][0] == 0 and ctable[c_nu][hits[0][1]]:
                ok = False
                break
        if not ok:
            continue
        values: Dict[int, int] = {}
        for h1, v_row in v_rows:
            hits = u_rows[twist[h1]]
            if not hits:
                continue
            for g, c_nu in v_row:
                row = ctable[c_nu]
                base = g * stride
                for k, c_mu in hits:
                    e = base + k
                    val = row[c_mu]
                    old = values.get(e)
                    if old is None:
                        values[e] = val
                    elif old != val:
                        raise GroupError("composite character is "
                                         "ill-defined")
        out.append((h, *pairs_to_raw(values.items())))
    return out


def compose(X: FibredElement, Y: FibredElement,
            check: bool = False) -> FibredElement:
    """Composition of morphisms: an element over G x H composed with one
    over H x K gives an element over G x K, summed term by term over the
    summands ``_compose_raw`` gives for each pair of classes, each
    canonicalized once.  With ``check`` the orbit oracle is run as well
    and any disagreement raises."""
    if X.right is not Y.left:
        raise GroupError("middle groups do not agree")
    if X.fibre is not Y.fibre:
        raise GroupError("fibre groups do not agree")
    amb_gk = product_embedding(X.left, Y.right).ambient
    acc: Dict[tuple, int] = {}
    for tx, cx in X.terms.items():
        for ty, cy in Y.terms.items():
            coeff = cx * cy
            for _, mask, delta in _compose_raw(tx, ty):
                key = _canonical_raw(amb_gk, mask, delta)
                acc[key] = acc.get(key, 0) + coeff
    # the keys are canonical already
    result = FibredElement._of_canonical(
        X.left, Y.right, X.fibre,
        {TransitiveFibredBiset(X.left, Y.right, X.fibre, m, d): v
         for (m, d), v in acc.items() if v != 0})
    if check:
        oracle = compose_oracle(X, Y)
        if oracle != result:
            raise GroupError("composition formula disagrees with the oracle")
    return result


def is_idempotent(W: FibredElement) -> bool:
    """Whether W o W = W; W must be a square element (same group twice)."""
    if W.left is not W.right:
        raise GroupError("idempotency needs an element over G x G")
    return compose(W, W) == W


# ---------------------------------------------------------------------------
# the orbit oracle


def _element_from_stabilizers(left, right, fibre, stabilizers
                              ) -> FibredElement:
    """The element over left x right with one transitive summand per
    orbit, given the (d_elements, delta_images) pair of each orbit's
    stabilizer."""
    amb = product_embedding(left, right).ambient
    acc: Dict[tuple, int] = {}
    for d_elements, delta in stabilizers:
        key = _canonical_raw(amb, elements_to_mask(d_elements), delta)
        acc[key] = acc.get(key, 0) + 1
    return FibredElement(
        left, right, fibre,
        {TransitiveFibredBiset(left, right, fibre, m, d): v
         for (m, d), v in acc.items()})


def _coset_model(X: TransitiveFibredBiset) -> monomial.CosetModel:
    """The coset model of a transitive class, read off the tables of its
    ambient group and its fibre."""
    return monomial.CosetModel(X.ambient, X.fibre, monomial._twisted_diagonal(
        X.fibre, X.elements, X.delta))


def _compose_oracle_transitive(tx: TransitiveFibredBiset,
                               ty: TransitiveFibredBiset) -> FibredElement:
    """Set-theoretic composition of two transitive classes: orbits of the
    product of their coset models under the middle-group/fibre action,
    keeping the part on which the fibre acts freely.  Rows are built for
    generators only.  C acts freely on the model of tx, whose point
    t |C| + c is c times t |C|, so each orbit of (1, c) on pairs meets
    {t |C|} x Y exactly once: (t |C| + c, j) is glued to its normal form
    (t |C|, c.j), and only those base pairs are glued, by the moves of
    (h, 1) for h in a generating set of H.  The result orbits come from
    the moves of (g, 1, 1), (1, k, 1) and (1, 1, c) for generators of G,
    K and C, through the same normal form.  The stabilizer of the least
    pair [i, j] of each result orbit is read by evaluating i under every
    g and j under every k, with each c applied by the normal form, and
    must satisfy |orbit| |stabilizer| = |G| |K| |C|.  An element
    (g, h, c) of a coset model is (g |H| + h) |C| + c, and likewise for
    (h, k, c)."""
    G, H = tx.left, tx.right
    K, C = ty.right, tx.fibre
    nh, nk, nc = H.order, K.order, C.order
    m1 = _coset_model(tx)
    m2 = _coset_model(ty)
    n1, n2 = m1.size, m2.size
    inv, tc = C.inverses, C.table
    # (1, 1, c) acts on the points of ty's model by its row
    shifts = [m2.row(c) for c in range(nc)]
    rows, label, split = monomial._glue(
        n1, n2,
        [(m1.row(h * nc), m2.row(h * nk * nc)) for h in H.generators()],
        [(m1.row(g * nh * nc), range(n2)) for g in G.generators()]
        + [(range(n1), m2.row(k * nc)) for k in K.generators()]
        + [(m1.row(c), range(n2)) for c in C.generators()],
        shifts, free=range(1, nc))
    find_rep, roots = monomial._orbit_partition(len(split), rows)
    orbit_sizes = collections.Counter(find_rep)
    stabilizers = []
    for p in roots:
        i, j = split[p]
        # (g, k, c) fixes [i, j] when it maps (i, j) into the same orbit;
        # for (g, 1, 1).i = t |C| + f that is the base pair (t, f c k.j)
        img1 = [divmod(m1.image(g * nh * nc, i), nc) for g in range(G.order)]
        img2 = [m2.image(k * nc, j) for k in range(nk)]
        by_offset = [[s[b] for b in img2] for s in shifts]
        stab = [(g * nk + k, inv[c])
                for g, (t, f) in enumerate(img1) for c, fc in enumerate(tc[f])
                for k, b in enumerate(by_offset[fc])
                if label[t * n2 + b] == p]
        if orbit_sizes[p] * len(stab) != G.order * nk * nc:
            raise GroupError("orbit and stabilizer sizes disagree")
        stabilizers.append(monomial._read_stabilizer(stab))
    return _element_from_stabilizers(G, K, C, stabilizers)


def compose_oracle(X: FibredElement, Y: FibredElement) -> FibredElement:
    """Brute-force composition through explicit monomial sets; must agree
    with :func:`compose` on every input."""
    if X.right is not Y.left:
        raise GroupError("middle groups do not agree")
    if X.fibre is not Y.fibre:
        raise GroupError("fibre groups do not agree")
    acc: Dict[TransitiveFibredBiset, int] = {}
    for tx, cx in X.terms.items():
        for ty, cy in Y.terms.items():
            for cls, v in _compose_oracle_transitive(tx, ty).terms.items():
                acc[cls] = acc.get(cls, 0) + cx * cy * v
    return FibredElement(X.left, Y.right, X.fibre, acc)


# ---------------------------------------------------------------------------
# the factorization through projections


class BoucFactorization(NamedTuple):
    """Both factorizations of a transitive class through its projections:
    X = left_elementary o beta1 and X = beta2 o right_elementary."""

    left_elementary: TransitiveFibredBiset
    beta1: TransitiveFibredBiset
    beta2: TransitiveFibredBiset
    right_elementary: TransitiveFibredBiset
    left_middle: FiniteGroup
    right_middle: FiniteGroup


def _bouc_side(X: TransitiveFibredBiset, side: int) -> tuple:
    """The factorization X = a o b of a class X = (D, delta) over G x H
    through the middle p_side(D)/k_side(ker delta), side 1 (left) or 2
    (right), as (middle, a, b).  The class on the side's own factor is
    the graph of the quotient map, with the trivial character."""
    emb = X.embedding
    G, H = emb.factors
    D, reduced = X.subgroup_and_kernel()
    E = projection(emb, D, side)
    middle, proj = _quotient_of_subgroup(E, kernel_part(emb, reduced, side))
    q = dict(zip(E.elements, proj))
    coords = map(emb.decode, D.elements)
    if side == 1:
        a = _graph_class(G, middle, X.fibre, q.items())
        b = _graph_class(middle, H, X.fibre, [(q[g], h) for g, h in coords],
                         X.delta)
    else:
        a = _graph_class(G, middle, X.fibre, [(g, q[h]) for g, h in coords],
                         X.delta)
        b = _graph_class(middle, H, X.fibre, [(y, h) for h, y in q.items()])
    return middle, a, b


def bouc_factorize(X: TransitiveFibredBiset) -> BoucFactorization:
    """Factor a transitive class over G x H through the quotients of its
    projections, one ``_bouc_side`` each: with E = p1(D) and
    k1 = k_1(ker delta) the left reduced kernel, the left factorization
    passes through E' = E/k1; symmetrically on the right.  Both
    recompositions return X exactly.
    """
    left_middle, left_elementary, beta1 = _bouc_side(X, 1)
    right_middle, beta2, right_elementary = _bouc_side(X, 2)
    return BoucFactorization(left_elementary=left_elementary, beta1=beta1,
                             beta2=beta2, right_elementary=right_elementary,
                             left_middle=left_middle,
                             right_middle=right_middle)


# ---------------------------------------------------------------------------
# JSON wire format


def element_to_json(elt: FibredElement) -> dict:
    return {
        "left": elt.left.name,
        "right": elt.right.name,
        "fibre": elt.fibre.name,
        "terms": [{"D": list(cls.elements),
                   "delta": list(cls.delta),
                   "coeff": coeff}
                  for cls, coeff in elt.sorted_terms()],
    }


def _json_ints(value, field: str) -> list:
    """A list of ints from the wire format; a float, a numeric string or a
    bool is rejected, never truncated or parsed."""
    if (not isinstance(value, (list, tuple))
            or any(type(x) is not int for x in value)):
        raise GroupError(f"term field {field!r} must be a list of integers, "
                         f"got {value!r}")
    return value


def _json_field(obj, field: str, where: str):
    """A field of a JSON object; a missing field, or an ``obj`` that is no
    object, is a ``GroupError`` that names it."""
    if not isinstance(obj, dict):
        raise GroupError(f"{where} must be a JSON object, got {obj!r}")
    if field not in obj:
        raise GroupError(f"{where} has no field {field!r}")
    return obj[field]


def _json_group(data, field: str) -> FiniteGroup:
    """A group spec field; a non-string is a ``GroupError`` that names it,
    a malformed spec string the parser's own error."""
    spec = _json_field(data, field, "element")
    if not isinstance(spec, str):
        raise GroupError(f"element field {field!r} must be a group spec "
                         f"string, got {spec!r}")
    return group_from_spec(spec)


def element_from_json(data: dict) -> FibredElement:
    left, right, fibre = (_json_group(data, f)
                          for f in ("left", "right", "fibre"))
    _check_fibre(fibre)
    items = _json_field(data, "terms", "element")
    if not isinstance(items, list):
        raise GroupError(f"element field 'terms' must be a list, "
                         f"got {items!r}")
    terms: Dict[TransitiveFibredBiset, int] = {}
    for item in items:
        d_elements = _json_ints(_json_field(item, "D", "term"), "D")
        delta = _json_ints(_json_field(item, "delta", "term"), "delta")
        coeff = item.get("coeff", 1)
        if type(coeff) is not int:
            raise GroupError(f"term coefficient must be an integer, "
                             f"got {coeff!r}")
        cls = transitive_fibred_biset(left, right, fibre, d_elements, delta)
        terms[cls] = terms.get(cls, 0) + coeff
    return FibredElement(left, right, fibre, terms)
