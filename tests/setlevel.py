"""The set-level ring layer, kept for the tests: Mackey gluing and the
tensor of explicit sets, the bridge between classes and monomial sets,
the Dress tensor and the internal product of the ring of a group, the
elementary classes, the star product, conjugation of
subgroup/character pairs, and classes whose subgroup projects onto both
factors.

The calculator reaches its results through ``compose``, the orbit
oracle and ``hat`` and calls none of these.  The tests use them as
independent checks: the Green functor identities of criterion 8 glue
explicit sets here, and the ring axioms, the elementary classes and the
Goursat correspondence are stated through them.  The gluings run
through the oracle's kernel ``monomial._glue`` with the trivial fibre
shift.
"""

import random
from typing import Dict, List, Optional, Tuple

from fibredburnside import monomial
from fibredburnside.fibred import (
    FibredElement,
    TransitiveFibredBiset,
    _element_from_stabilizers,
    _graph_class,
    canonicalize,
    element_of,
    opposite,
)
from fibredburnside.goursat import projection
from fibredburnside.groups import (
    FiniteGroup,
    GroupError,
    ProductEmbedding,
    Subgroup,
    _permute_raw,
    check_homomorphism,
    cyclic,
    homomorphisms,
    memoized,
    product_embedding,
    quotient,
    subgroup_as_group,
    subgroups,
)
from fibredburnside.monomial import FiniteAction, MonomialSet


def _add_scaled(acc: Dict[TransitiveFibredBiset, int], elt: FibredElement,
                k: int):
    """Add k times the terms of elt into ``acc``: a sum built this way is
    canonicalized once, when its element is built, not on every step."""
    for cls, v in elt.terms.items():
        acc[cls] = acc.get(cls, 0) + k * v


# -- Mackey gluing and the tensor of explicit sets -----------------------


def mackey_glue(emb_ab: ProductEmbedding, X: FiniteAction,
                emb_br: ProductEmbedding, T: FiniteAction
                ) -> Tuple[ProductEmbedding, FiniteAction]:
    """Glue an (A, B)-biset X (as an (A x B)-set, acting as a x b^-1)
    with a (B x R)-set T over the middle group B: the orbit set of
    X x T under b.(x, t) = (x.b^-1, b.t), carrying the leftover
    (A x R)-action.  Returns the (A, R) embedding and the action."""
    A, B = emb_ab.factors
    B2, R = emb_br.factors
    if B is not B2:
        raise GroupError("middle groups do not agree")
    emb_ar = product_embedding(A, R)
    table, _, _ = monomial._glue(
        X.size, T.size,
        [(X.table[emb_ab.encode(0, b)], T.table[emb_br.encode(b, 0)])
         for b in B.generators()],
        [(X.table[emb_ab.encode(a, 0)], T.table[emb_br.encode(0, r)])
         for a, r in emb_ar.coords],
        [range(T.size)], free=())
    return emb_ar, FiniteAction(emb_ar.ambient, table)


def tensor_sets(emb_ac: ProductEmbedding, T: FiniteAction,
                emb_bc: ProductEmbedding, Y: FiniteAction
                ) -> Tuple[ProductEmbedding, FiniteAction]:
    """Tensor of a C-fibred A-set and a C-fibred B-set: C-orbits of
    T x Y under c.(t, y) = (c.t, c^-1.y), with the (A x B x C)-action
    (a, b, c).[t, y] = [(a, c).t, (b, 1).y]."""
    A, C = emb_ac.factors
    B, C2 = emb_bc.factors
    if C is not C2:
        raise GroupError("fibre groups do not agree")
    inv = C.inverses
    emb_ab = product_embedding(A, B)
    emb_abc = product_embedding(emb_ab.ambient, C)
    table, _, _ = monomial._glue(
        T.size, Y.size,
        [(T.table[emb_ac.encode(0, c)], Y.table[emb_bc.encode(0, inv[c])])
         for c in C.generators()],
        [(T.table[emb_ac.encode(a, c)], Y.table[emb_bc.encode(b, 0)])
         for ab, c in emb_abc.coords for a, b in [emb_ab.coords[ab]]],
        [range(Y.size)], free=())
    return emb_abc, FiniteAction(emb_abc.ambient, table)


# -- the bridge between classes and monomial sets ------------------------


def to_monomial_set(X: TransitiveFibredBiset) -> MonomialSet:
    """Explicit coset model of a transitive class over its full ambient
    group (for a ring basis class over G x C1, that is G)."""
    elements = X.elements
    dmap = dict(zip(elements, X.delta))
    return monomial.monomial_set_from_pair(X.ambient, X.fibre, elements,
                                           dmap.__getitem__)


def from_monomial_set(T: MonomialSet, left: Optional[FiniteGroup] = None,
                      right: Optional[FiniteGroup] = None) -> FibredElement:
    """Decompose a monomial set into canonical transitive classes.  The
    acting group must be the product of (left, right) when those are
    given; otherwise the result is a ring element over the acting group.
    """
    if left is None and right is None:
        left, right = T.acting, cyclic(1)
    if product_embedding(left, right).ambient is not T.acting:
        raise GroupError("acting group is not the stated product")
    return _element_from_stabilizers(left, right, T.fibre,
                                     monomial.decompose_monomial(T))


# -- the ring of a group: unit, zero, opposites, tensor, product ------


def ring_identity(G: FiniteGroup, C: FiniteGroup) -> FibredElement:
    """The class of C G/G: the identity of the ring of G."""
    return element_of(_graph_class(G, cyclic(1), C,
                                   [(g, 0) for g in range(G.order)]))


def zero_element(left, right, fibre) -> FibredElement:
    return FibredElement(left, right, fibre, {})


def opposite_element(elt: FibredElement) -> FibredElement:
    terms = {opposite(cls): coeff for cls, coeff in elt.terms.items()}
    return FibredElement(elt.right, elt.left, elt.fibre, terms)


def tensor(X: FibredElement, Y: FibredElement) -> FibredElement:
    """Dress tensor of ring elements: an element of the ring of G and one
    of the ring of H give one over G x H, computed set-theoretically as
    fibre-orbits of the product set."""
    if X.right.order != 1 or Y.right.order != 1:
        raise GroupError("tensor expects ring elements (trivial right part)")
    if X.fibre is not Y.fibre:
        raise GroupError("fibre groups do not agree")
    C = X.fibre
    G, H = X.left, Y.left
    emb_gc = product_embedding(G, C)
    emb_hc = product_embedding(H, C)
    amb = product_embedding(G, H).ambient
    us = [(to_monomial_set(ty).action, cy) for ty, cy in Y.terms.items()]
    acc: Dict[TransitiveFibredBiset, int] = {}
    for tx, cx in X.terms.items():
        T = to_monomial_set(tx).action
        for U, cy in us:
            _, action = tensor_sets(emb_gc, T, emb_hc, U)
            res = MonomialSet(amb, C, action)
            _add_scaled(acc, from_monomial_set(res, G, H), cx * cy)
    return FibredElement(G, H, C, acc)


def _restrict_to_diagonal(elt: FibredElement) -> FibredElement:
    """Pull an element over G x G back along g -> (g, g)."""
    G = elt.left
    C = elt.fibre
    emb_gg = product_embedding(G, G)
    emb_src = product_embedding(emb_gg.ambient, C)
    emb_dst = product_embedding(G, C)
    acc: Dict[TransitiveFibredBiset, int] = {}
    for cls, coeff in elt.terms.items():
        T = to_monomial_set(cls)
        table = []
        for e in range(emb_dst.ambient.order):
            g, c = emb_dst.decode(e)
            table.append(T.action.table[emb_src.encode(
                emb_gg.encode(g, g), c)])
        res = MonomialSet(G, C, FiniteAction(emb_dst.ambient, table))
        _add_scaled(acc, from_monomial_set(res), coeff)
    return FibredElement(G, cyclic(1), C, acc)


def ring_product(X: FibredElement, Y: FibredElement) -> FibredElement:
    """Internal product of the ring of G: tensor, then restrict along the
    diagonal of G x G."""
    if X.left is not Y.left or X.right.order != 1 or Y.right.order != 1:
        raise GroupError("ring product expects ring elements over one group")
    if X.fibre is not Y.fibre:
        raise GroupError("fibre groups do not agree")
    return _restrict_to_diagonal(tensor(X, Y))


# -- elementary classes --------------------------------------------------


def elementary_fibred_biset(kind: str, C: FiniteGroup, *,
                            group: Optional[FiniteGroup] = None,
                            subgroup: Optional[Subgroup] = None,
                            normal: Optional[Subgroup] = None,
                            iso: Optional[Tuple[FiniteGroup, tuple]] = None
                            ) -> TransitiveFibredBiset:
    """The trivial-character fibred class of an elementary biset.

    kinds: ``ind``/``res`` take (group, subgroup); ``inf``/``def`` take
    (group, normal); ``iso`` takes the domain as ``group`` and ``iso =
    (codomain, images)``, a bijective homomorphism that
    ``check_homomorphism`` validates.  Morphisms point left: a class over
    (A, B) is a morphism from B to A.
    """
    kind = kind.lower()
    if kind in ("ind", "res"):
        if group is None or subgroup is None or subgroup.parent is not group:
            raise GroupError("ind/res need a group and one of its subgroups")
        sub_grp, inclusion = subgroup_as_group(subgroup)
        pairs = [(g, i) for i, g in enumerate(inclusion)]
        if kind == "ind":
            return _graph_class(group, sub_grp, C, pairs)
        return _graph_class(sub_grp, group, C, [(e, g) for g, e in pairs])
    if kind in ("inf", "def"):
        if group is None or normal is None or normal.parent is not group:
            raise GroupError("inf/def need a group and a normal subgroup")
        Q, proj = quotient(group, normal)
        pairs = list(enumerate(proj))
        if kind == "inf":
            return _graph_class(group, Q, C, pairs)
        return _graph_class(Q, group, C, [(q, g) for g, q in pairs])
    if kind == "iso":
        if not isinstance(group, FiniteGroup) or iso is None:
            raise GroupError("iso needs a group and a bijective "
                             "homomorphism of it")
        target, images = iso
        images = check_homomorphism(group, target, images)
        if not len(set(images)) == group.order == target.order:
            raise GroupError("iso map is not bijective")
        return _graph_class(target, group, C,
                            [(h, g) for g, h in enumerate(images)])
    raise GroupError(f"unknown elementary biset kind {kind!r}")


# -- subgroups of products: the star product and conjugate pairs ---------


def star(emb_gh: ProductEmbedding, U: Subgroup,
         emb_hk: ProductEmbedding, V: Subgroup) -> Subgroup:
    """U * V = {(g,k) : exists h with (g,h) in U and (h,k) in V},
    a subgroup of G x K."""
    if len(emb_gh.factors) != 2 or len(emb_hk.factors) != 2:
        raise GroupError("star is defined for two-factor products")
    if U.parent is not emb_gh.ambient or V.parent is not emb_hk.ambient:
        raise GroupError("subgroup does not live in the stated product")
    if emb_gh.factors[1] is not emb_hk.factors[0]:
        raise GroupError("middle factors do not agree")
    emb_gk = product_embedding(emb_gh.factors[0], emb_hk.factors[1])
    by_h: dict = {}
    for x in U.elements:
        g, h = emb_gh.decode(x)
        by_h.setdefault(h, []).append(g)
    mask = 0
    for y in V.elements:
        h, k = emb_hk.decode(y)
        for g in by_h.get(h, ()):
            mask |= 1 << emb_gk.encode(g, k)
    return Subgroup(emb_gk.ambient, mask)


def conjugate_pair(D: Subgroup, delta: tuple,
                   g: int) -> Tuple[Subgroup, tuple]:
    """^g (D, delta) = (^g D, ^g delta) with ^g delta(x) = delta(g^-1 x g);
    delta is the tuple of values on the elements of D, ascending."""
    G = D.parent
    mask, images = _permute_raw(G.conjugation_perm(g), D.elements, delta)
    return Subgroup(G, mask), images


# -- classes whose subgroup projects onto both factors -------------------


@memoized
def _full_projection_subgroups(left: FiniteGroup,
                               right: FiniteGroup) -> List[Subgroup]:
    emb = product_embedding(left, right)
    return [D for D in subgroups(emb.ambient)
            if projection(emb, D, 1).order == left.order
            and projection(emb, D, 2).order == right.order]


def random_full_projection_class(rng: random.Random, left: FiniteGroup,
                                 right: FiniteGroup, fibre: FiniteGroup
                                 ) -> Optional[TransitiveFibredBiset]:
    """A class whose subgroup projects onto both factors, or None when the
    two groups admit no such subgroup."""
    pool = _full_projection_subgroups(left, right)
    if not pool:
        return None
    D = pool[rng.randrange(len(pool))]
    homs = homomorphisms(D, fibre)
    delta = homs[rng.randrange(len(homs))]
    return canonicalize(TransitiveFibredBiset(left, right, fibre, D.mask,
                                              delta))
