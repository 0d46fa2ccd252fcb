"""The quotient algebra of classes over G x G modulo everything that
factors through strictly smaller groups.

Membership in the ideal is decided by the summand criterion: a canonical
transitive class is in the ideal exactly when it appears as a summand of
some composition a o b with a over G x K, b over K x G and |K| < |G|.
Classes whose projections or reduced kernels are proper factor through a
quotient of a projection and get an explicit constructed witness.  The
remaining candidates have full projections and trivial reduced kernels;
they are settled by a sweep of compositions whose outer projections are
full, cut down in five sound ways:

* Only maximal K.  A catalog group K that embeds in a larger one K' of
  order < |G| is skipped.  Res^K'_K o Ind^K'_K contains Id_K as a summand
  (Mackey formula), so a o b is a summand of (a o Res) o (Ind o b), whose
  factors are transitive with the same full outer projections: every
  summand through K is one through K'.
* Orbit representatives of pairs.  Twisting a factor by an automorphism
  twists the composite, (sigma a kappa^-1) o (kappa b tau) =
  sigma (a o b) tau, so a runs over the orbits of Aut(G) x Aut(K) and b
  over the orbits of Aut(G) on its outer factor.
* Closure.  The summands of the representative pairs are closed under
  Aut(G) on both sides, which gives exactly the summands of all swept
  pairs; each witness is twisted along, and keeps its double-coset
  representative.
* Trivial reduced kernels.  If g lies in k1(ker nu) for a = (V, nu),
  then (g,1) in V pairs with (1,1) in U at every representative h, so
  g lies in k1(ker delta) of every summand (D, delta) of a o b; likewise
  k2(ker mu) lies in k2(ker delta) for b = (U, mu).  So a factor with a
  nontrivial outer reduced kernel only yields summands that get a
  constructed witness, and the sweep drops it.  Twists keep a kernel
  trivial, so whole orbits are dropped.
* Goursat data.  A kept left factor a = (V, nu) over G x K has
  p1(V) = G and k1(ker nu) = 1.  Let N = k1(V).  By Goursat's lemma
  G/N is isomorphic to E/k2 with E = p2(V) <= K and k2 = k2(V), so N is
  nontrivial when |K| < |G|.  nu is injective on N x 1, since its kernel
  there is k1(ker nu) x 1, so N embeds in C.  And N is central: for n in
  N and (g, k) in V the commutator [(n,1), (g,k)] = ([n,g], 1) lies in
  N x 1 and is killed by nu, as C is abelian, so [n,g] = 1.  So the
  lefts are built from the tuples (N, E, k2, theta) with N <= Z(G)
  embedding in C, k2 normal in E <= K and theta: E/k2 -> G/N an
  isomorphism, and the characters of V injective on N x 1; nothing else
  over G x K is enumerated.  The kept right factors over K x G are the
  opposites of the lefts.  When Z(G) has no nontrivial subgroup that
  embeds in C (S3, D10, A4, or a fibre of order prime to |Z(G)|) there
  are no lefts, and the sweep through every K is empty.

A sixth cut chooses the classes to decide at all:

* Candidates from Goursat data.  ``_reduction_witness`` finds no witness
  for X = (D, delta) over G x G exactly when both Bouc middles
  p1(D)/k1(ker delta) and p2(D)/k2(ker delta) have order |G|, that is
  when p1(D) = p2(D) = G and k1(ker delta) = k2(ker delta) = 1; every
  other class factors through a smaller middle.  The lemma of the fifth
  cut does not use |K| < |G|, so with K = G its enumeration builds every
  class with p1(D) = G and k1(ker delta) = 1.  Of those, the ones with a
  full right projection and a trivial inner reduced kernel are the
  candidates, and ``hat_dimension`` decides only them, never the whole
  basis over G x G (for Q8 and D8 with C4: 30 and 14 of 606 and 1,134
  classes).

The unreduced sweep is kept in the test suite as the oracle for this one,
and the kept factors are held there to the full-projection classes
filtered by their outer reduced kernels; the candidates and survivors are
held there to the whole basis decided class by class.

For a fibre of prime order the surviving classes have a closed
description: diagonal classes indexed by characters and outer
automorphisms, plus central classes indexed by outer automorphisms and
fibre embeddings into the center-intersect-Frattini subgroup.  The
product rules on those generators are implemented directly and verified
against compose-then-reduce.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .groups import (
    CATALOG_MAX_ORDER,
    BoundExceededError,
    FiniteGroup,
    GroupError,
    GroupHom,
    _check_subgroup_bound,
    automorphisms,
    center,
    conjugate_mask,
    frattini,
    homomorphisms,
    isomorphism,
    mask_to_elements,
    pairs_to_raw,
    product_embedding,
    small_groups_catalog,
    subgroup_as_group,
    subgroups,
)
from .goursat import (
    GoursatData,
    _quotient_of_subgroup,
    kernel_part,
    projection,
    rebuild_from_goursat,
)
from .fibred import (
    TransitiveFibredBiset,
    _canonical_class,
    _canonical_raw,
    _check_fibre,
    _class_from_raw,
    _compose_raw,
    _permute_raw,
    bouc_factorize,
    canonicalize,
    compose,
    element_of,
    is_idempotent,
    opposite,
    transitive_fibred_biset,
)

__all__ = [
    "VerificationError",
    "FactorizationWitness",
    "HatGenerator",
    "HatElement",
    "is_in_ideal",
    "hat_dimension",
    "hat_basis_prime",
    "hat_generator_class",
    "hat_multiply",
    "transport_hat_generator",
    "verify_hat_vs_quotient",
    "seed_index",
    "frattini_criterion",
    "y_type_class",
    "counterexample_verify",
    "is_prime",
]

class VerificationError(Exception):
    """A verification step failed; carries the failing step's name."""

    def __init__(self, step: str, detail: str = ""):
        self.step = step
        self.detail = detail
        super().__init__(f"verification failed at step {step!r}"
                         + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class FactorizationWitness:
    """A factorization of a class over G x G through a smaller group K:
    the class is the summand of compose(a, b) at the stated double-coset
    representative."""

    K: FiniteGroup
    a: TransitiveFibredBiset
    b: TransitiveFibredBiset
    which_summand: int

    def describe(self) -> str:
        return (f"through {self.K.name}: a={self.a.describe()} "
                f"b={self.b.describe()} at representative "
                f"{self.which_summand}")

    def to_json(self) -> dict:
        return {
            "through": self.K.name,
            "a": {"D": list(self.a.D.elements),
                  "delta": list(self.a.delta.images)},
            "b": {"D": list(self.b.D.elements),
                  "delta": list(self.b.delta.images)},
            "which_summand": self.which_summand,
        }


def _summand_reps(X: TransitiveFibredBiset, a: TransitiveFibredBiset,
                  b: TransitiveFibredBiset) -> Iterator[int]:
    """The double-coset representatives h at which X occurs in
    compose(a, b), lazily."""
    amb = X.ambient
    for h, mask, delta in _compose_raw(
            product_embedding(a.left, a.right),
            product_embedding(b.left, b.right), X.fibre,
            a.D.elements, a.delta.images, b.D.elements, b.delta.images):
        if _canonical_raw(amb, mask, delta) == X.raw:
            yield h


def _witness_matches(X: TransitiveFibredBiset,
                     w: FactorizationWitness) -> bool:
    return (w.K.order < X.left.order
            and w.which_summand in _summand_reps(X, w.a, w.b))


# ---------------------------------------------------------------------------
# ideal membership


def _catalog_below(order: int) -> List[FiniteGroup]:
    if CATALOG_MAX_ORDER < order - 1:
        raise BoundExceededError(
            f"catalog up to {CATALOG_MAX_ORDER} cannot cover orders below "
            f"{order}")
    return [K for K in small_groups_catalog() if K.order < order]


@functools.cache
def _iso_to_catalog(grp: FiniteGroup):
    """A catalog group isomorphic to grp, with the isomorphism."""
    for K in small_groups_catalog():
        if K.order != grp.order:
            continue
        phi = isomorphism(grp, K)
        if phi is not None:
            return K, phi
    raise GroupError(f"no catalog group of order {grp.order} "
                     f"matches {grp.name}")


def _side_map(emb_from, emb_to, side: int, images) -> list:
    """Element map between products that applies ``images`` to one factor
    (0 = left, 1 = right) and keeps the other."""
    out = []
    for coords in emb_from.coords:
        coords = list(coords)
        coords[side] = images[coords[side]]
        out.append(emb_to.encode(*coords))
    return out


def _reduction_witness(X: TransitiveFibredBiset
                       ) -> Optional[FactorizationWitness]:
    """Constructed witness when a projection or reduced kernel is proper:
    the class then factors through the quotient of a projection, which is
    strictly smaller and has a catalog twin."""
    G = X.left
    fac = bouc_factorize(X)
    for middle, left_cls, right_cls in (
            (fac.left_middle, fac.left_elementary, fac.beta1),
            (fac.right_middle, fac.beta2, fac.right_elementary)):
        if middle.order >= G.order:
            continue
        K, phi = _iso_to_catalog(middle)
        a = canonicalize(_twisted(left_cls, 1, phi.images, K))
        b = canonicalize(_twisted(right_cls, 0, phi.images, K))
        h = next(_summand_reps(X, a, b), None)
        if h is None:
            raise GroupError("constructed factorization lost the class")
        return FactorizationWitness(K=K, a=a, b=b, which_summand=h)
    return None


@functools.cache
def _aut_generators(G: FiniteGroup) -> Tuple[tuple, ...]:
    """Image tuples of a few automorphisms that generate Aut(G) together
    with the inner ones (which fix every canonical class)."""
    auts = automorphisms(G)
    reached = {h.images for h in auts.inner}
    gens = []
    for rep in auts.out_representatives:
        if rep.images in reached:
            continue
        gens.append(rep.images)
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = tuple(s[v] for v in x)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return tuple(gens)


def _embeds(K: FiniteGroup, L: FiniteGroup) -> bool:
    """Whether K is isomorphic to a proper subgroup of L."""
    if K.order >= L.order or L.order % K.order:
        return False
    return any(S.order == K.order
               and isomorphism(subgroup_as_group(S)[0], K) is not None
               for S in subgroups(L))


@functools.cache
def _maximal_below(G: FiniteGroup) -> List[FiniteGroup]:
    """The catalog groups of order < |G| that embed in no larger catalog
    group of order < |G|: the only ones the ideal sweep has to visit."""
    kats = _catalog_below(G.order)
    return [K for K in kats if not any(_embeds(K, L) for L in kats)]


def _orbit_representatives(classes: List[TransitiveFibredBiset],
                           ambient: FiniteGroup, perms: List[list]
                           ) -> List[TransitiveFibredBiset]:
    """The first class of each orbit of the group generated by the element
    maps ``perms`` acting on canonical classes over ``ambient``."""
    seen = set()
    reps = []
    for cls in classes:
        if cls.raw in seen:
            continue
        reps.append(cls)
        seen.add(cls.raw)
        stack = [cls.raw]
        while stack:
            mask, delta = stack.pop()
            elements = mask_to_elements(mask)
            for perm in perms:
                raw = _canonical_raw(ambient,
                                     *_permute_raw(perm, elements, delta))
                if raw not in seen:
                    seen.add(raw)
                    stack.append(raw)
    return reps


def _kept_factors(G: FiniteGroup, K: FiniteGroup, C: FiniteGroup
                  ) -> Tuple[List[TransitiveFibredBiset],
                             List[TransitiveFibredBiset]]:
    """The factors the sweep through K composes, as canonical classes in
    key order: the lefts a = (V, nu) over G x K with p1(V) = G and
    k1(ker nu) = 1, and their opposites, the rights over K x G with
    p2(U) = G and k2(ker mu) = 1.

    A left is built from its Goursat data (the fifth cut of the module
    docstring): N = k1(V) is central and embeds in C, k2 is normal in
    E = p2(V) <= K, and theta: E/k2 -> G/N is an isomorphism; nu runs over
    the characters of V that are injective on N x 1."""
    emb = product_embedding(G, K)
    amb = emb.ambient
    whole = G.full_subgroup()
    zmask = center(G).mask
    found = set()
    for N in subgroups(G):
        # |E/k2| = |G/N| divides |K|
        if (N.mask & ~zmask or K.order * N.order % G.order
                or not any(h.is_injective for h in homomorphisms(N, C))):
            continue
        GQ, gproj = _quotient_of_subgroup(whole, N)
        thetas = automorphisms(GQ).all
        outer = [emb.encode(n, 0) for n in N.elements]
        below = subgroups(K)
        for E in below:
            for k2 in below:
                if (k2.order * GQ.order != E.order or k2.mask & ~E.mask
                        or any(conjugate_mask(K, k2.mask, e) != k2.mask
                               for e in E.elements)):
                    continue
                EQ, eproj = _quotient_of_subgroup(E, k2)
                phi = isomorphism(EQ, GQ)
                if phi is None:
                    continue
                for alpha in thetas:
                    iso = GroupHom(EQ, GQ, tuple(alpha.images[q]
                                                 for q in phi.images),
                                   _validate=False)
                    V = rebuild_from_goursat(emb, GoursatData(
                        E=whole, k1=N, F=E, k2=k2, iso=iso, e_quotient=GQ,
                        e_projection=gproj, f_quotient=EQ,
                        f_projection=eproj))
                    at = [V.index_of(x) for x in outer]
                    for nu in homomorphisms(V, C):
                        if len({nu.images[i] for i in at}) == len(at):
                            found.add(_canonical_raw(amb, V.mask, nu.images))
    lefts = [_class_from_raw(G, K, C, mask, delta, canonical=True)
             for mask, delta in sorted(found)]
    return lefts, sorted(map(opposite, lefts), key=lambda b: b.raw)


@functools.cache
def _ideal_sweep(G: FiniteGroup, C: FiniteGroup, K: FiniteGroup) -> dict:
    """Canonical summand keys of compositions a o b through K where both
    outer projections are full and both outer reduced kernels trivial,
    the factors of ``_kept_factors``.  On classes with full projections
    and trivial reduced kernels, the only ones ``_ideal_decision`` looks
    up, these are exactly the keys of the ideal through K; on any other
    class they are a subset.

    Each key maps to ``(a, b, h, sigma, tau)``: the key is the summand at
    double-coset representative h of (sigma a) o (b tau), where sigma and
    tau are automorphisms of G (image tuples) applied to the outer factors
    of a and b; ``_sweep_witness`` builds the witness from it.

    Only orbit representatives are composed.  Twisting a factor by an
    automorphism twists the composite, (sigma a kappa^-1) o (kappa b tau)
    = sigma (a o b) tau, so it suffices to take a over the orbits of
    Aut(G) x Aut(K) and b over the orbits of Aut(G) on its outer factor,
    and then to close the summand keys under Aut(G) on both sides.  A
    twisted witness keeps its representative h, because the twist leaves
    the middle coordinates, and with them the double cosets, unchanged.
    """
    lefts, rights = _kept_factors(G, K, C)
    if not lefts:
        return {}
    emb_gg = product_embedding(G, G)
    emb_gk = product_embedding(G, K)
    emb_kg = product_embedding(K, G)
    amb = emb_gg.ambient
    gens = _aut_generators(G)
    lefts = _orbit_representatives(
        lefts, emb_gk.ambient,
        [_side_map(emb_gk, emb_gk, 0, s) for s in gens]
        + [_side_map(emb_gk, emb_gk, 1, s) for s in _aut_generators(K)])
    rights = _orbit_representatives(
        rights, emb_kg.ambient,
        [_side_map(emb_kg, emb_kg, 1, s) for s in gens])
    one = tuple(range(G.order))
    found = {}
    for a in lefts:
        for b in rights:
            for h, mask, delta in _compose_raw(
                    emb_gk, emb_kg, C, a.D.elements, a.delta.images,
                    b.D.elements, b.delta.images):
                raw = _canonical_raw(amb, mask, delta)
                if raw not in found:
                    found[raw] = (a, b, h, one, one)
    moves = [(side, s, _side_map(emb_gg, emb_gg, side, s))
             for side in (0, 1) for s in gens]
    stack = list(found)
    while stack:
        raw = stack.pop()
        a, b, h, sigma, tau = found[raw]
        elements = mask_to_elements(raw[0])
        for side, s, perm in moves:
            new = _canonical_raw(amb,
                                 *_permute_raw(perm, elements, raw[1]))
            if new in found:
                continue
            if side == 0:
                found[new] = (a, b, h, tuple(s[x] for x in sigma), tau)
            else:
                found[new] = (a, b, h, sigma, tuple(s[x] for x in tau))
            stack.append(new)
    return found


def _twisted(X: TransitiveFibredBiset, side: int, images: tuple,
             target: Optional[FiniteGroup] = None) -> TransitiveFibredBiset:
    """X with a map applied to one factor (0 = left, 1 = right): an
    automorphism of that factor, or an isomorphism onto ``target``.  The
    result is left uncanonicalized so that its compositions keep their
    double-coset representatives."""
    factors = [X.left, X.right]
    emb = emb_to = X.embedding
    if target is not None:
        factors[side] = target
        emb_to = product_embedding(*factors)
    elif images == tuple(range(len(images))):
        return X
    mask, delta = _permute_raw(_side_map(emb, emb_to, side, images),
                               X.D.elements, X.delta.images)
    return _class_from_raw(factors[0], factors[1], X.fibre, mask, delta)


def _sweep_witness(K: FiniteGroup, entry: tuple) -> FactorizationWitness:
    a, b, h, sigma, tau = entry
    return FactorizationWitness(K=K, a=_twisted(a, 0, sigma),
                                b=_twisted(b, 1, tau), which_summand=h)


def is_in_ideal(X: TransitiveFibredBiset) -> Optional[FactorizationWitness]:
    """Search for a factorization of X through a group of order < |G|.

    A class with a proper projection or a nontrivial reduced kernel gets
    its witness from the factorization through the projection quotient;
    the remaining candidates are settled by exhaustive search through the
    maximal catalog groups below |G| (None means no factorization exists).
    """
    if X.left is not X.right:
        raise GroupError("ideal membership is about classes over G x G")
    return _ideal_decision(X.left, X.fibre, canonicalize(X).raw)


@functools.cache
def _ideal_decision(G: FiniteGroup, C: FiniteGroup, raw: tuple
                    ) -> Optional[FactorizationWitness]:
    """Keyed by the canonical (mask, delta) pair rather than the class
    object, so that a decision costs no more memory than its key."""
    swept = _maximal_below(G)
    X = _class_from_raw(G, G, C, *raw, canonical=True)
    witness = _reduction_witness(X)
    if witness is None:
        for K in swept:
            entry = _ideal_sweep(G, C, K).get(raw)
            if entry is not None:
                return _sweep_witness(K, entry)
    return witness


def _candidates(G: FiniteGroup, C: FiniteGroup
                ) -> List[TransitiveFibredBiset]:
    """The classes X = (D, delta) over G x G with p1(D) = p2(D) = G and
    k1(ker delta) = k2(ker delta) = 1, in key order: the lefts that
    ``_kept_factors(G, G, C)`` builds whose right projection is full and
    whose inner reduced kernel is trivial."""
    emb = product_embedding(G, G)
    return [X for X in _kept_factors(G, G, C)[0]
            if projection(emb, X.D, (2,)).order == G.order
            and kernel_part(emb, X.delta.kernel(), (2,)).order == 1]


def hat_dimension(G: FiniteGroup, C: FiniteGroup
                  ) -> Tuple[int, List[TransitiveFibredBiset]]:
    """Number of canonical transitive classes over G x G that survive in
    the quotient, together with those classes (the working basis), in key
    order.

    Only the candidates of ``_candidates`` are decided (the sixth cut of
    the module docstring): any other class X = (D, delta) has a Bouc
    middle p_i(D)/k_i(ker delta) of order < |G|, through which
    ``_reduction_witness`` factors it, so it cannot survive.  No class
    over G x G is enumerated, so the fibre and the order of G x G are
    checked here, as the enumeration would."""
    _check_fibre(C)
    _check_subgroup_bound(G.order * G.order)
    survivors = [X for X in _candidates(G, C) if is_in_ideal(X) is None]
    return len(survivors), survivors


# ---------------------------------------------------------------------------
# prime-fibre structure


class HatGenerator:
    """A basis symbol of the quotient algebra for a prime-order fibre.

    Variant "X": a character t: G -> C and an outer representative sigma;
    the class of the sigma-twisted diagonal with character read off t.
    Variant "Y": an outer representative omega and an injective fibre
    embedding zeta: C -> Z(G) meeting the Frattini subgroup.
    """

    __slots__ = ("variant", "group", "fibre", "t", "sigma", "omega", "zeta")

    def __init__(self, variant: str, group: FiniteGroup, fibre: FiniteGroup,
                 t: Optional[GroupHom] = None,
                 sigma: Optional[GroupHom] = None,
                 omega: Optional[GroupHom] = None,
                 zeta: Optional[GroupHom] = None):
        self.variant = variant
        self.group = group
        self.fibre = fibre
        self.t = t
        self.sigma = sigma
        self.omega = omega
        self.zeta = zeta
        if variant not in ("X", "Y"):
            raise GroupError("generator variant must be 'X' or 'Y'")

    def key(self):
        if self.variant == "X":
            return ("X", self.t.images, self.sigma.images)
        return ("Y", self.omega.images, self.zeta.images)

    def __eq__(self, other):
        return (isinstance(other, HatGenerator)
                and self.group is other.group and self.fibre is other.fibre
                and self.key() == other.key())

    def __hash__(self):
        return hash((id(self.group), id(self.fibre), self.key()))

    def describe(self) -> str:
        if self.variant == "X":
            return f"X[t={self.t.images}, sigma={self.sigma.images}]"
        return f"Y[omega={self.omega.images}, zeta={self.zeta.images}]"

    def __repr__(self):
        return f"HatGenerator({self.describe()} over {self.group.name})"


class HatElement:
    """A rational combination of hat generators."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Dict[HatGenerator, Fraction]):
        self.coefficients = {g: Fraction(v)
                             for g, v in coefficients.items() if v != 0}

    @classmethod
    def zero(cls) -> "HatElement":
        return cls({})

    @classmethod
    def of(cls, gen: HatGenerator, coeff=1) -> "HatElement":
        return cls({gen: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other):
        out = dict(self.coefficients)
        for g, v in other.coefficients.items():
            out[g] = out.get(g, Fraction(0)) + v
        return HatElement(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, k) -> "HatElement":
        return HatElement({g: v * k for g, v in self.coefficients.items()})

    def __eq__(self, other):
        return (isinstance(other, HatElement)
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(frozenset((g, v) for g, v in self.coefficients.items()))

    def __repr__(self):
        if not self.coefficients:
            return "HatElement(0)"
        bits = [f"{v}*{g.describe()}" for g, v in self.coefficients.items()]
        return "HatElement(" + " + ".join(sorted(bits)) + ")"


def is_prime(n: int) -> bool:
    """Trial division; fibre orders are small."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _require_prime_fibre(C: FiniteGroup):
    if not is_prime(C.order):
        raise GroupError("this operation needs a fibre of prime order")


def _fibre_embeddings(G: FiniteGroup, C: FiniteGroup,
                      into_frattini: bool = True) -> List[GroupHom]:
    """Injective homomorphisms from the prime fibre into Z(G) (optionally
    restricted to land inside the Frattini subgroup)."""
    p = C.order
    zmask = center(G).mask
    if into_frattini:
        zmask &= frattini(G).mask
    out = []
    for z in mask_to_elements(zmask):
        if G.element_order(z) != p:
            continue
        images = [0]
        cur = z
        for _ in range(p - 1):
            images.append(cur)
            cur = G.mul(cur, z)
        out.append(GroupHom(C, G, tuple(images), _validate=False))
    out.sort(key=lambda h: h.images)
    return out


def hat_basis_prime(G: FiniteGroup, C: FiniteGroup) -> List[HatGenerator]:
    """Generators of the quotient algebra for a prime fibre: X[t, sigma]
    for every character t and outer representative sigma, plus Y[omega,
    zeta] for every outer representative and fibre embedding into the
    center-intersect-Frattini subgroup (only possible when the prime
    divides the center's order)."""
    _require_prime_fibre(C)
    auts = automorphisms(G)
    gens = [HatGenerator("X", G, C, t=t, sigma=s)
            for t in homomorphisms(G, C)
            for s in auts.out_representatives]
    if center(G).order % C.order == 0:
        gens.extend(HatGenerator("Y", G, C, omega=w, zeta=z)
                    for w in auts.out_representatives
                    for z in _fibre_embeddings(G, C))
    return gens


def hat_generator_class(gen: HatGenerator) -> TransitiveFibredBiset:
    """The canonical transitive class over G x G attached to a generator."""
    G, C = gen.group, gen.fibre
    emb = product_embedding(G, G)
    cinv = C.inverses
    if gen.variant == "X":
        t, sigma = gen.t, gen.sigma
        pairs = [(emb.encode(sigma.images[g], g), cinv[t.images[g]])
                 for g in range(G.order)]
    else:
        omega, zeta = gen.omega, gen.zeta
        pairs = [(emb.encode(G.mul(omega.images[g], zeta.images[c]), g),
                  cinv[c])
                 for g in range(G.order) for c in range(C.order)]
    return _canonical_class(G, G, C, *pairs_to_raw(pairs))


def y_type_class(G: FiniteGroup, C: FiniteGroup, omega: GroupHom,
                 zeta: GroupHom) -> TransitiveFibredBiset:
    """The class of {(omega(g) zeta(c), g)} with character c -> c^-1, for
    any injective zeta into the center (not necessarily Frattini-bound)."""
    gen = HatGenerator("Y", G, C, omega=omega, zeta=zeta)
    return hat_generator_class(gen)


def frattini_criterion(G: FiniteGroup, C: FiniteGroup,
                       zeta: GroupHom) -> bool:
    """Whether every character G -> C kills the image of zeta."""
    return all(all(mu.images[z] == 0 for z in zeta.images[1:])
               for mu in homomorphisms(G, C))


def hat_multiply(a: HatGenerator, b: HatGenerator) -> HatElement:
    """Product of two generators, re-canonicalized to basis symbols.

    X.X always lands on an X generator; Y.Y survives only when the left
    omega transports the right zeta onto the left one; the mixed products
    survive exactly when an induced self-map (of the fibre for X.Y, of
    the group for Y.X) is an automorphism.
    """
    if a.group is not b.group or a.fibre is not b.fibre:
        raise GroupError("generators live over different groups")
    G, C = a.group, a.fibre
    _require_prime_fibre(C)
    reps = automorphisms(G).out_rep_of

    if a.variant == "X" and b.variant == "X":
        t1, s1 = a.t.images, a.sigma.images
        t2, s2 = b.t.images, b.sigma.images
        t = tuple(C.mul(t1[s2[g]], t2[g]) for g in range(G.order))
        sigma = reps[tuple(s1[s2[g]] for g in range(G.order))]
        return HatElement.of(HatGenerator(
            "X", G, C, t=GroupHom(G, C, t, _validate=False), sigma=sigma))

    if a.variant == "Y" and b.variant == "Y":
        w, z = a.omega.images, a.zeta.images
        al, ch = b.omega.images, b.zeta.images
        if tuple(w[ch[c]] for c in range(C.order)) != z:
            return HatElement.zero()
        omega = reps[tuple(w[al[g]] for g in range(G.order))]
        return HatElement.of(HatGenerator("Y", G, C, omega=omega,
                                          zeta=a.zeta))

    if a.variant == "X" and b.variant == "Y":
        t, s = a.t.images, a.sigma.images
        w, z = b.omega.images, b.zeta.images
        r = tuple(C.mul(t[z[c]], c) for c in range(C.order))
        if len(set(r)) != C.order:
            return HatElement.zero()
        r_inv = [0] * C.order
        for c, rc in enumerate(r):
            r_inv[rc] = c
        s_map = tuple(G.mul(w[g], z[r_inv[t[w[g]]]])
                      for g in range(G.order))
        if len(set(s_map)) != G.order:
            raise GroupError("induced group map failed to be bijective")
        omega = reps[tuple(s[s_map[g]] for g in range(G.order))]
        zeta = tuple(s[z[r_inv[c]]] for c in range(C.order))
        return HatElement.of(HatGenerator(
            "Y", G, C, omega=omega,
            zeta=GroupHom(C, G, zeta, _validate=False)))

    # Y . X
    w, z = a.omega.images, a.zeta.images
    t, s = b.t.images, b.sigma.images
    m = tuple(G.mul(w[s[g]], z[t[g]]) for g in range(G.order))
    if len(set(m)) != G.order:
        return HatElement.zero()
    omega = reps[m]
    return HatElement.of(HatGenerator("Y", G, C, omega=omega, zeta=a.zeta))


def transport_hat_generator(gen: HatGenerator,
                            phi: GroupHom) -> HatGenerator:
    """Move a generator along an isomorphism phi: G -> H."""
    if not phi.is_bijective or phi.domain is not gen.group:
        raise GroupError("transport needs an isomorphism out of the "
                         "generator's group")
    H = phi.codomain
    reps = automorphisms(H).out_rep_of
    phi_inv = [0] * H.order
    for g in range(gen.group.order):
        phi_inv[phi.images[g]] = g
    if gen.variant == "X":
        t = tuple(gen.t.images[phi_inv[h]] for h in range(H.order))
        sigma = reps[tuple(phi.images[gen.sigma.images[phi_inv[h]]]
                           for h in range(H.order))]
        return HatGenerator("X", H, gen.fibre,
                            t=GroupHom(H, gen.fibre, t, _validate=False),
                            sigma=sigma)
    omega = reps[tuple(phi.images[gen.omega.images[phi_inv[h]]]
                       for h in range(H.order))]
    zeta = tuple(phi.images[z] for z in gen.zeta.images)
    return HatGenerator("Y", H, gen.fibre, omega=omega,
                        zeta=GroupHom(gen.fibre, H, zeta, _validate=False))


def verify_hat_vs_quotient(G: FiniteGroup, C: FiniteGroup,
                           check: bool = False) -> dict:
    """Check the generator product rules against the ring: multiply the
    attached classes with compose, drop ideal summands, and compare with
    hat_multiply on every generator pair.  With ``check`` every
    composition is also cross-checked against the orbit oracle."""
    gens = hat_basis_prime(G, C)
    classes = {g: hat_generator_class(g) for g in gens}
    by_raw = {cls.raw: g for g, cls in classes.items()}
    if len(by_raw) != len(gens):
        raise GroupError("generator classes are not distinct")
    mismatches = []
    for a in gens:
        ea = element_of(classes[a])
        for b in gens:
            predicted = hat_multiply(a, b)
            composed = compose(ea, element_of(classes[b]), check=check)
            reduced: Dict[HatGenerator, Fraction] = {}
            unknown = []
            for cls, coeff in composed.terms.items():
                if is_in_ideal(cls) is not None:
                    continue
                gen = by_raw.get(cls.raw)
                if gen is None:
                    unknown.append(cls)
                else:
                    reduced[gen] = (reduced.get(gen, Fraction(0))
                                    + Fraction(coeff))
            if unknown or HatElement(reduced) != predicted:
                mismatches.append({
                    "left": a.describe(),
                    "right": b.describe(),
                    "predicted": repr(predicted),
                    "reduced": repr(HatElement(reduced)),
                    "unknown_summands": [c.describe() for c in unknown],
                })
    return {
        "group": G.name,
        "fibre": C.name,
        "generators": len(gens),
        "pairs": len(gens) ** 2,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def seed_index(catalog: List[FiniteGroup], C: FiniteGroup) -> List[dict]:
    """Index data of the classification for a prime fibre: for each group
    the parametrizing algebra with its dimension and generator census.
    (Only the index side; no module theory of the algebras themselves.)"""
    _require_prime_fibre(C)
    out = []
    for G in catalog:
        gens = hat_basis_prime(G, C)
        n_x = sum(1 for g in gens if g.variant == "X")
        n_y = len(gens) - n_x
        algebra = ("group algebra of Hom(G,C) x| Out(G)" if n_y == 0 else
                   "R[Out(G) x Y_G] (+) group algebra of Hom(G,C) x| Out(G)")
        out.append({
            "group": G.name,
            "order": G.order,
            "algebra": algebra,
            "dimension": len(gens),
            "x_generators": n_x,
            "y_generators": n_y,
        })
    return out


# ---------------------------------------------------------------------------
# the counterexample, end to end


def counterexample_verify(catalog_bound: int = 7) -> dict:
    """Build the order-4 fibre example over the quaternion and dihedral
    groups of order 8 and check every step: projections and kernels, the
    closed form of W = X o X-op, idempotency, and the exhaustive absence
    of any factorization through a smaller group (on both sides).

    Returns a step-by-step report; raises VerificationError on the first
    failing step."""
    from .groups import _extend_hom, cyclic, dihedral, quaternion8
    from . import goursat

    steps = []

    def step(name, ok, detail=""):
        steps.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            raise VerificationError(name, detail)

    C = cyclic(4)
    G = quaternion8()
    H = dihedral(8)
    # the search covers every order below |G| whatever the bound; the
    # bound is kept only as this guard
    if catalog_bound < G.order - 1:
        raise BoundExceededError(
            f"catalog up to {catalog_bound} cannot cover orders below "
            f"{G.order}")
    kats = _catalog_below(G.order)
    emb = product_embedding(G, H)
    gens = [emb.encode(1, 1), emb.encode(4, 4)]  # (x,a), (y,b)
    D = emb.ambient.generated_subgroup(gens)
    step("subgroup D = <(x,a),(y,b)>", len(D) == 16, f"|D| = {len(D)}")

    images = _extend_hom(emb.ambient, D.elements, gens, C, (2, 3))
    step("character delta((x,a)) = c^2, delta((y,b)) = c^-1",
         images is not None, "generator assignment extends to D")
    delta = GroupHom(D, C, tuple(images[x] for x in D.elements),
                     _validate=False)
    val = delta.apply(emb.encode(2, 0))
    step("delta(x^2, 1) = c^2 != 1", val == 2, f"value index {val}")

    p1 = goursat.projection(emb, D, (1,))
    p2 = goursat.projection(emb, D, (2,))
    k1 = goursat.kernel_part(emb, D, (1,))
    k2 = goursat.kernel_part(emb, D, (2,))
    step("p1(D) = G and p2(D) = H",
         p1.order == G.order and p2.order == H.order,
         f"|p1| = {p1.order}, |p2| = {p2.order}")
    step("k1(D) = <x^2>", [G.label(x) for x in k1.elements] == ["1", "x2"],
         str([G.label(x) for x in k1.elements]))
    step("k2(D) = <a^2>", [H.label(x) for x in k2.elements] == ["1", "a2"],
         str([H.label(x) for x in k2.elements]))

    X = canonicalize(TransitiveFibredBiset(G, H, C, D, delta,
                                           _validate=False))
    Xop = opposite(X)
    W = compose(element_of(X), element_of(Xop), check=True)

    embGG = product_embedding(G, G)
    dmap = delta.as_map()
    pairs = sorted((embGG.encode(g1, g2),
                    dmap[emb.encode(G.mul(g1, G.inv(g2)), 0)])
                   for g1 in range(G.order) for g2 in range(G.order)
                   if k1.contains(G.mul(g1, G.inv(g2))))
    closed = canonicalize(transitive_fibred_biset(
        G, G, C, [p[0] for p in pairs], [p[1] for p in pairs]))
    step("W = X o X-op matches the closed form over D' = "
         "{(g1,g2) : g1 g2^-1 in <x^2>}",
         W == element_of(closed), f"{len(W.terms)} term(s)")
    step("W o W = W", is_idempotent(W), "idempotent")

    step("catalog covers all orders below 8", len(kats) == 9,
         ", ".join(K.name for K in kats))
    wcls = next(iter(W.terms))
    witness = is_in_ideal(wcls)
    step("W does not factor through any group of order < 8",
         witness is None,
         "searched " + ", ".join(K.name for K in kats))

    WH = compose(element_of(Xop), element_of(X), check=True)
    step("W_H = X-op o X is idempotent over H x H", is_idempotent(WH),
         f"{len(WH.terms)} term(s)")
    whcls = next(iter(WH.terms))
    witness_h = is_in_ideal(whcls)
    step("W_H does not factor through any group of order < 8",
         witness_h is None,
         "searched " + ", ".join(K.name for K in kats))

    return {
        "ok": True,
        "fibre": C.name,
        "left_group": G.name,
        "right_group": H.name,
        "searched_groups": [K.name for K in kats],
        "swept_groups": [K.name for K in _maximal_below(G)],
        "ideal_membership_criterion":
            "class occurs as a summand of a single composition a o b "
            "through a group of smaller order",
        "steps": steps,
    }
