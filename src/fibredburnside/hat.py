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
  representative, as a twist of the outer factors leaves the middle
  coordinates, and with them the double cosets, unchanged.
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
against compose-then-reduce, with a seventh cut:

* Orbits of generator pairs.  The product rules are checked on every
  pair of generators, but compose runs on one pair per orbit of the
  group generated by (a, b) -> (phi a, phi b), phi in Aut(G), and
  (a, b) -> (op b, op a), acting on the generator classes.  Composition
  is equivariant under twists, (phi a phi^-1) o (phi b phi^-1) =
  phi (a o b) phi^-1, and anti-equivariant under the opposite,
  op(a o b) = op(b) o op(a); and a class is in the ideal exactly when
  its twist is, and its opposite, as the twist or the opposite of a
  factorization through K is one through K.  So when a symmetry maps
  every generator class onto a generator class, the reduced composite
  at the image of a pair is the image of the one at the pair.  The
  product table is checked to move the same way on every pair and every
  such symmetry, table[phi a][phi b] = phi(table[a][b]) and
  table[op b][op a] = op(table[a][b]), with no composition, and a wrong
  entry anywhere in an orbit either breaks such an edge or is carried to
  the representative, where composing catches it.  A symmetry that maps
  some generator class elsewhere is reported and not used.  Inner
  automorphisms fix every canonical class, so the generators of Aut(G)
  modulo them suffice.

The n^2 cross-check is kept in the test suite as the oracle for this one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .groups import (
    CATALOG_MAX_ORDER,
    BoundExceededError,
    FiniteGroup,
    GroupError,
    _check_subgroup_bound,
    automorphisms,
    center,
    conjugate_mask,
    frattini,
    homomorphisms,
    isomorphism,
    mask_to_elements,
    memoized,
    pairs_to_raw,
    product_embedding,
    quotient,
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
    "is_in_ideal",
    "hat_dimension",
    "hat_basis_prime",
    "hat_generator_class",
    "hat_multiply",
    "verify_hat_vs_quotient",
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


class FactorizationWitness(NamedTuple):
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
            "a": {"D": list(self.a.elements), "delta": list(self.a.delta)},
            "b": {"D": list(self.b.elements), "delta": list(self.b.delta)},
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
            a.elements, a.delta, b.elements, b.delta):
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


@memoized
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
    strictly smaller and has a catalog twin.  The left side is tried
    first, and X is Bouc-factorized only when one side has a smaller
    middle p_i(D)/k_i(ker delta)."""
    G = X.left
    emb = X.embedding
    D, reduced = X.subgroup_and_kernel()
    for side in (1, 2):
        if (projection(emb, D, (side,)).order == G.order
                and kernel_part(emb, reduced, (side,)).order == 1):
            continue
        fac = bouc_factorize(X)
        middle, left_cls, right_cls = (
            (fac.left_middle, fac.left_elementary, fac.beta1) if side == 1
            else (fac.right_middle, fac.beta2, fac.right_elementary))
        K, phi = _iso_to_catalog(middle)
        a = canonicalize(_twisted(left_cls, 1, phi, K))
        b = canonicalize(_twisted(right_cls, 0, phi, K))
        h = next(_summand_reps(X, a, b), None)
        if h is None:
            raise GroupError("constructed factorization lost the class")
        return FactorizationWitness(K=K, a=a, b=b, which_summand=h)
    return None


@memoized
def _aut_generators(G: FiniteGroup) -> Tuple[tuple, ...]:
    """Image tuples of a few automorphisms that generate Aut(G) together
    with the inner ones (which fix every canonical class)."""
    auts = automorphisms(G)
    reached = set(auts.inner)
    gens = []
    for rep in auts.out_representatives:
        if rep in reached:
            continue
        gens.append(rep)
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


@memoized
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
                or not any(len(set(h)) == N.order
                           for h in homomorphisms(N, C))):
            continue
        GQ, gproj = quotient(G, N)
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
                    iso = tuple(alpha[q] for q in phi)
                    V = rebuild_from_goursat(emb, GoursatData(
                        E=whole, k1=N, F=E, k2=k2, iso=iso, e_quotient=GQ,
                        e_projection=gproj, f_quotient=EQ,
                        f_projection=eproj))
                    at = [V.elements.index(x) for x in outer]
                    for nu in homomorphisms(V, C):
                        if len({nu[i] for i in at}) == len(at):
                            found.add(_canonical_raw(amb, V.mask, nu))
    lefts = [TransitiveFibredBiset(G, K, C, mask, delta)
             for mask, delta in sorted(found)]
    return lefts, sorted(map(opposite, lefts), key=lambda b: b.raw)


@memoized
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
    of a and b; ``_sweep_witness`` builds the witness from it.  Only orbit
    representatives of pairs are composed, and their summand keys are
    closed under Aut(G) on both sides (the second and third cuts of the
    module docstring).
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
    rights = [(b, b.elements) for b in rights]
    for a in lefts:
        a_elements = a.elements
        for b, b_elements in rights:
            for h, mask, delta in _compose_raw(
                    emb_gk, emb_kg, C, a_elements, a.delta,
                    b_elements, b.delta):
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
                               X.elements, X.delta)
    return TransitiveFibredBiset(factors[0], factors[1], X.fibre, mask, delta)


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


@memoized
def _ideal_decision(G: FiniteGroup, C: FiniteGroup, raw: tuple
                    ) -> Optional[FactorizationWitness]:
    """Keyed by the canonical (mask, delta) pair rather than the class
    object, so that a decision costs no more memory than its key."""
    swept = _maximal_below(G)
    X = TransitiveFibredBiset(G, G, C, *raw)
    witness = _reduction_witness(X)
    if witness is None:
        for K in swept:
            entry = _ideal_sweep(G, C, K).get(raw)
            if entry is not None:
                return _sweep_witness(K, entry)
    return witness


@memoized
def _candidates(G: FiniteGroup, C: FiniteGroup
                ) -> Tuple[TransitiveFibredBiset, ...]:
    """The classes X = (D, delta) over G x G with p1(D) = p2(D) = G and
    k1(ker delta) = k2(ker delta) = 1, in key order: the lefts that
    ``_kept_factors(G, G, C)`` builds whose right projection is full and
    whose inner reduced kernel is trivial."""
    emb = product_embedding(G, G)
    out = []
    for X in _kept_factors(G, G, C)[0]:
        D, kernel = X.subgroup_and_kernel()
        if (projection(emb, D, (2,)).order == G.order
                and kernel_part(emb, kernel, (2,)).order == 1):
            out.append(X)
    return tuple(out)


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


class _HatFields(NamedTuple):
    variant: str
    group: FiniteGroup
    fibre: FiniteGroup
    t: Optional[tuple] = None
    sigma: Optional[tuple] = None
    omega: Optional[tuple] = None
    zeta: Optional[tuple] = None


class HatGenerator(_HatFields):
    """A basis symbol of the quotient algebra for a prime-order fibre, as
    a tuple of its fields; the maps are image tuples.

    Variant "X": a character t: G -> C and an outer representative sigma;
    the class of the sigma-twisted diagonal with character read off t.
    Variant "Y": an outer representative omega and an injective fibre
    embedding zeta: C -> Z(G) landing in the Frattini subgroup.
    """

    __slots__ = ()

    def __new__(cls, variant: str, group: FiniteGroup, fibre: FiniteGroup,
                t: Optional[tuple] = None, sigma: Optional[tuple] = None,
                omega: Optional[tuple] = None, zeta: Optional[tuple] = None):
        if variant not in ("X", "Y"):
            raise GroupError("generator variant must be 'X' or 'Y'")
        return tuple.__new__(cls, (variant, group, fibre, t, sigma, omega,
                                   zeta))

    def describe(self) -> str:
        if self.variant == "X":
            return f"X[t={self.t}, sigma={self.sigma}]"
        return f"Y[omega={self.omega}, zeta={self.zeta}]"

    def __repr__(self):
        return f"HatGenerator({self.describe()} over {self.group.name})"


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


def _fibre_embeddings(G: FiniteGroup, C: FiniteGroup) -> List[tuple]:
    """Image tuples of the injective homomorphisms from the prime fibre
    into the center-intersect-Frattini subgroup, sorted."""
    p = C.order
    out = []
    for z in mask_to_elements(center(G).mask & frattini(G).mask):
        if G.element_order(z) != p:
            continue
        images = [0]
        cur = z
        for _ in range(p - 1):
            images.append(cur)
            cur = G.mul(cur, z)
        out.append(tuple(images))
    out.sort()
    return out


def hat_basis_prime(G: FiniteGroup, C: FiniteGroup) -> List[HatGenerator]:
    """Generators of the quotient algebra for a prime fibre: X[t, sigma]
    for every character t and outer representative sigma, plus Y[omega,
    zeta] for every outer representative and fibre embedding into the
    center-intersect-Frattini subgroup (only possible when the prime
    divides the center's order)."""
    _require_prime_fibre(C)
    reps = automorphisms(G).out_representatives
    gens = [HatGenerator("X", G, C, t=t, sigma=s)
            for t in homomorphisms(G, C) for s in reps]
    if center(G).order % C.order == 0:
        gens.extend(HatGenerator("Y", G, C, omega=w, zeta=z)
                    for w in reps for z in _fibre_embeddings(G, C))
    return gens


def hat_generator_class(gen: HatGenerator) -> TransitiveFibredBiset:
    """The canonical transitive class over G x G attached to a generator."""
    G, C = gen.group, gen.fibre
    emb = product_embedding(G, G)
    cinv = C.inverses
    if gen.variant == "X":
        t, sigma = gen.t, gen.sigma
        pairs = [(emb.encode(sigma[g], g), cinv[t[g]])
                 for g in range(G.order)]
    else:
        omega, zeta = gen.omega, gen.zeta
        pairs = [(emb.encode(G.mul(omega[g], zeta[c]), g), cinv[c])
                 for g in range(G.order) for c in range(C.order)]
    return _canonical_class(G, G, C, *pairs_to_raw(pairs))


def hat_multiply(a: HatGenerator, b: HatGenerator
                 ) -> Optional[HatGenerator]:
    """Product of two generators as the basis generator it equals, or None
    when it is zero.

    X.X always lands on an X generator, and Y.Y is zero unless the left
    omega transports the right zeta onto the left one.  The mixed products
    are never zero.  A Y generator's zeta lands in Z(G) meet Phi(G), and
    every character t: G -> C kills Phi(G), as its kernel is G or a
    maximal subgroup.  So in X.Y the fibre map c -> t(zeta(c)) c is the
    identity, and both mixed rules read a group map g -> alpha(g)
    zeta(t'(g)^-1), with alpha an automorphism and t' a character.  As
    zeta is central that map is a homomorphism, and its image generates G
    together with Phi(G), so it is onto: an automorphism.
    """
    if a.group is not b.group or a.fibre is not b.fibre:
        raise GroupError("generators live over different groups")
    G, C = a.group, a.fibre
    _require_prime_fibre(C)
    reps = automorphisms(G).out_rep_of
    cinv = C.inverses
    els = range(G.order)

    if a.variant == "X" and b.variant == "X":
        t1, s1 = a.t, a.sigma
        t2, s2 = b.t, b.sigma
        t = tuple(C.mul(t1[s2[g]], t2[g]) for g in els)
        sigma = reps[tuple(s1[s2[g]] for g in els)]
        return HatGenerator("X", G, C, t=t, sigma=sigma)

    if a.variant == "Y" and b.variant == "Y":
        w, z = a.omega, a.zeta
        al, ch = b.omega, b.zeta
        if tuple(w[x] for x in ch) != z:
            return None
        omega = reps[tuple(w[al[g]] for g in els)]
        return HatGenerator("Y", G, C, omega=omega, zeta=z)

    if a.variant == "X":
        t, s = a.t, a.sigma
        w, z = b.omega, b.zeta
        omega = reps[tuple(s[G.mul(w[g], z[cinv[t[w[g]]]])]
                           for g in els)]
        return HatGenerator("Y", G, C, omega=omega,
                            zeta=tuple(s[x] for x in z))

    # Y . X
    w, z = a.omega, a.zeta
    t, s = b.t, b.sigma
    omega = reps[tuple(G.mul(w[s[g]], z[cinv[t[g]]]) for g in els)]
    return HatGenerator("Y", G, C, omega=omega, zeta=z)


def _product_table(gens: List[HatGenerator],
                   position: Dict[HatGenerator, int],
                   mismatches: list) -> List[List[int]]:
    """hat_multiply on every generator pair, each product stored at once as
    the index of its generator, or -1 for zero.  A product that is not a
    basis generator is recorded as a mismatch and stored as zero."""
    table = []
    for a in gens:
        row = []
        for b in gens:
            g = hat_multiply(a, b)
            cell = -1 if g is None else position.get(g, -1)
            if g is not None and cell < 0:
                mismatches.append({
                    "left": a.describe(), "right": b.describe(),
                    "predicted": g.describe(),
                    "detail": "not a basis generator"})
            row.append(cell)
        table.append(row)
    return table


def _generator_moves(G: FiniteGroup, gens: List[HatGenerator],
                     classes: List[TransitiveFibredBiset],
                     index: Dict[tuple, int], mismatches: list
                     ) -> List[Tuple[List[int], bool, str]]:
    """The symmetries of the check as permutations of generator indices,
    read off the generator classes: each class is mapped and its key looked
    up in ``index``.  There is one (phi, phi)-twist per automorphism phi of
    ``_aut_generators(G)``, and ``opposite``.  Each move is (permutation,
    whether it swaps the two factors, name).  A symmetry that maps some
    generator class outside the generator classes is recorded as a
    mismatch and left out, so the orbits are only finer."""
    emb = product_embedding(G, G)
    amb = emb.ambient
    pairs = [(cls.elements, cls.delta) for cls in classes]
    symmetries = []
    for images in _aut_generators(G):
        # the element map of G x G, built once per automorphism
        twist = [emb.encode(images[g1], images[g2]) for g1, g2 in emb.coords]
        symmetries.append((f"automorphism {list(images)}", False, [
            _canonical_raw(amb, *_permute_raw(twist, *pair))
            for pair in pairs]))
    symmetries.append(("opposite", True,
                       [opposite(cls).raw for cls in classes]))
    moves = []
    for name, swap, raws in symmetries:
        perm = [index.get(raw, -1) for raw in raws]
        if -1 in perm:
            mismatches.append({
                "generator": gens[perm.index(-1)].describe(),
                "symmetry": name,
                "detail": "the image class is not a generator class"})
        else:
            moves.append((perm, swap, name))
    return moves


def verify_hat_vs_quotient(G: FiniteGroup, C: FiniteGroup,
                           check: bool = False) -> dict:
    """Check the generator product rules against the ring: multiply the
    attached classes with compose, drop ideal summands, and compare with
    hat_multiply, for every generator pair.  With ``check`` every
    composition is also cross-checked against the orbit oracle.
    ``hat_multiply`` runs on all n^2 pairs, ``compose`` on one pair per
    orbit of generator pairs (the seventh cut of the module docstring).

    The report gives the checked table, as generator indices with -1 for
    zero, under ``"table"``; ``"pairs"`` counts the pairs checked,
    ``"composed"`` the compositions made, and ``"mismatches"`` lists the
    disagreements, with ``"ok"`` true when there is none."""
    gens = hat_basis_prime(G, C)
    n = len(gens)
    classes = [hat_generator_class(g) for g in gens]
    index = {cls.raw: i for i, cls in enumerate(classes)}
    if len(index) != n:
        raise GroupError("generator classes are not distinct")
    position = {g: i for i, g in enumerate(gens)}
    mismatches = []
    table = _product_table(gens, position, mismatches)
    moves = _generator_moves(G, gens, classes, index, mismatches)

    def describe(cell: int) -> str:
        return "0" if cell < 0 else gens[cell].describe()

    # orbits of pairs a * n + b, found by a traversal that checks every
    # edge; the first pair of each orbit in index order represents it
    seen = bytearray(n * n)
    reps = []
    for start in range(n * n):
        if seen[start]:
            continue
        seen[start] = 1
        reps.append(start)
        stack = [start]
        while stack:
            a, b = divmod(stack.pop(), n)
            cell = table[a][b]
            for perm, swap, name in moves:
                x, y = (perm[b], perm[a]) if swap else (perm[a], perm[b])
                image = perm[cell] if cell >= 0 else -1
                if table[x][y] != image:
                    mismatches.append({
                        "left": gens[x].describe(),
                        "right": gens[y].describe(),
                        "predicted": describe(table[x][y]),
                        "symmetry": name,
                        "image": describe(image)})
                q = x * n + y
                if not seen[q]:
                    seen[q] = 1
                    stack.append(q)

    for pair in reps:
        a, b = divmod(pair, n)
        composed = compose(element_of(classes[a]), element_of(classes[b]),
                           check=check)
        # distinct summands are distinct classes, so no index repeats
        reduced = {}
        unknown = []
        for cls, coeff in composed.terms.items():
            if is_in_ideal(cls) is not None:
                continue
            i = index.get(cls.raw)
            if i is None:
                unknown.append(cls)
            else:
                reduced[i] = coeff
        cell = table[a][b]
        if unknown or reduced != ({} if cell < 0 else {cell: 1}):
            mismatches.append({
                "left": gens[a].describe(),
                "right": gens[b].describe(),
                "predicted": describe(cell),
                "reduced": " + ".join(sorted(
                    f"{v}*{gens[i].describe()}"
                    for i, v in reduced.items())) or "0",
                "unknown_summands": [c.describe() for c in unknown],
            })
    return {
        "group": G.name,
        "fibre": C.name,
        "generators": n,
        "pairs": n * n,
        "composed": len(reps),
        "mismatches": mismatches,
        "ok": not mismatches,
        "table": table,
    }


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
    step("subgroup D = <(x,a),(y,b)>", D.order == 16, f"|D| = {D.order}")

    images = _extend_hom(emb.ambient, D.elements, gens, C, (2, 3))
    step("character delta((x,a)) = c^2, delta((y,b)) = c^-1",
         images is not None, "generator assignment extends to D")
    val = images[emb.encode(2, 0)]
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

    X = canonicalize(TransitiveFibredBiset(
        G, H, C, D.mask, tuple(images[x] for x in D.elements)))
    Xop = opposite(X)
    W = compose(element_of(X), element_of(Xop), check=True)

    embGG = product_embedding(G, G)
    pairs = sorted((embGG.encode(g1, g2),
                    images[emb.encode(G.mul(g1, G.inv(g2)), 0)])
                   for g1 in range(G.order) for g2 in range(G.order)
                   if (k1.mask >> G.mul(g1, G.inv(g2))) & 1)
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
