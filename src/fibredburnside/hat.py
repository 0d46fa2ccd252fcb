"""The quotient algebra of classes over G x G modulo everything that
factors through strictly smaller groups.

Membership in the ideal is decided by the summand criterion: a canonical
transitive class is in the ideal exactly when it appears as a summand of
some composition a o b with a over G x K, b over K x G and |K| < |G|.
Classes whose projections or reduced kernels are proper factor through a
quotient of a projection and get an explicit constructed witness, from
the Bouc factorization of the one side they use.  The
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
  over those of Aut(G) on its outer factor.  ``_orbits`` walks each from
  its root, its first class in key order, and reaches every member by a
  word (sigma, tau), the automorphisms of the two factors that carry the
  root to it.
* Closure.  Twists keep factors kept.  A kept pair is
  (sigma a kappa^-1, b') with a a representative and kappa^-1 b' = b tau
  with b one, so its composite is sigma (a o b) tau, and each
  sigma X tau, X a summand of a o b, is a summand of the kept pair
  (sigma a, b tau).  So the summands of all kept pairs are the orbits of
  the representatives' summands under Aut(G) on both sides: one walk of
  ``_orbits`` with those as roots.  A key's word twists its root's
  witness along, which keeps its double-coset representative, as a twist
  of the outer factors leaves the middle coordinates unchanged.
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
  over G x K is enumerated.  theta runs over one representative per
  coset of Inn(G/N) in Aut(G/N): conjugation by (h, 1) carries the V of
  theta to the V of c_hN o theta and fixes N x 1 pointwise, as N is
  central, so it carries the characters injective on N x 1 onto each
  other and keeps every canonical key.  The kept right factors over
  K x G are the opposites of the lefts.  When Z(G) has no nontrivial
  subgroup that embeds in C (S3, D10, A4, or a fibre of order prime to
  |Z(G)|) there are no lefts, and the sweep through every K is empty.

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
  classes).  Both read the test of one side from ``_full_side``.

The unreduced sweep is kept in the test suite as the oracle for this one,
and the kept factors are held there to the full-projection classes
filtered by their outer reduced kernels; the candidates and survivors are
held there to the whole basis decided class by class.

For a fibre of prime order the surviving classes have a closed
description: diagonal classes X(t, s) indexed by characters t and outer
automorphisms s, plus central classes Y(w, z) indexed by outer
automorphisms w and fibre embeddings z into the center-intersect-Frattini
subgroup, the injective members of ``homomorphisms(C, G)`` that land
there.  They multiply like Gamma = Hom(G, C) x| Out(G) and the action
groupoid of Out(G) on the embeddings.  With mu(t, z) the outer class of
the automorphism g -> g z(t(g))^-1 (see ``hat_multiply``):

* X(t1, s1) X(t2, s2) = X((t1 o s2) t2, s1 s2);
* Y(w, z) Y(a, y) = Y(w a, z) when w o y = z, and 0 otherwise;
* X(t, s) Y(w, z) = Y(s mu(t, z) w, s o z);
* Y(w, z) X(t, s) = Y(mu(t o phi^-1, z) phi, z), with phi = w s: the
  map g -> w(s(g)) z(t(g))^-1 is phi followed by h -> h z(t(phi^-1 h))^-1.

They are well defined on outer classes: a character into the abelian C is
constant on conjugacy classes, so t o s only depends on the class of s,
and z lands in Z(G), so s o z and w o y do too; the class of a composite
of automorphisms is the product of their classes.  ``_hat_table`` reads
every product off index tables of Gamma, and ``hat_multiply``, the
one-pair reference on image tuples, is held to it cell by cell in the
test suite.  The table is verified against
compose-then-reduce, with a seventh cut:

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

The generators, the index tables of Gamma, the generator classes and the
symmetry moves depend on (G, C) alone: they are one record,
``_prime_data``, built once per (G, C) in the memo of the younger group,
and ``hat_basis_prime`` reads the generators from it.  The table, the
orbit traversal, the compositions and the ideal decisions run on every
check.  The n^2 cross-check is kept in the test suite as the oracle for
this one.
"""

from __future__ import annotations

from operator import add
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .groups import (
    CATALOG_MAX_ORDER,
    BoundExceededError,
    FiniteGroup,
    GroupError,
    _check_bound,
    _permute_raw,
    automorphisms,
    center,
    conjugate_mask,
    frattini,
    homomorphisms,
    isomorphism,
    mask_to_elements,
    memoized,
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
    FibredElement,
    TransitiveFibredBiset,
    _bouc_side,
    _canonical_raw,
    _check_fibre,
    _compose_raw,
    _graph_class,
    canonicalize,
    compose,
    element_of,
    is_idempotent,
    opposite,
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
    for h, mask, delta in _compose_raw(a, b):
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
    (1 = left, 2 = right) and keeps the other."""
    if side == 1:
        return [emb_to.encode(images[g], h) for g, h in emb_from.coords]
    return [emb_to.encode(g, images[h]) for g, h in emb_from.coords]


def _full_side(emb, D, kernel, side: int) -> bool:
    """Whether a class (D, delta) over ``emb`` with ker delta = ``kernel``
    has p_side(D) the whole factor and k_side(ker delta) = 1, for side 1
    (left) or 2 (right): the test of the sixth cut of the module
    docstring."""
    return (projection(emb, D, side).order == emb.factors[side - 1].order
            and kernel_part(emb, kernel, side).order == 1)


def _reduction_witness(X: TransitiveFibredBiset
                       ) -> Optional[FactorizationWitness]:
    """Constructed witness when a projection or reduced kernel is proper:
    the class then factors through the quotient of a projection, which is
    strictly smaller and has a catalog twin.  The left side is tried
    first, and X is factored, on that side alone, only when it has a
    smaller middle p_i(D)/k_i(ker delta)."""
    emb = X.embedding
    D, kernel = X.subgroup_and_kernel()
    for side in (1, 2):
        if _full_side(emb, D, kernel, side):
            continue
        middle, left_cls, right_cls = _bouc_side(X, side)
        K, phi = _iso_to_catalog(middle)
        a = canonicalize(_twisted(left_cls, 2, phi, K))
        b = canonicalize(_twisted(right_cls, 1, phi, K))
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


def _orbits(emb, seeds, moves) -> Dict[tuple, tuple]:
    """The canonical class keys over the two factors of ``emb`` reached
    from the keys ``seeds`` by ``moves``, (side, automorphism) twists of
    one factor (1 = left, 2 = right).  Every seed is a root, and the keys
    are walked depth first from the last seed.  Each key maps to
    (root, sigma, tau): the key is the root twisted by the automorphisms
    sigma of the left and tau of the right factor (image tuples)."""
    amb = emb.ambient
    steps = [(side, s, _side_map(emb, emb, side, s)) for side, s in moves]
    one = tuple(tuple(range(f.order)) for f in emb.factors)
    found = {key: (key,) + one for key in seeds}
    stack = list(found)
    while stack:
        key = stack.pop()
        root, *word = found[key]
        elements = mask_to_elements(key[0])
        for side, s, perm in steps:
            new = _canonical_raw(amb, *_permute_raw(perm, elements, key[1]))
            if new not in found:
                twist = list(word)
                twist[side - 1] = tuple(s[x] for x in word[side - 1])
                found[new] = (root, *twist)
                stack.append(new)
    return found


def _kept_factors(G: FiniteGroup, K: FiniteGroup, C: FiniteGroup
                  ) -> List[TransitiveFibredBiset]:
    """The left factors the sweep through K composes, as canonical classes
    in key order: a = (V, nu) over G x K with p1(V) = G and
    k1(ker nu) = 1.  Their opposites are the rights, the classes over
    K x G with p2(U) = G and k2(ker mu) = 1.

    A left is built from its Goursat data (the fifth cut of the module
    docstring): N = k1(V) is central and embeds in C, k2 is normal in
    E = p2(V) <= K, and theta: E/k2 -> G/N is an isomorphism; nu runs over
    the characters of V that are injective on N x 1.  theta is taken up to
    Inn(G/N), as ``alpha o phi`` with alpha an outer representative:
    V_theta = {(g, k) : gN = theta(k k2)}, and conjugation by (h, 1)
    carries it to V_(c_hN o theta) and fixes N x 1 pointwise, N being
    central: nu stays injective there, and the other thetas of a coset
    give the same canonical classes."""
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
        alphas = automorphisms(GQ).out_representatives
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
                for alpha in alphas:
                    iso = tuple(alpha[q] for q in phi)
                    V = rebuild_from_goursat(emb, GoursatData(
                        E=whole, k1=N, F=E, k2=k2, iso=iso, e_quotient=GQ,
                        e_projection=gproj, f_quotient=EQ,
                        f_projection=eproj))
                    at = [V.elements.index(x) for x in outer]
                    for nu in homomorphisms(V, C):
                        if len({nu[i] for i in at}) == len(at):
                            found.add(_canonical_raw(amb, V.mask, nu))
    return [TransitiveFibredBiset(G, K, C, mask, delta)
            for mask, delta in sorted(found)]


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
    of a and b; ``_sweep_witness`` builds the witness from it.  A left or
    right is a representative when no earlier one's orbit holds it, and
    the summands of pairs of representatives are the roots of one more
    walk of ``_orbits``, under Aut(G) on both sides: a key's root is the
    summand of a o b at h, and its word is (sigma, tau) (the second and
    third cuts of the module docstring)."""
    lefts = _kept_factors(G, K, C)
    if not lefts:
        return {}
    rights = sorted(map(opposite, lefts), key=lambda b: b.raw)
    gens = _aut_generators(G)
    reps = []
    for classes, emb, moves in (
            (lefts, product_embedding(G, K),
             [(1, s) for s in gens] + [(2, s) for s in _aut_generators(K)]),
            (rights, product_embedding(K, G), [(2, s) for s in gens])):
        reached = {}
        reps.append([])
        for cls in classes:
            if cls.raw not in reached:
                reps[-1].append(cls)
                reached.update(_orbits(emb, [cls.raw], moves))
    emb_gg = product_embedding(G, G)
    summands = {}
    for a in reps[0]:
        for b in reps[1]:
            for h, mask, delta in _compose_raw(a, b):
                summands.setdefault(
                    _canonical_raw(emb_gg.ambient, mask, delta), (a, b, h))
    closure = _orbits(emb_gg, summands,
                      [(side, s) for side in (1, 2) for s in gens])
    return {key: summands[root] + (sigma, tau)
            for key, (root, sigma, tau) in closure.items()}


def _twisted(X: TransitiveFibredBiset, side: int, images: tuple,
             target: Optional[FiniteGroup] = None) -> TransitiveFibredBiset:
    """X with a map applied to one factor (1 = left, 2 = right): an
    automorphism of that factor, or an isomorphism onto ``target``.  The
    result is left uncanonicalized so that its compositions keep their
    double-coset representatives."""
    factors = [X.left, X.right]
    emb = emb_to = X.embedding
    if target is not None:
        factors[side - 1] = target
        emb_to = product_embedding(*factors)
    elif images == tuple(range(len(images))):
        return X
    mask, delta = _permute_raw(_side_map(emb, emb_to, side, images),
                               X.elements, X.delta)
    return TransitiveFibredBiset(factors[0], factors[1], X.fibre, mask, delta)


def _sweep_witness(K: FiniteGroup, entry: tuple) -> FactorizationWitness:
    a, b, h, sigma, tau = entry
    return FactorizationWitness(K=K, a=_twisted(a, 1, sigma),
                                b=_twisted(b, 2, tau), which_summand=h)


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
    ``_kept_factors(G, G, C)`` builds whose right side is full too."""
    emb = product_embedding(G, G)
    return tuple(X for X in _kept_factors(G, G, C)
                 if _full_side(emb, *X.subgroup_and_kernel(), 2))


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
    _check_bound("subgroup enumeration", G.order * G.order)
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
    """Image tuples of the injective homomorphisms from the fibre into the
    center-intersect-Frattini subgroup, sorted: the members of
    ``homomorphisms(C, G)`` that are injective and land there."""
    target = center(G).mask & frattini(G).mask
    return [z for z in homomorphisms(C, G)
            if len(set(z)) == C.order and all(target >> x & 1 for x in z)]


def hat_basis_prime(G: FiniteGroup, C: FiniteGroup) -> List[HatGenerator]:
    """Generators of the quotient algebra for a prime fibre: X[t, sigma]
    for every character t and outer representative sigma, plus Y[omega,
    zeta] for every outer representative and fibre embedding into the
    center-intersect-Frattini subgroup (only possible when the prime
    divides the center's order), in the index order of ``_prime_data``."""
    return list(_prime_data(G, C).gens)


def hat_generator_class(gen: HatGenerator) -> TransitiveFibredBiset:
    """The canonical transitive class over G x G attached to a generator."""
    G, C = gen.group, gen.fibre
    els = range(G.order)
    cinv = C.inverses
    if gen.variant == "X":
        return _graph_class(G, G, C, zip(gen.sigma, els),
                            map(cinv.__getitem__, gen.t))
    # the pair (omega(g) zeta(c), g) carries c^-1, for every g and c
    omega, zeta, table = gen.omega, gen.zeta, G.table
    return _graph_class(G, G, C, [(table[omega[g]][z], g)
                                  for g in els for z in zeta], cinv * G.order)


def hat_multiply(a: HatGenerator, b: HatGenerator
                 ) -> Optional[HatGenerator]:
    """Product of two generators as the basis generator it equals, or None
    when it is zero: the one-pair reference, computed from image tuples,
    that the index table of ``_hat_table`` is held to.

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


class _PrimeData(NamedTuple):
    """What the prime-fibre table and its check read that depends on
    (G, C) alone, from one enumeration of the characters t_a of
    ``homomorphisms(G, C)``, the outer representatives s_i and the fibre
    embeddings z_e: the generators, X(t_a, s_i) at a |Out| + i and then
    Y(s_i, z_e) at |X| + i |E| + e; the index tables of Gamma, where
    out_mul[i][j] is the class of s_i s_j, out_inv[i] that of s_i^-1,
    hom_mul[a][b] is t_a t_b, hom_act[a][i] is t_a o s_i, emb_act[i][e]
    is s_i o z_e and mu[a][e] the class of g -> g z_e(t_a(g))^-1; the
    generator classes, as elements too, the position of each class key,
    and the moves of ``_generator_moves`` with their mismatches."""

    gens: Tuple[HatGenerator, ...]
    out_mul: List[List[int]]
    out_inv: List[int]
    hom_mul: List[List[int]]
    hom_act: List[List[int]]
    emb_act: List[List[int]]
    mu: List[List[int]]
    classes: Tuple[TransitiveFibredBiset, ...]
    elements: Tuple[FibredElement, ...]
    index: Dict[tuple, int]
    moves: Tuple[Tuple[List[int], bool, str], ...]
    mismatches: Tuple[dict, ...]


@memoized
def _prime_data(G: FiniteGroup, C: FiniteGroup) -> _PrimeData:
    _require_prime_fibre(C)
    auts = automorphisms(G)
    reps = auts.out_representatives
    homs = homomorphisms(G, C)
    embs = _fibre_embeddings(G, C)
    gens = tuple([HatGenerator("X", G, C, t=t, sigma=s)
                  for t in homs for s in reps]
                 + [HatGenerator("Y", G, C, omega=w, zeta=z)
                    for w in reps for z in embs])
    position = {rep: i for i, rep in enumerate(reps)}
    out_class = {h: position[rep] for h, rep in auts.out_rep_of.items()}
    hom_index = {t: a for a, t in enumerate(homs)}
    emb_index = {z: e for e, z in enumerate(embs)}
    els = range(G.order)
    cinv = C.inverses
    out_mul = [[out_class[tuple(s[x] for x in r)] for r in reps]
               for s in reps]
    one = position[tuple(els)]
    classes = tuple(map(hat_generator_class, gens))
    index = {cls.raw: i for i, cls in enumerate(classes)}
    if len(index) != len(gens):
        raise GroupError("generator classes are not distinct")
    moves, mismatches = _generator_moves(G, gens, classes, index)
    return _PrimeData(
        gens, out_mul, [row.index(one) for row in out_mul],
        [[hom_index[tuple(C.mul(t[g], u[g]) for g in els)] for u in homs]
         for t in homs],
        [[hom_index[tuple(t[x] for x in s)] for s in reps] for t in homs],
        [[emb_index[tuple(s[x] for x in z)] for z in embs] for s in reps],
        [[out_class[tuple(G.mul(g, z[cinv[t[g]]]) for g in els)]
          for z in embs] for t in homs],
        classes, tuple(map(element_of, classes)), index, moves, mismatches)


def _hat_table(G: FiniteGroup, C: FiniteGroup) -> List[List[int]]:
    """The product of every pair of ``hat_basis_prime(G, C)`` as the index
    of its generator, -1 for zero, read off the index tables of Gamma in
    ``_prime_data`` by the four rules of the module docstring; X(t, s) has
    index t |Out| + s and Y(w, z) index |X| + w |E| + z, the order of
    ``_prime_data.gens``."""
    data = _prime_data(G, C)
    out_mul, out_inv, hom_mul = data.out_mul, data.out_inv, data.hom_mul
    hom_act, emb_act, mu = data.hom_act, data.emb_act, data.mu
    no, nh, ne = len(out_mul), len(hom_mul), len(emb_act[0])
    nx = nh * no
    # one int object per generator index, shared by all the cells
    cell = list(range(nx + no * ne)).__getitem__
    table = []
    for t1, act in enumerate(hom_act):
        # (t1 o s2) t2, times |Out|, at every X(t2, s2)
        base = [hom_mul[act[s2]][t2] * no for t2 in range(nh)
                for s2 in range(no)]
        for s1, om in enumerate(out_mul):
            row = list(map(cell, map(add, base, om * nh)))
            by_z = [(out_mul[om[m]], nx + s1z)
                    for m, s1z in zip(mu[t1], emb_act[s1])]
            row += [cell(ys[w] * ne + y) for w in range(no) for ys, y in by_z]
            table.append(row)
    for w, ow in enumerate(out_mul):
        for z in range(ne):
            row = [cell(nx + z + ne * out_mul[
                mu[hom_act[t][out_inv[ow[s]]]][z]][ow[s]])
                for t in range(nh) for s in range(no)]
            row += [cell(nx + ow[a] * ne + z) if emb_act[w][y] == z else -1
                    for a in range(no) for y in range(ne)]
            table.append(row)
    return table


def _generator_moves(G: FiniteGroup, gens: Tuple[HatGenerator, ...],
                     classes: Tuple[TransitiveFibredBiset, ...],
                     index: Dict[tuple, int]) -> tuple:
    """The symmetries of the check as permutations of generator indices,
    read off the generator classes: each class is mapped and its key looked
    up in ``index``.  There is one (phi, phi)-twist per automorphism phi of
    ``_aut_generators(G)``, and ``opposite``.  Each move is (permutation,
    whether it swaps the two factors, name).  A symmetry that maps some
    generator class outside the generator classes is left out, so the
    orbits are only finer, and returned as a mismatch, after the moves."""
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
    mismatches = []
    for name, swap, raws in symmetries:
        perm = [index.get(raw, -1) for raw in raws]
        if -1 in perm:
            mismatches.append({
                "generator": gens[perm.index(-1)].describe(),
                "symmetry": name,
                "detail": "the image class is not a generator class"})
        else:
            moves.append((perm, swap, name))
    return tuple(moves), tuple(mismatches)


def _reduce(G: FiniteGroup, C: FiniteGroup, index: Dict[tuple, int],
            composed: FibredElement, cell: int) -> tuple:
    """A composed pair of generators of (G, C), its ideal summands
    dropped and the rest indexed by ``index``, the generator positions
    of ``_prime_data``: (reduced, unknown, ok), with ``reduced`` mapping
    generator indices to coefficients, ``unknown`` the kept summands that
    are no generator's, and ``ok`` whether the product is generator
    ``cell`` (zero for -1).  Each summand of ``compose`` is canonical, so
    it is decided by its key, not canonicalized again by ``is_in_ideal``."""
    # distinct summands are distinct classes, so no index repeats
    reduced = {}
    unknown = []
    for cls, coeff in composed.terms.items():
        if _ideal_decision(G, C, cls.raw) is not None:
            continue
        i = index.get(cls.raw)
        if i is None:
            unknown.append(cls)
        else:
            reduced[i] = coeff
    ok = not unknown and reduced == ({} if cell < 0 else {cell: 1})
    return reduced, unknown, ok


def verify_hat_vs_quotient(G: FiniteGroup, C: FiniteGroup,
                           check: bool = False) -> dict:
    """Check the generator product rules against the ring: multiply the
    attached classes with compose, drop ideal summands, and compare with
    the index table of ``_hat_table``, for every generator pair.  With
    ``check`` every composition is also cross-checked against the orbit
    oracle.  The table covers all n^2 pairs, ``compose`` one pair per
    orbit of generator pairs (the seventh cut of the module docstring).

    What depends on G and C alone is read from the one record per (G, C),
    ``_prime_data``: the generators, their classes and elements, the
    position of each class key and the symmetry moves, with the
    mismatches the moves record, which each report gets as a fresh copy.
    The table, the orbit traversal that checks every pair against the
    moves, every composition and every ideal decision run on each call:
    they are the check, and ``_reduce`` drops and indexes the summands.

    The report gives the checked table, as generator indices with -1 for
    zero, under ``"table"``; ``"pairs"`` counts the pairs checked,
    ``"composed"`` the compositions made, and ``"mismatches"`` lists the
    disagreements, with ``"ok"`` true when there is none."""
    data = _prime_data(G, C)
    gens, elements, index, moves = (
        data.gens, data.elements, data.index, data.moves)
    n = len(gens)
    mismatches = [dict(m) for m in data.mismatches]
    table = _hat_table(G, C)

    def describe(cell: int) -> str:
        return "0" if cell < 0 else gens[cell].describe()

    # orbits of pairs a * n + b, found by a traversal that checks every
    # edge; the first pair of each orbit in index order represents it.
    # Not an ``_orbits`` walk: its points are generator index pairs, not
    # class keys, and every edge, not only the first into a point, is
    # checked against the table, on every call.
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
        composed = compose(elements[a], elements[b], check=check)
        cell = table[a][b]
        reduced, unknown, ok = _reduce(G, C, index, composed, cell)
        if not ok:
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
    from .groups import cyclic, dihedral, quaternion8
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

    at = [D.elements.index(g) for g in gens]
    delta = next((h for h in homomorphisms(D, C)
                  if (h[at[0]], h[at[1]]) == (2, 3)), None)
    step("character delta((x,a)) = c^2, delta((y,b)) = c^-1",
         delta is not None, "generator assignment extends to D")
    images = dict(zip(D.elements, delta))
    val = images[emb.encode(2, 0)]
    step("delta(x^2, 1) = c^2 != 1", val == 2, f"value index {val}")

    p1 = goursat.projection(emb, D, 1)
    p2 = goursat.projection(emb, D, 2)
    k1 = goursat.kernel_part(emb, D, 1)
    k2 = goursat.kernel_part(emb, D, 2)
    step("p1(D) = G and p2(D) = H",
         p1.order == G.order and p2.order == H.order,
         f"|p1| = {p1.order}, |p2| = {p2.order}")
    step("k1(D) = <x^2>", [G.label(x) for x in k1.elements] == ["1", "x2"],
         str([G.label(x) for x in k1.elements]))
    step("k2(D) = <a^2>", [H.label(x) for x in k2.elements] == ["1", "a2"],
         str([H.label(x) for x in k2.elements]))

    X = canonicalize(TransitiveFibredBiset(G, H, C, D.mask, delta))
    Xop = opposite(X)
    W = compose(element_of(X), element_of(Xop), check=True)

    pairs = [(g1, g2) for g1 in range(G.order) for g2 in range(G.order)
             if (k1.mask >> G.mul(g1, G.inv(g2))) & 1]
    closed = _graph_class(G, G, C, pairs, [
        images[emb.encode(G.mul(g1, G.inv(g2)), 0)] for g1, g2 in pairs])
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
