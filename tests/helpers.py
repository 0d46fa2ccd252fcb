"""Shared brute-force oracles for the test suite, independent of the
production enumeration paths."""

import gc
import itertools
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import fibredburnside
from fibredburnside.fibred import (
    BoucFactorization, _canonical_raw, _graph_class,
    _permute_raw, bouc_factorize, canonicalize, compose, element_of,
    from_monomial_set, to_monomial_set, transitive_basis)
from fibredburnside.goursat import _quotient_of_subgroup
from fibredburnside.groups import (
    FiniteGroup, GroupError, ProductEmbedding, Subgroup, _generating_sequence,
    automorphisms, center, double_coset_representatives,
    elements_to_mask, homomorphisms, mask_to_elements, pairs_to_raw,
    product_embedding, subgroup_of_mask, subgroups)
from fibredburnside.monomial import FiniteAction, MonomialSet
from fibredburnside.hat import (
    FactorizationWitness, HatGenerator, _fibre_embeddings, _iso_to_catalog,
    _reduction_witness, _require_prime_fibre, _summand_reps, _twisted,
    hat_basis_prime, hat_generator_class, hat_multiply, is_in_ideal)


def live_groups() -> List[FiniteGroup]:
    """Every group alive after a full collection.  A group has no weakref
    slot, so the collector is the way to find them."""
    gc.collect()
    return [g for g in gc.get_objects() if type(g) is FiniteGroup]


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this package and
    the test helpers."""
    src = os.path.dirname(os.path.dirname(fibredburnside.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.path.dirname(os.path.abspath(__file__)),
                    env.get("PYTHONPATH"))
        if p)
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)


def memo_entries(fn) -> int:
    """The entries of a memoized function over every live group."""
    return sum(len(g._memo.get(fn, ())) for g in live_groups())


def package_caches() -> dict:
    """The ``functools.cache`` callables of the package, module-level and
    on classes, by qualified name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "fibredburnside":
            continue
        for value in vars(module).values():
            members = [value]
            if isinstance(value, type):
                members += [getattr(v, "fget", v)
                            for v in vars(value).values()]
            for f in members:
                if (hasattr(f, "cache_clear")
                        and getattr(f, "__module__", "").startswith(
                            "fibredburnside")):
                    found[f"{f.__module__}.{f.__qualname__}"] = f
    return found


def brute_subgroup_masks(G):
    """Exhaustive subset scan (use only for |G| <= 10 or so)."""
    n = G.order
    out = []
    for bits in range(2 ** (n - 1)):
        mask = 1 | (bits << 1)
        els = [x for x in range(n) if (mask >> x) & 1]
        if all((mask >> G.inv(a)) & 1 and (mask >> G.mul(a, b)) & 1
               for a in els for b in els):
            out.append(mask)
    return out


def brute_homs(G, elements, C):
    """All characters on a subgroup, by scanning every map."""
    els = list(elements)
    pos = {x: i for i, x in enumerate(els)}
    out = []
    for images in itertools.product(range(C.order), repeat=len(els) - 1):
        f = (0,) + images
        if all(f[pos[G.mul(a, b)]] == C.mul(f[pos[a]], f[pos[b]])
               for a in els for b in els):
            out.append(f)
    return out


def brute_subcharacter_count(G, C):
    """Number of conjugacy classes of (subgroup, character) pairs, from
    scratch: subset scan, full map scan, then orbit counting."""
    pairs = set()
    for mask in brute_subgroup_masks(G):
        els = tuple(x for x in range(G.order) if (mask >> x) & 1)
        for f in brute_homs(G, els, C):
            pairs.add((els, f))
    seen = set()
    count = 0
    for pair in sorted(pairs):
        if pair in seen:
            continue
        count += 1
        els, f = pair
        for g in range(G.order):
            gi = G.inv(g)
            conj = sorted((G.mul(G.mul(g, x), gi), v)
                          for x, v in zip(els, f))
            seen.add((tuple(x for x, _ in conj),
                      tuple(v for _, v in conj)))
    return count


# -- reference kernels: the straightforward forms of the table-driven
#    coordinate, product-table and closure code in ``groups``


def ref_strides(orders):
    """Mixed-radix strides, last factor varying fastest."""
    strides = []
    s = 1
    for o in reversed(orders):
        strides.append(s)
        s *= o
    return tuple(reversed(strides))


def ref_encode(orders, *coords):
    """Mixed-radix sum over as many leading coordinates as are given."""
    return sum(c * s for c, s in zip(coords, ref_strides(orders)))


def ref_decode(orders, x):
    out = []
    for s in ref_strides(orders):
        out.append(x // s)
        x %= s
    return tuple(out)


def ref_product_table(factors):
    """Cayley table of the direct product, one cell at a time from the
    factor products of the decoded coordinates."""
    orders = [f.order for f in factors]
    strides = ref_strides(orders)
    total = 1
    for o in orders:
        total *= o
    table = []
    for a in range(total):
        ca = ref_decode(orders, a)
        row = []
        for b in range(total):
            cb = ref_decode(orders, b)
            row.append(sum(f.mul(x, y) * st for f, x, y, st
                           in zip(factors, ca, cb, strides)))
        table.append(tuple(row))
    return tuple(table)


def ref_closure_mask(G, seed):
    """Close the seed under products of every pair of elements found."""
    n = G.order
    elems = [0]
    mask = 1
    work = []
    for s in seed:
        if not (mask >> s) & 1:
            mask |= 1 << s
            elems.append(s)
            work.append(s)
    while work:
        x = work.pop()
        for y in list(elems):
            for z in (G.mul(x, y), G.mul(y, x)):
                if not (mask >> z) & 1:
                    mask |= 1 << z
                    elems.append(z)
                    work.append(z)
    return mask


def ref_seed_closure_mask(G, seed):
    """Close the identity under right multiplication by the distinct
    non-identity seed elements, one element at a time."""
    gens = []
    for s in seed:
        if s != 0 and s not in gens:
            gens.append(s)
    elems = [0]
    mask = 1
    for x in elems:
        for g in gens:
            z = G.mul(x, g)
            if not (mask >> z) & 1:
                mask |= 1 << z
                elems.append(z)
    return mask


def ref_subgroups(G):
    """Element tuples of all subgroups, sorted by (order, elements), by
    closing every subgroup S with each coset representative g from scratch
    on the seed S + [g]."""
    n = G.order
    found = {1: (0,)}
    frontier = [1]
    while frontier:
        new = []
        for m in frontier:
            els = found[m]
            covered = m
            for g in range(1, n):
                if (covered >> g) & 1:
                    continue
                for x in els:
                    covered |= 1 << G.mul(x, g)
                res = ref_seed_closure_mask(G, list(els) + [g])
                if res not in found:
                    found[res] = mask_to_elements(res)
                    new.append(res)
        frontier = new
    return sorted(found.values(), key=lambda e: (len(e), e))


def ref_generating_sequence(G, elements):
    """Greedy generating sequence, closing the generators from scratch at
    each step."""
    target = 0
    for x in elements:
        target |= 1 << x
    gens = []
    cur = 1
    for x in elements:
        if not (cur >> x) & 1:
            gens.append(x)
            cur = ref_seed_closure_mask(G, gens)
            if cur == target:
                break
    return gens


def orbit_size(ambient, mask, delta):
    """Size of the conjugation orbit of a (mask, delta) pair."""
    elements = mask_to_elements(mask)
    return len({_permute_raw(ambient.conjugation_perm(g), elements, delta)
                for g in range(ambient.order)})


# -- reference double-coset formula: ``fibred._compose_raw`` as it decoded
#    both factors and searched their double cosets on every call


def ref_compose_raw(emb_gh: ProductEmbedding, emb_hk: ProductEmbedding,
                    C: FiniteGroup, v_elements, nu, u_elements, mu):
    """All summands of the composition of transitive classes (V, nu) over
    G x H and (U, mu) over H x K.

    Returns (h, mask, delta) per double-coset representative h that passes
    the character condition.
    """
    _, H = emb_gh.factors
    H2, K = emb_hk.factors
    if H is not H2:
        raise GroupError("middle groups do not agree")
    # a summand's elements (g, k) are encoded in G x K inline, as
    # g * stride + k, and fibre products are read from the rows of C
    stride = K.order
    ctable = C.table
    hinv = H.inverses

    gh = emb_gh.coords
    hk = emb_hk.coords
    v_dec = [gh[x] for x in v_elements]
    u_dec = [hk[x] for x in u_elements]
    p2v = tuple(sorted({h for _, h in v_dec}))
    p1u = tuple(sorted({h for h, _ in u_dec}))
    k2v = [(h, c) for (g, h), c in zip(v_dec, nu) if g == 0]
    k1u_vals = {h: c for (h, k), c in zip(u_dec, mu) if k == 0}
    u_by_first: Dict[int, list] = {}
    for (h, k), c in zip(u_dec, mu):
        u_by_first.setdefault(h, []).append((k, c))

    A = Subgroup(H, p2v, elements_to_mask(p2v))
    B = Subgroup(H, p1u, elements_to_mask(p1u))
    out = []
    for h in double_coset_representatives(H, A, B):
        twist = H.conjugation_perm(hinv[h])  # x -> h^-1 x h

        ok = True
        for hp, c_nu in k2v:
            c_mu = k1u_vals.get(twist[hp])
            if c_mu is None:
                continue
            if ctable[c_nu][c_mu] != 0:
                ok = False
                break
        if not ok:
            continue
        values: Dict[int, int] = {}
        for (g, h1), c_nu in zip(v_dec, nu):
            hits = u_by_first.get(twist[h1])
            if not hits:
                continue
            row = ctable[c_nu]
            base = g * stride
            for k, c_mu in hits:
                e = base + k
                val = row[c_mu]
                old = values.get(e)
                if old is None:
                    values[e] = val
                elif old != val:
                    raise GroupError("composite character is ill-defined")
        out.append((h, *pairs_to_raw(values.items())))
    return out


# -- reference ideal sweep: every pair of full-projection classes through
#    one intermediate group, no orbit reduction


def ref_full_side(emb, C, side):
    """The classes over the two factors of ``emb`` whose projection on
    ``side`` (0 = left, 1 = right) is the whole factor."""
    target = emb.factors[side].order
    return [cls for cls in transitive_basis(*emb.factors, C)
            if len({emb.decode(x)[side] for x in cls.elements}) == target]


def ref_ideal_sweep(G, C, K):
    """All canonical summand keys of a o b through K, with a over G x K
    and b over K x G both having full outer projections, each with the
    witness of its first occurrence."""
    amb = product_embedding(G, G).ambient
    emb_gk = product_embedding(G, K)
    emb_kg = product_embedding(K, G)
    lefts = ref_full_side(emb_gk, C, 0)
    rights = ref_full_side(emb_kg, C, 1)
    out = {}
    for a in lefts:
        for b in rights:
            for h, mask, delta in ref_compose_raw(
                    emb_gk, emb_kg, C, a.elements, a.delta,
                    b.elements, b.delta):
                raw = _canonical_raw(amb, mask, delta)
                if raw not in out:
                    out[raw] = FactorizationWitness(
                        K=K, a=a, b=b, which_summand=h)
    return out


def ref_twist(emb, key, sigma, tau):
    """The canonical key of the class ``key`` over the two factors of
    ``emb`` with the map sigma applied to the left factor and tau to the
    right, built from the coordinates of every element."""
    images = [emb.encode(sigma[x], tau[y]) for x, y in emb.coords]
    return _canonical_raw(emb.ambient, *_permute_raw(
        images, mask_to_elements(key[0]), key[1]))


def ref_orbits(emb, keys, sides):
    """Each key's orbit, as a frozenset of canonical keys: the key twisted
    by every pair of ``automorphisms(left).all`` x
    ``automorphisms(right).all``, a factor whose side (0 = left,
    1 = right) is not in ``sides`` taking the identity only."""
    twists = [automorphisms(f).all if side in sides
              else [tuple(range(f.order))]
              for side, f in enumerate(emb.factors)]
    return {key: frozenset(ref_twist(emb, key, sigma, tau)
                           for sigma in twists[0] for tau in twists[1])
            for key in keys}


def forbid_formula_path(monkeypatch):
    """Make ``_compose_raw``, its profiles, its double-coset memo and
    ``double_coset_representatives`` raise in every module that binds
    them, so that only the orbit oracle can compose."""
    from fibredburnside import fibred, goursat, groups, hat, monomial, sampling

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the formula path")

    for module in (groups, goursat, monomial, fibred, hat, sampling):
        for name in ("_compose_raw", "_left_profile", "_right_profile",
                     "_double_cosets", "double_coset_representatives"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


# -- reference gluing: union-find over the moves of every element of the
#    acting group, as the orbit oracle glued before it used generators


def ref_orbit_partition(n_points, moves):
    """Orbits of a point set under a list of permutations (as maps), by
    union-find with the smaller root kept.  Returns each point's root and
    the roots numbered in ascending order."""
    rep = list(range(n_points))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for mv in moves:
        for p in range(n_points):
            a, b = find(p), find(mv[p])
            if a != b:
                if a < b:
                    rep[b] = a
                else:
                    rep[a] = b
    roots = {}
    for p in range(n_points):
        r = find(p)
        roots.setdefault(r, len(roots))
    return [find(p) for p in range(n_points)], roots


def ref_coset_model(A, C, subgroup_elements):
    """The coset model of a subgroup of A x C as it was built before it
    read the factor tables: on the full table of the ambient of
    ``product_embedding(A, C)``.  Returns ``coset_of``, ``reps`` and the
    row of every element."""
    G = product_embedding(A, C).ambient
    n = G.order
    t = G.table
    coset_of = [-1] * n
    reps = []
    for g in range(n):
        if coset_of[g] >= 0:
            continue
        for s in subgroup_elements:
            coset_of[t[g][s]] = len(reps)
        reps.append(g)
    rows = [[coset_of[t[x][r]] for r in reps] for x in range(n)]
    return coset_of, reps, rows


def _ref_pair_move(r1, r2, n2):
    return [r1[p // n2] * n2 + r2[p % n2] for p in range(len(r1) * n2)]


def ref_oracle_moves(tx, ty):
    """The move of every (h, c) in H x C on the pairs of points of the
    coset models of tx over G x H and ty over H x K: (x, y) goes to
    ((1, h, c).x, (h, 1, c^-1).y).  Keyed by (h, c)."""
    G, H, K, C = tx.left, tx.right, ty.right, tx.fibre
    emb_gh = product_embedding(G, H)
    emb_hk = product_embedding(H, K)
    T1, T2 = to_monomial_set(tx), to_monomial_set(ty)
    e1, e2 = T1.embedding, T2.embedding
    return {(h, c): _ref_pair_move(
                T1.action.table[e1.encode(emb_gh.encode(0, h), c)],
                T2.action.table[e2.encode(emb_hk.encode(h, 0),
                                          C.inverses[c])], T2.size)
            for h in range(H.order) for c in range(C.order)}


def ref_oracle_result_rows(tx, ty):
    """The orbit oracle's result action over every element of
    (G x K) x C, as the oracle built it before it built rows for
    generators only: full coset tables of tx and ty, every pair of
    points glued by union-find over the moves of generators of H x C,
    and one result row per element.  Returns the
    (G x K, C) embedding and the rows."""
    G, H = tx.left, tx.right
    K = ty.right
    C = tx.fibre
    emb_gh = product_embedding(G, H)
    emb_hk = product_embedding(H, K)
    emb_gk = product_embedding(G, K)
    T1 = to_monomial_set(tx)
    T2 = to_monomial_set(ty)
    t1, e1 = T1.action.table, T1.embedding
    t2, e2 = T2.action.table, T2.embedding
    emb_res = product_embedding(emb_gk.ambient, C)
    n2 = T2.size
    find_rep, roots = ref_orbit_partition(T1.size * n2, [
        _ref_pair_move(t1[e1.encode(emb_gh.encode(0, h), 0)],
                       t2[e2.encode(emb_hk.encode(h, 0), 0)], n2)
        for h in H.generators()] + [
        _ref_pair_move(t1[e1.encode(0, c)],
                       t2[e2.encode(0, C.inverses[c])], n2)
        for c in C.generators()])
    # the fibre acts freely on an orbit when (1, c), c != 1, moves its
    # root (i, j) to (c.i, j) outside it
    free = [t1[e1.encode(0, c)] for c in range(1, C.order)]
    kept = [root for root in roots
            if all(find_rep[r[root // n2] * n2 + root % n2] != root
                   for r in free)]
    index = {root: k for k, root in enumerate(kept)}
    table = [[index.get(find_rep[r1[root // n2] * n2 + r2[root % n2]])
              for root in kept]
             for r1, r2 in ((t1[e1.encode(emb_gh.encode(g, 0), c)],
                             t2[e2.encode(emb_hk.encode(0, k), 0)])
                            for gk, c in emb_res.coords
                            for g, k in [emb_gk.coords[gk]])]
    return emb_res, table


def ref_compose_oracle_transitive(tx, ty):
    """The orbit oracle with full tables: the result rows of
    ``ref_oracle_result_rows`` decomposed by ``from_monomial_set``,
    which reads each stabilizer off a full table."""
    emb_res, table = ref_oracle_result_rows(tx, ty)
    result = MonomialSet(emb_res.factors[0], tx.fibre,
                         FiniteAction(emb_res.ambient, table))
    return from_monomial_set(result, tx.left, ty.right)


def ref_mackey_moves(emb_ab, X, emb_br, T):
    """The move of every b in B on X x T in ``mackey_glue``, keyed by b."""
    B = emb_ab.factors[1]
    return {b: _ref_pair_move(X.table[emb_ab.encode(0, b)],
                              T.table[emb_br.encode(b, 0)], T.size)
            for b in range(B.order)}


def ref_tensor_moves(emb_ac, T, emb_bc, Y):
    """The move of every c in C on T x Y in ``tensor_sets``, keyed by c."""
    C = emb_ac.factors[1]
    return {c: _ref_pair_move(T.table[emb_ac.encode(0, c)],
                              Y.table[emb_bc.encode(0, C.inverses[c])],
                              Y.size)
            for c in range(C.order)}


# -- reference homomorphism search: the generator-image loops each of
#    homomorphisms, automorphisms and isomorphism ran on its own, every
#    assignment from ``itertools.product`` checked by ``_extend_hom``


def _extend_hom(G, elements, gens, codomain, gen_images):
    """Propagate generator images over a subgroup; None if inconsistent.

    Walking every (element, generator) edge both assigns and fully checks
    the homomorphism property on the generated set.
    """
    images = {0: 0}
    order = [0]
    i = 0
    gmul = G.mul
    cmul = codomain.mul
    while i < len(order):
        a = order[i]
        fa = images[a]
        i += 1
        for g, fg in zip(gens, gen_images):
            b = gmul(a, g)
            fb = cmul(fa, fg)
            known = images.get(b)
            if known is None:
                images[b] = fb
                order.append(b)
            elif known != fb:
                return None
    if len(images) != len(elements):
        return None
    return images


def ref_homomorphisms(G, els, C):
    """Image tuples of all homomorphisms from the subgroup ``els`` of G
    into C, sorted."""
    els = list(els)
    gens = _generating_sequence(G, els)
    if not gens:
        return [(0,) * len(els)]
    candidates = [[c for c in range(C.order)
                   if G.element_order(g) % C.element_order(c) == 0]
                  for g in gens]
    results = []
    for assignment in itertools.product(*candidates):
        images = _extend_hom(G, els, gens, C, assignment)
        if images is not None:
            results.append(tuple(images[a] for a in els))
    return sorted(results)


def ref_automorphisms(G):
    """Image tuples of all automorphisms of G, sorted."""
    els = list(range(G.order))
    gens = G.generators()
    if not gens:
        return [tuple(els)]
    candidates = [[c for c in range(G.order)
                   if G.element_order(c) == G.element_order(g)]
                  for g in gens]
    autos = []
    for assignment in itertools.product(*candidates):
        images = _extend_hom(G, els, gens, G, assignment)
        if images is None or len(set(images.values())) != G.order:
            continue
        autos.append(tuple(images[a] for a in els))
    return sorted(autos)


def ref_out_rep_lookup(G):
    """Map from the image tuple of every automorphism of G to its coset
    representative in Out(G), built as rep o inner for every
    representative and every inner automorphism."""
    auts = automorphisms(G)
    lookup = {}
    for rep in auts.out_representatives:
        for inner in auts.inner:
            composite = tuple(rep[inner[g]] for g in range(G.order))
            lookup[composite] = rep
    return lookup


def ref_isomorphism(G, H):
    """Image tuple of the first isomorphism G -> H found with generator
    images tried in ascending order, or None."""
    if G.order != H.order or G.order_census() != H.order_census():
        return None
    els = list(range(G.order))
    gens = G.generators()
    if not gens:
        return (0,)
    candidates = [[c for c in range(H.order)
                   if H.element_order(c) == G.element_order(g)]
                  for g in gens]
    for assignment in itertools.product(*candidates):
        images = _extend_hom(G, els, gens, H, assignment)
        if images is not None and len(set(images.values())) == G.order:
            return tuple(images[a] for a in els)
    return None


# -- reference builders: the dihedral, quaternion and dicyclic tables as
#    each was built on its own; each returns (table, labels, name)


def _ref_labels(n, x, y):
    labels = []
    for j in (0, 1):
        for i in range(n):
            s = "" if i == 0 else (x if i == 1 else f"{x}{i}")
            s += y if j else ""
            labels.append(s or "1")
    return labels


def ref_dihedral(order):
    n = order // 2
    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in (0, 1):
            for k in range(n):
                for l in (0, 1):
                    if j == 0:
                        ii, jj = (i + k) % n, l
                    else:
                        ii, jj = (i - k) % n, 1 - l
                    table[i + n * j][k + n * l] = ii + n * jj
    return table, _ref_labels(n, "a", "b"), f"D{order}"


def ref_quaternion8():
    table = [[0] * 8 for _ in range(8)]
    for i in range(4):
        for j in (0, 1):
            for k in range(4):
                for l in (0, 1):
                    if j == 0:
                        ii, jj = (i + k) % 4, l
                    elif l == 0:
                        ii, jj = (i - k) % 4, 1
                    else:
                        ii, jj = (i - k + 2) % 4, 0
                    table[i + 4 * j][k + 4 * l] = ii + 4 * jj
    labels = ["1", "x", "x2", "x3", "y", "xy", "x2y", "x3y"]
    return table, labels, "Q8"


def ref_dicyclic(order):
    m = order // 4
    n = 2 * m
    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in (0, 1):
            for k in range(n):
                for l in (0, 1):
                    if j == 0:
                        ii, jj = (i + k) % n, l
                    elif l == 0:
                        ii, jj = (i - k) % n, 1
                    else:
                        ii, jj = (i - k + m) % n, 0
                    table[i + n * j][k + n * l] = ii + n * jj
    return table, _ref_labels(n, "a", "b"), f"Dic{m}"


# -- reference section readers: the decode loops that read projections,
#    kernel parts, reduced kernels and full projections of a subgroup of
#    a product before they all went through ``goursat.projection`` and
#    ``goursat.kernel_part``


def _ref_pick(emb, D, indices, trivial_off):
    """Decode every element of D and encode its chosen coordinates; with
    ``trivial_off`` skip the elements that are not trivial off them.
    Returns (target group, sorted elements)."""
    sub = (None if len(indices) == 1
           else product_embedding(*(emb.factors[i - 1] for i in indices)))
    others = [i for i in range(1, len(emb.factors) + 1) if i not in indices]
    out = set()
    for x in D.elements:
        coords = emb.decode(x)
        if trivial_off and any(coords[i - 1] != 0 for i in others):
            continue
        picked = tuple(coords[i - 1] for i in indices)
        out.add(picked[0] if sub is None else sub.encode(*picked))
    target = emb.factors[indices[0] - 1] if sub is None else sub.ambient
    return target, tuple(sorted(out))


def ref_projection(emb, D, indices):
    return _ref_pick(emb, D, indices, False)


def ref_kernel_part(emb, D, indices):
    return _ref_pick(emb, D, indices, True)


def ref_reduced_kernel(emb, X, side):
    """Elements g of the side's factor with (g embedded alone) in D and
    trivial character."""
    return ref_raw_reduced_kernel(emb, X.elements, X.delta, side)


def ref_raw_reduced_kernel(emb, elements, values, side):
    """``ref_reduced_kernel`` of the pair given by its elements and their
    character values."""
    out = []
    for x, c in zip(elements, values):
        coords = emb.decode(x)
        if coords[1 - side] == 0 and c == 0:
            out.append(coords[side])
    return sorted(out)


def ref_bouc_factorize(X):
    """``bouc_factorize`` with the projections and reduced kernels read
    off the decoded elements of D."""
    emb = X.embedding
    G, H = emb.factors
    C = X.fibre
    coords = [emb.decode(x) for x in X.elements]
    E = subgroup_of_mask(G, elements_to_mask(g for g, _ in coords))
    k1 = subgroup_of_mask(G, elements_to_mask(ref_reduced_kernel(emb, X, 0)))
    E_quot, proj_e = _quotient_of_subgroup(E, k1)
    pe = dict(zip(E.elements, proj_e))
    F = subgroup_of_mask(H, elements_to_mask(h for _, h in coords))
    k2 = subgroup_of_mask(H, elements_to_mask(ref_reduced_kernel(emb, X, 1)))
    F_quot, proj_f = _quotient_of_subgroup(F, k2)
    pf = dict(zip(F.elements, proj_f))
    return BoucFactorization(
        left_elementary=_graph_class(G, E_quot, C,
                                     [(g, pe[g]) for g in E.elements]),
        beta1=_graph_class(E_quot, H, C, [(pe[g], h) for g, h in coords],
                           values=X.delta),
        beta2=_graph_class(G, F_quot, C, [(g, pf[h]) for g, h in coords],
                           values=X.delta),
        right_elementary=_graph_class(F_quot, H, C,
                                      [(pf[h], h) for h in F.elements]),
        left_middle=E_quot, right_middle=F_quot)


def ref_class_keys(left, right, C, side=None):
    """Sorted canonical keys of the classes over left x right, filtered
    to a full projection on ``side`` by decoding every element."""
    emb = product_embedding(left, right)
    subs = subgroups(emb.ambient)
    if side is not None:
        target = emb.factors[side].order
        subs = [D for D in subs
                if len({emb.coords[x][side] for x in D.elements}) == target]
    return sorted({_canonical_raw(emb.ambient, D.mask, hom)
                   for D in subs for hom in homomorphisms(D, C)})


def ref_kept_keys(G, K, C):
    """The keys of the factors the ideal sweep through K composes, by the
    path it took before they were built from Goursat data: the classes
    over G x K with a full left projection and trivial k1(ker nu), and
    those over K x G with a full right projection and trivial k2(ker mu),
    as two sorted key lists."""
    def kept(left, right, side):
        emb = product_embedding(left, right)
        return [(mask, delta) for mask, delta
                in ref_class_keys(left, right, C, side)
                if ref_raw_reduced_kernel(emb, mask_to_elements(mask),
                                          delta, side) == [0]]
    return kept(G, K, 0), kept(K, G, 1)


def ref_full_projection_subgroups(left, right):
    """Subgroups of left x right that project onto both factors, in
    enumeration order."""
    emb = product_embedding(left, right)
    out = []
    for D in subgroups(emb.ambient):
        firsts = {emb.decode(x)[0] for x in D.elements}
        seconds = {emb.decode(x)[1] for x in D.elements}
        if len(firsts) == left.order and len(seconds) == right.order:
            out.append(D)
    return out


# -- reference quotient basis: every class over G x G decided one by one,
#    as ``hat_dimension`` did before it decided only its candidates


def ref_hat_survivors(G, C):
    """The classes over G x G that are not in the ideal, in key order."""
    return [X for X in transitive_basis(G, G, C) if is_in_ideal(X) is None]


def ref_reduction_witness(X):
    """``_reduction_witness`` as it was before it tested the projections
    and reduced kernels first: X is always Bouc-factorized, and the first
    side whose middle has order < |G|, left before right, gives the
    witness."""
    G = X.left
    fac = bouc_factorize(X)
    for middle, left_cls, right_cls in (
            (fac.left_middle, fac.left_elementary, fac.beta1),
            (fac.right_middle, fac.beta2, fac.right_elementary)):
        if middle.order >= G.order:
            continue
        K, phi = _iso_to_catalog(middle)
        a = canonicalize(_twisted(left_cls, 1, phi, K))
        b = canonicalize(_twisted(right_cls, 0, phi, K))
        h = next(_summand_reps(X, a, b), None)
        if h is None:
            raise GroupError("constructed factorization lost the class")
        return FactorizationWitness(K=K, a=a, b=b, which_summand=h)
    return None


def ref_hat_candidates(G, C):
    """The keys of the classes over G x G that get no constructed witness
    from ``_reduction_witness``, in key order."""
    return [X.raw for X in transitive_basis(G, G, C)
            if _reduction_witness(X) is None]


# -- reference prime-fibre basis, as ``hat_basis_prime`` enumerated it
#    before it read the generators of ``hat._prime_data``


def ref_hat_basis_prime(G, C):
    """X[t, sigma] for every character t and outer representative sigma,
    then Y[omega, zeta] for every outer representative and fibre
    embedding, the latter only when the prime divides |Z(G)|."""
    _require_prime_fibre(C)
    reps = automorphisms(G).out_representatives
    gens = [HatGenerator("X", G, C, t=t, sigma=s)
            for t in homomorphisms(G, C) for s in reps]
    if center(G).order % C.order == 0:
        gens.extend(HatGenerator("Y", G, C, omega=w, zeta=z)
                    for w in reps for z in _fibre_embeddings(G, C))
    return gens


# -- reference product table of the prime-fibre generators: ``hat_multiply``
#    on every pair, as ``verify_hat_vs_quotient`` built it before it read
#    the index tables of ``hat._prime_data``


def ref_hat_table(gens: List[HatGenerator],
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


# -- reference cross-check of the prime-fibre product rules: every one of
#    the n^2 generator pairs composed, as ``verify_hat_vs_quotient`` did
#    before it composed one pair per orbit


def ref_verify_hat_vs_quotient(G, C, check=False):
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
            reduced = {}
            unknown = []
            for cls, coeff in composed.terms.items():
                if is_in_ideal(cls) is not None:
                    continue
                gen = by_raw.get(cls.raw)
                if gen is None:
                    unknown.append(cls)
                else:
                    reduced[gen] = reduced.get(gen, 0) + coeff
            if unknown or reduced != ({} if predicted is None
                                      else {predicted: 1}):
                mismatches.append({
                    "left": a.describe(),
                    "right": b.describe(),
                    "predicted": ("0" if predicted is None
                                  else predicted.describe()),
                    "reduced": " + ".join(sorted(
                        f"{v}*{g.describe()}"
                        for g, v in reduced.items())) or "0",
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


# -- the reference side of the Frattini lemma the mixed product rules of
#    ``hat_multiply`` rest on


def frattini_criterion(G, C, zeta):
    """Whether every character G -> C kills the image of zeta."""
    return all(all(mu[z] == 0 for z in zeta[1:])
               for mu in homomorphisms(G, C))


# -- generators moved along isomorphisms, by their parameters: the
#    reference for the generator index being an isomorphism invariant and
#    for the product rules moving with the generators


def transport_hat_generator(gen: HatGenerator, H: FiniteGroup,
                            phi: tuple) -> HatGenerator:
    """Move a generator along an isomorphism phi: G -> H, given as its
    image tuple."""
    if (len(phi) != gen.group.order
            or sorted(phi) != list(range(H.order))):
        raise GroupError("transport needs an isomorphism out of the "
                         "generator's group")
    reps = automorphisms(H).out_rep_of
    phi_inv = [0] * H.order
    for g, h in enumerate(phi):
        phi_inv[h] = g
    if gen.variant == "X":
        t = tuple(gen.t[phi_inv[h]] for h in range(H.order))
        sigma = reps[tuple(phi[gen.sigma[phi_inv[h]]]
                           for h in range(H.order))]
        return HatGenerator("X", H, gen.fibre, t=t, sigma=sigma)
    omega = reps[tuple(phi[gen.omega[phi_inv[h]]]
                       for h in range(H.order))]
    zeta = tuple(phi[z] for z in gen.zeta)
    return HatGenerator("Y", H, gen.fibre, omega=omega, zeta=zeta)


# -- the index side of the prime-fibre classification: per group the
#    parametrizing algebra, its dimension and its generator census


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


# -- set-level tools of the Green-functor identities (criterion 8 of
#    the acceptance tests): the fibre-free part of an action, disjoint
#    unions, external products of bisets and the equivariant-bijection
#    search that compares two gluings


def c_free_part(emb_ac: ProductEmbedding, S: FiniteAction
                ) -> Tuple[FiniteAction, List[int]]:
    """Subset of points on which the fibre factor acts freely, reindexed;
    also returns the kept original point indices."""
    C = emb_ac.factors[1]
    keep = []
    for p in range(S.size):
        if all(S.table[emb_ac.encode(0, c)][p] != p
               for c in range(1, C.order)):
            keep.append(p)
    pos = {p: i for i, p in enumerate(keep)}
    table = [[pos[row[p]] for p in keep] for row in S.table]
    return FiniteAction(S.group, table), keep


def block_sum(actions: List[FiniteAction]) -> FiniteAction:
    """Disjoint union of actions of the same group."""
    group = actions[0].group
    if any(a.group is not group for a in actions):
        raise GroupError("block sum needs actions of the same group")
    table = []
    for g in range(group.order):
        row = []
        offset = 0
        for a in actions:
            row.extend(offset + v for v in a.table[g])
            offset += a.size
        table.append(row)
    return FiniteAction(group, table)


def interleaved_product_biset(emb_lg: ProductEmbedding, Z: FiniteAction,
                              emb_kh: ProductEmbedding, X: FiniteAction
                              ) -> Tuple[ProductEmbedding, FiniteAction]:
    """The external product of an (L, G)-biset and a (K, H)-biset as an
    (L x K, G x H)-biset: pairs of points with ((l,k),(g,h)) acting
    componentwise.  Returns the ((L x K), (G x H)) embedding and action."""
    L, G = emb_lg.factors
    K, H = emb_kh.factors
    emb_lk = product_embedding(L, K)
    emb_gh = product_embedding(G, H)
    emb = product_embedding(emb_lk.ambient, emb_gh.ambient)
    nz, nx = Z.size, X.size
    table = []
    for e in range(emb.ambient.order):
        lk, gh = emb.decode(e)
        l, k = emb_lk.decode(lk)
        g, h = emb_gh.decode(gh)
        zr = Z.table[emb_lg.encode(l, g)]
        xr = X.table[emb_kh.encode(k, h)]
        table.append([zr[p // nx] * nx + xr[p % nx]
                      for p in range(nz * nx)])
    return emb, FiniteAction(emb.ambient, table)


def equivariant_isomorphism(S: FiniteAction,
                            T: FiniteAction) -> Optional[List[int]]:
    """An equivariant bijection between two actions of the same group,
    or None.  Found orbit by orbit: a base point of an S-orbit can map to
    any point of a T-orbit with literally equal stabilizer, and that
    choice determines the bijection on the whole orbit.  The result is
    verified pointwise before being returned."""
    if S.group is not T.group or S.size != T.size:
        return None
    n_el = S.group.order
    t_unused = [True] * T.size
    mapping = [-1] * S.size
    for orbit in S.orbits():
        base = orbit[0]
        stab = S.stabilizer_elements(base)
        image = -1
        for q in range(T.size):
            if t_unused[q] and T.stabilizer_elements(q) == stab:
                image = q
                break
        if image < 0:
            return None
        for a in range(n_el):
            p, q = S.table[a][base], T.table[a][image]
            if mapping[p] not in (-1, q):
                return None
            mapping[p] = q
            t_unused[q] = False
    if -1 in mapping or len(set(mapping)) != S.size:
        return None
    for a in range(n_el):
        rs, rt = S.table[a], T.table[a]
        if any(mapping[rs[p]] != rt[mapping[p]] for p in range(S.size)):
            return None
    return mapping
