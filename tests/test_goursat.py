"""Projections, kernels, the star product and Goursat decomposition."""

import pytest

from fibredburnside import goursat, groups
from fibredburnside.fibred import TransitiveFibredBiset
from fibredburnside.groups import (
    GroupError,
    cyclic,
    elements_to_mask,
    group_from_spec,
    homomorphisms,
    product_embedding,
    small_groups_catalog,
    subgroups,
)
from helpers import _extend_hom
import setlevel


def conjugate(D, g):
    """^g D, through ``conjugate_pair`` with the trivial character."""
    return setlevel.conjugate_pair(D, (0,) * D.order, g)[0]


def diagonal(emb):
    G = emb.factors[0]
    return emb.ambient.subgroup(emb.encode(g, g) for g in range(G.order))


@pytest.fixture(scope="module")
def q8d8():
    return product_embedding(groups.quaternion8(), groups.dihedral(8))


@pytest.fixture(scope="module")
def counterexample_subgroup(q8d8):
    return q8d8.ambient.generated_subgroup(
        [q8d8.encode(1, 1), q8d8.encode(4, 4)])


# -- every builder returns a consistent triple -------------------------------


def assert_triple(S, parent):
    assert isinstance(S, tuple) and S.parent is parent
    assert type(S.elements) is tuple
    assert list(S.elements) == sorted(set(S.elements))
    assert S.mask == elements_to_mask(S.elements)


def test_subgroup_builders_return_consistent_triples():
    c2 = cyclic(2)
    cat = small_groups_catalog(15)
    for G in cat:
        for H in cat:
            if G.order * H.order > 64:
                continue
            emb = product_embedding(G, H)
            emb_hg = product_embedding(H, G)
            emb_gg = product_embedding(G, G)
            amb = emb.ambient
            subs = subgroups(amb)
            for S in subs:
                assert_triple(S, amb)
            for S in (groups.center(amb), groups.frattini(amb),
                      amb.trivial_subgroup(), amb.full_subgroup(),
                      amb.generated_subgroup(amb.generators()[:1]),
                      amb.subgroup(reversed(subs[len(subs) // 2].elements))):
                assert_triple(S, amb)
            for D in subs[::max(1, len(subs) // 3)]:
                for i, factor in ((1, G), (2, H)):
                    assert_triple(goursat.projection(emb, D, i), factor)
                    assert_triple(goursat.kernel_part(emb, D, i), factor)
                data = goursat.goursat_decompose(emb, D)
                for S, factor in ((data.E, G), (data.k1, G), (data.F, H),
                                  (data.k2, H)):
                    assert_triple(S, factor)
                assert_triple(goursat.rebuild_from_goursat(emb, data), amb)
                g = amb.order - 1
                assert_triple(setlevel.conjugate_pair(
                    D, (0,) * D.order, g)[0], amb)
                subs_hg = subgroups(emb_hg.ambient)
                V = subs_hg[D.order % len(subs_hg)]
                assert_triple(setlevel.star(emb, D, emb_hg, V), emb_gg.ambient)
                delta = homomorphisms(D, c2)[-1]
                X = TransitiveFibredBiset(G, H, c2, D.mask, delta)
                for S in X.subgroup_and_kernel():
                    assert_triple(S, amb)


# -- projections and kernels -------------------------------------------------


def test_projection_of_diagonal(q8):
    emb = product_embedding(q8, q8)
    D = diagonal(emb)
    assert goursat.projection(emb, D, 1).order == 8
    assert goursat.projection(emb, D, 2).order == 8
    assert goursat.kernel_part(emb, D, 1).order == 1
    assert goursat.kernel_part(emb, D, 2).order == 1


def test_projection_counterexample(q8d8, counterexample_subgroup):
    D = counterexample_subgroup
    assert goursat.projection(q8d8, D, 1).order == 8
    assert goursat.projection(q8d8, D, 2).order == 8
    k1 = goursat.kernel_part(q8d8, D, 1)
    k2 = goursat.kernel_part(q8d8, D, 2)
    assert k1.elements == (0, 2)  # <x^2>
    assert k2.elements == (0, 2)  # <a^2>


def test_projection_of_one_sided_product(q8, c2):
    emb = product_embedding(q8, c2)
    D = emb.ambient.subgroup(emb.encode(g, 0) for g in range(8))
    assert goursat.projection(emb, D, 2).order == 1
    assert goursat.kernel_part(emb, D, 1).order == 8


def test_projection_three_factors(q8, d8, c4):
    # the twisted diagonal of the counterexample pair inside (G x H) x C
    emb2 = product_embedding(q8, d8)
    emb = product_embedding(emb2.ambient, c4)
    D2 = emb2.ambient.generated_subgroup([emb2.encode(1, 1),
                                          emb2.encode(4, 4)])
    images = _extend_hom(emb2.ambient, D2.elements,
                         [emb2.encode(1, 1), emb2.encode(4, 4)], c4, (2, 3))
    dd = emb.ambient.subgroup(
        emb.encode(x, c4.inv(images[x])) for x in D2.elements)
    # delta carries (y,b)^2 = (x^2, 1) to c^2, so nothing survives in the
    # part of G trivial on H x C
    assert goursat.kernel_part(
        emb2, goursat.kernel_part(emb, dd, 1), 1).order == 1
    assert goursat.kernel_part(emb, dd, 2).order == 1
    p12 = goursat.projection(emb, dd, 1)
    assert p12.parent is emb2.ambient
    assert p12.elements == D2.elements


def test_projection_invalid_indices(q8, c2):
    # a side is 1 (left) or 2 (right), never 0, 3 or an index tuple
    emb = product_embedding(q8, c2)
    D = emb.ambient.trivial_subgroup()
    for read in (goursat.projection, goursat.kernel_part):
        for side in (0, 3, (1,)):
            with pytest.raises(GroupError,
                               match=r"neither 1 \(left\) nor 2 \(right\)"):
                read(emb, D, side)


# -- star product ------------------------------------------------------------


def test_star_of_diagonals(s3):
    emb = product_embedding(s3, s3)
    D = diagonal(emb)
    assert setlevel.star(emb, D, emb, D).elements == D.elements


def test_star_blown_diagonal_is_idempotent(q8, d8):
    # D' = {(g1, g2) : g1 g2^-1 in k1(D)} satisfies D' * D' = D'
    emb_gh = product_embedding(q8, d8)
    D = emb_gh.ambient.generated_subgroup([emb_gh.encode(1, 1),
                                           emb_gh.encode(4, 4)])
    k1 = goursat.kernel_part(emb_gh, D, 1)
    emb = product_embedding(q8, q8)
    dp = emb.ambient.subgroup(
        emb.encode(g1, g2)
        for g1 in range(8) for g2 in range(8)
        if (k1.mask >> q8.mul(g1, q8.inv(g2))) & 1)
    assert setlevel.star(emb, dp, emb, dp).elements == dp.elements


def test_star_factor_mismatch(q8, d8, c2):
    emb_gh = product_embedding(q8, d8)
    emb_ck = product_embedding(c2, q8)
    with pytest.raises(GroupError):
        setlevel.star(emb_gh, diagonal(product_embedding(q8, q8)),
                     emb_ck, emb_ck.ambient.trivial_subgroup())


def test_star_matches_definition_randomized(rng):
    gs = [group_from_spec(s) for s in ("C4", "S3", "C2xC2")]
    for _ in range(15):
        G, H, K = (gs[rng.randrange(3)] for _ in range(3))
        emb_gh = product_embedding(G, H)
        emb_hk = product_embedding(H, K)
        subs1 = subgroups(emb_gh.ambient)
        subs2 = subgroups(emb_hk.ambient)
        U = subs1[rng.randrange(len(subs1))]
        V = subs2[rng.randrange(len(subs2))]
        result = setlevel.star(emb_gh, U, emb_hk, V)
        emb_gk = product_embedding(G, K)
        expected = {
            emb_gk.encode(g, k)
            for g in range(G.order) for k in range(K.order)
            if any((U.mask >> emb_gh.encode(g, h)) & 1
                   and (V.mask >> emb_hk.encode(h, k)) & 1
                   for h in range(H.order))}
        assert set(result.elements) == expected


def test_star_associative_exhaustive_small():
    C4 = cyclic(4)
    emb = product_embedding(C4, C4)
    subs = subgroups(emb.ambient)
    for U in subs:
        for V in subs:
            UV = setlevel.star(emb, U, emb, V)
            for W in subs[::3]:
                left = setlevel.star(emb, UV, emb, W)
                right = setlevel.star(emb, U, emb,
                                     setlevel.star(emb, V, emb, W))
                assert left.elements == right.elements


def test_star_projection_containments(rng):
    # p1(U*V) inside p1(U); k1(U) inside k1(U*V)
    gs = [group_from_spec(s) for s in ("D8", "C4", "S3")]
    for _ in range(20):
        G, H, K = (gs[rng.randrange(3)] for _ in range(3))
        emb_gh = product_embedding(G, H)
        emb_hk = product_embedding(H, K)
        subs1 = subgroups(emb_gh.ambient)
        subs2 = subgroups(emb_hk.ambient)
        U = subs1[rng.randrange(len(subs1))]
        V = subs2[rng.randrange(len(subs2))]
        emb_gk = product_embedding(G, K)
        UV = setlevel.star(emb_gh, U, emb_hk, V)
        p1_uv = goursat.projection(emb_gk, UV, 1).mask
        assert p1_uv & ~goursat.projection(emb_gh, U, 1).mask == 0
        k1_u = goursat.kernel_part(emb_gh, U, 1).mask
        assert k1_u & ~goursat.kernel_part(emb_gk, UV, 1).mask == 0


# -- goursat decomposition ---------------------------------------------------


def test_goursat_diagonal(q8):
    emb = product_embedding(q8, q8)
    data = goursat.goursat_decompose(emb, diagonal(emb))
    assert data.E.order == 8 and data.F.order == 8
    assert data.k1.order == 1 and data.k2.order == 1
    assert sorted(data.iso) == list(range(data.e_quotient.order))
    assert data.e_quotient.order == 8


def test_goursat_counterexample(q8d8, counterexample_subgroup):
    data = goursat.goursat_decompose(q8d8, counterexample_subgroup)
    assert counterexample_subgroup.order == 16
    assert data.k1.order == 2 and data.k2.order == 2
    assert data.e_quotient.order == 4
    assert data.f_quotient.order == 4


def test_goursat_full_product(q8, c2):
    emb = product_embedding(q8, c2)
    D = emb.ambient.full_subgroup()
    data = goursat.goursat_decompose(emb, D)
    assert data.e_quotient.order == 1
    assert data.f_quotient.order == 1


def test_goursat_round_trip_exhaustive(s3, c4):
    emb = product_embedding(s3, c4)
    for D in subgroups(emb.ambient):
        data = goursat.goursat_decompose(emb, D)
        rebuilt = goursat.rebuild_from_goursat(emb, data)
        assert rebuilt.elements == D.elements


# -- conjugation -------------------------------------------------------------


def test_conjugate_by_identity(q8d8, counterexample_subgroup):
    assert conjugate(counterexample_subgroup,
                     0).elements == counterexample_subgroup.elements


def test_conjugate_normal_subgroup(q8):
    z = q8.subgroup([0, 2])
    for g in range(8):
        assert conjugate(z, g).elements == z.elements


def test_conjugation_is_group_action(rng):
    d8 = groups.dihedral(8)
    emb = product_embedding(d8, d8)
    subs = subgroups(emb.ambient)
    for _ in range(25):
        D = subs[rng.randrange(len(subs))]
        g = rng.randrange(64)
        h = rng.randrange(64)
        gh = emb.ambient.mul(g, h)
        via_both = conjugate(conjugate(D, h), g)
        assert conjugate(D, gh).elements == via_both.elements


def test_conjugate_preserves_size_and_goursat_shape(rng):
    d8 = groups.dihedral(8)
    emb = product_embedding(d8, d8)
    subs = subgroups(emb.ambient)
    for _ in range(15):
        D = subs[rng.randrange(len(subs))]
        g = rng.randrange(64)
        conj = conjugate(D, g)
        assert conj.order == D.order
        a = goursat.goursat_decompose(emb, D)
        b = goursat.goursat_decompose(emb, conj)
        assert a.k1.order == b.k1.order and a.k2.order == b.k2.order
        assert a.E.order == b.E.order and a.F.order == b.F.order


def test_conjugate_pair_character(q8d8, counterexample_subgroup, c4):
    D = counterexample_subgroup
    images = _extend_hom(q8d8.ambient, D.elements,
                         [q8d8.encode(1, 1), q8d8.encode(4, 4)], c4, (2, 3))
    delta = groups.check_homomorphism(D, c4,
                                      (images[x] for x in D.elements))
    g = q8d8.encode(4, 1)
    newD, newdelta = setlevel.conjugate_pair(D, delta, g)
    amb = q8d8.ambient
    for x, value in zip(newD.elements, newdelta):
        orig = amb.mul(amb.inv(g), amb.mul(x, g))
        assert value == images[orig]
