"""Monomial Burnside rings over finite groups: subcharacter bases, the
composition calculus of fibred classes (with an independent orbit-level
oracle), and the quotient algebra of classes that do not factor through
smaller groups, including its closed description for prime fibres."""

from .groups import (
    AutomorphismData,
    BoundExceededError,
    FiniteGroup,
    GroupError,
    GroupSpecError,
    ProductEmbedding,
    Subgroup,
    automorphisms,
    center,
    check_homomorphism,
    check_subgroup,
    cyclic,
    dihedral,
    dicyclic,
    double_coset_representatives,
    frattini,
    group_from_spec,
    homomorphisms,
    isomorphism,
    product_embedding,
    quaternion8,
    quotient,
    small_groups_catalog,
    subgroup_as_group,
    subgroups,
    symmetric,
)
from .goursat import (
    GoursatData,
    conjugate_pair,
    goursat_decompose,
    kernel_part,
    projection,
    rebuild_from_goursat,
    star,
)
from .monomial import (
    FiniteAction,
    MonomialSet,
)
from .fibred import (
    BoucFactorization,
    FibreError,
    FibredElement,
    TransitiveFibredBiset,
    bouc_factorize,
    canonicalize,
    compose,
    compose_oracle,
    element_from_json,
    element_of,
    element_to_json,
    elementary_fibred_biset,
    from_monomial_set,
    identity_element,
    is_idempotent,
    opposite,
    opposite_element,
    ring_identity,
    ring_product,
    subcharacter_classes,
    tensor,
    to_monomial_set,
    transitive_basis,
    transitive_fibred_biset,
    zero_element,
)
from .hat import (
    FactorizationWitness,
    HatGenerator,
    VerificationError,
    counterexample_verify,
    hat_basis_prime,
    hat_dimension,
    hat_generator_class,
    hat_multiply,
    is_in_ideal,
    verify_hat_vs_quotient,
)

__version__ = "0.1.0"
