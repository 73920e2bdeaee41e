"""Finite group-groupoids, crossed modules over groups and over
group-groupoids, double group-groupoids and crossed squares, together with
the equivalence functors between them and exhaustive validators for every
axiom system involved.

Everything is desk-scale finite: structures are Cayley tables and explicit
permutation/index maps, and validity is always decided by exhaustive checks.
"""

from .groups import (FiniteGroup, GroupAction, GroupHom, SplitExtension,
                     conjugation_action, conjugation_extension, cyclic,
                     derived_action, dihedral_8, direct_product, image,
                     is_hom, is_injective, is_isomorphism, is_surjective,
                     kernel, klein_four, negation_action, quaternion_8,
                     semidirect_product, split_extension_from_action,
                     subgroup, symmetric_3, trivial_group, validate_action,
                     validate_group, validate_hom, validate_split_extension)
from .groupoids import (GGMorphism, GroupGroupoid, SplitExtensionGG,
                        compose_arrows, costar, discrete_gg, gg_from_xmod,
                        groupoid_inverse, ker_d0, ker_d1, pair_gg, star,
                        trivial_gg, validate_gg_morphism,
                        validate_group_groupoid, validate_split_extension_gg,
                        xmod_from_gg)
from .xmod import (XModGG, XModGGMorphism, XModGroups, XModGroupsMorphism,
                   discrete_xmod, identity_xmod, inclusion_xmod,
                   induced_actions, object_level_xmod, pair_xmod,
                   validate_xmod_gg, validate_xmod_groups, xmod_catalog,
                   zero_xmod)
from .dgg import (DGGMorphism, DoubleGroupGroupoid, SpecialDoubleGroupoid,
                  SpecialSquare, comp_h, comp_v, inv_h, inv_v,
                  special_from_xmod, trivial_dgg, validate_dgg)
from .xsq import (CrossedSquare, XSqMorphism, norrie_xsq, validate_xsq)
from .equiv import (RoundTrip, delta, eta, gamma, roundtrip_delta_eta,
                    roundtrip_eta_delta, roundtrip_gamma_theta,
                    roundtrip_theta_gamma, theta)
from .enumeration import (all_actions, all_gg_structures, all_homs,
                          all_xmod_gg, all_xmod_groups)
from .report import (BoundExceededError, DomainMismatchError, GgxError,
                     NotComposableError, ParseError, ValidationReport)
from .serialize import dumps, load_path, loads

__version__ = "0.1.0"
