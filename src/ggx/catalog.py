"""A named catalog of concrete structures: the stock groups and the
standard crossed modules, double group-groupoids and crossed squares built
over them.

The catalog backs the command line (``ggx catalog list`` / ``emit``) and
the fixture corpus of the test suite.  Builders are pure; every entry
validates under its kind's validator.
"""

from __future__ import annotations

from .groups import (FiniteGroup, GroupAction, GroupHom, conjugation_action,
                     conjugation_through, cyclic, dihedral_8, klein_four,
                     negation_action, quaternion_8,
                     split_extension_from_action, subgroup, symmetric_3,
                     trivial_group)
from .groupoids import (GroupGroupoid, discrete_gg, gg_conjugation_extension,
                        pair_gg)
from .report import GgxError
from .xmod import (XModGroups, discrete_xmod, identity_xmod, pair_xmod,
                   zero_xmod)
from .dgg import trivial_dgg
from .xsq import norrie_xsq


def base_group(name: str) -> FiniteGroup:
    builders = {
        "z2": lambda: cyclic(2), "z3": lambda: cyclic(3),
        "z4": lambda: cyclic(4), "z5": lambda: cyclic(5),
        "z6": lambda: cyclic(6), "z7": lambda: cyclic(7),
        "z8": lambda: cyclic(8), "v4": klein_four, "s3": symmetric_3,
        "d4": dihedral_8, "q8": quaternion_8, "1": trivial_group,
    }
    if name not in builders:
        raise GgxError(f"unknown group {name!r}; choose from {sorted(builders)}")
    return builders[name]()


def base_group_names() -> tuple[str, ...]:
    return ("z2", "z3", "z4", "z5", "z6", "z7", "z8", "v4", "s3", "d4", "q8")


def canonical_xmod_groups(name: str) -> XModGroups:
    """A standard crossed module of groups over each base group: the
    identity crossed module with the trivial action for abelian groups, and
    the inclusion of the rotation subgroup with conjugation for s3."""
    if name == "s3":
        s3 = symmetric_3()
        z3_part = [0, 2, 4]  # pairs (a,0) in the rotation-by-reflection model
        sub, inc = subgroup(s3, z3_part, name="z3<s3")
        return XModGroups(sub, s3, inc,
                          conjugation_through(GroupHom.identity(s3), inc))
    g = base_group(name)
    return XModGroups(g, g, GroupHom.identity(g), GroupAction.trivial(g, g))


def _inv_xmod_z3_z2() -> XModGroups:
    z3, z2 = cyclic(3), cyclic(2)
    return XModGroups(z3, z2, GroupHom.zero(z3, z2), negation_action(z2, z3))


def _shear_xmod_v4_z2():
    """A crossed module over group-groupoids with zero boundary whose action
    shears the arrow group; its kernel is invisible to both boundary and
    target maps, which makes it the instance where the pairing of the
    associated crossed square carries real information."""
    from .xmod import XModGG
    v4, z2 = klein_four(), cyclic(2)
    pr_hi = GroupHom(v4, z2, (0, 0, 1, 1))
    gg = GroupGroupoid(v4, z2, pr_hi, pr_hi, GroupHom(z2, v4, (0, 2)))
    shear = (0, 1, 3, 2)
    ident = (0, 1, 2, 3)
    perms = [shear if b % 2 else ident for b in range(4)]
    return XModGG(gg, gg, GroupHom.zero(v4, v4), GroupHom.zero(z2, z2),
                  GroupAction(v4, v4, perms))


_XMOD_BASES = ("z2", "z4", "v4", "s3")


def catalog_builders() -> dict:
    """Name -> zero-argument builder for every catalog structure."""
    entries: dict = {}
    for name in base_group_names():
        entries[name] = (lambda n=name: base_group(n))
    for name in _XMOD_BASES:
        entries[f"identity-xmod-{name}"] = \
            (lambda n=name: identity_xmod(discrete_gg(base_group(n))))
        entries[f"zero-xmod-{name}"] = \
            (lambda n=name: zero_xmod(discrete_gg(base_group(n))))
        entries[f"discrete-xmod-{name}"] = \
            (lambda n=name: discrete_xmod(canonical_xmod_groups(n)))
        entries[f"pair-xmod-{name}"] = \
            (lambda n=name: pair_xmod(canonical_xmod_groups(n)))
    entries["pair-xmod-z3-z2-inv"] = lambda: pair_xmod(_inv_xmod_z3_z2())
    entries["discrete-xmod-z3-z2-inv"] = lambda: discrete_xmod(_inv_xmod_z3_z2())
    entries["shear-xmod-v4-z2"] = _shear_xmod_v4_z2

    entries["pair-gg-z2"] = lambda: pair_gg(cyclic(2))
    entries["pair-gg-z3"] = lambda: pair_gg(cyclic(3))
    entries["discrete-gg-s3"] = lambda: discrete_gg(symmetric_3())

    entries["trivial-dgg-z2"] = lambda: trivial_dgg(discrete_gg(cyclic(2)))
    entries["trivial-dgg-s3"] = lambda: trivial_dgg(discrete_gg(symmetric_3()))
    entries["trivial-dgg-pair-z2"] = lambda: trivial_dgg(pair_gg(cyclic(2)))

    entries["conj-xmodgroups-s3"] = lambda: XModGroups(
        symmetric_3(), symmetric_3(), GroupHom.identity(symmetric_3()),
        conjugation_action(symmetric_3()))
    entries["inv-xmodgroups-z3-z2"] = _inv_xmod_z3_z2

    entries["norrie-z2-whole"] = lambda: norrie_xsq(
        canonical_xmod_groups("z2"), [0, 1], [0, 1])
    entries["norrie-z2-zero"] = lambda: norrie_xsq(
        canonical_xmod_groups("z2"), [0], [0])
    entries["norrie-s3"] = lambda: norrie_xsq(
        XModGroups(symmetric_3(), symmetric_3(),
                   GroupHom.identity(symmetric_3()),
                   conjugation_action(symmetric_3())),
        [0, 2, 4], [0, 2, 4])

    entries["splitext-z3-z2-inv"] = lambda: split_extension_from_action(
        cyclic(3), cyclic(2), negation_action(cyclic(2), cyclic(3)))
    entries["conj-splitext-gg-pair-z2"] = \
        lambda: gg_conjugation_extension(pair_gg(cyclic(2)))
    return entries


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(catalog_builders()))


def catalog_build(name: str):
    builders = catalog_builders()
    if name not in builders:
        raise GgxError(f"unknown catalog entry {name!r}")
    return builders[name]()
