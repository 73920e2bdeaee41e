"""Groups, homomorphisms, actions, split extensions, semidirect products."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

import ggx.groups
from ggx.catalog import catalog_build
from ggx.equiv import theta
from ggx.groups import (SCAN_CHUNK, FiniteGroup, GroupAction,
                        GroupHom, SplitExtension, compose,
                        conjugation_action, conjugation_extension,
                        cyclic, derived_action, dihedral_8, direct_product,
                        image, is_injective, is_isomorphism, is_surjective,
                        iso_search, kernel, klein_four, negation_action,
                        quaternion_8, semidirect_product,
                        split_extension_from_action, subgroup, symmetric_3,
                        validate_action, validate_group,
                        validate_split_extension)
from ggx.report import DomainMismatchError, GgxError, proven
from gen_witnesses import intercalates, loop_bases, swapped
from reference_laws import entries


def test_z2_is_valid():
    assert validate_group(FiniteGroup.from_rows("z2", [[0, 1], [1, 0]])).ok


def test_constant_column_fails_latin():
    rep = validate_group(FiniteGroup.from_rows("bad", [[0, 1], [0, 1]]))
    assert not rep.ok
    assert rep.axiom == "latin-square"
    assert rep.witness == ("col", 0)


def test_malformed_table_reported_separately():
    g = FiniteGroup("bad", ("0", "1"), ((0, 5), (1, 0)))
    rep = validate_group(g)
    assert rep.axiom == "malformed"


def test_tables_are_read_only_index_arrays():
    g = FiniteGroup("z2", ("0", "1"), ((0, 1), (1, 0)))
    assert g.table.dtype == np.intp and not g.table.flags.writeable
    assert g == FiniteGroup.from_rows("z2", [[0, 1], [1, 0]])
    assert hash(g) == hash(cyclic(2))
    with pytest.raises(GgxError):
        FiniteGroup("ragged", ("0", "1"), ((0, 1), (1,)))


def test_non_associative_latin_square_reported():
    # the smallest nonassociative loop (order 5)
    rows = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    rep = validate_group(FiniteGroup.from_rows("loop5", rows))
    assert not rep.ok and rep.axiom == "associativity"


def test_blocked_associativity_scan_keeps_the_first_witness():
    # z2^k with the columns h+1 and h+2 swapped in the rows h .. 2h-1:
    # the elements below h = 2^(k-1) still associate on the left, and a
    # block holds the ceil(SCAN_CHUNK / 2h) <= h rows that give it at least
    # SCAN_CHUNK pairs (i, j), so every violation lies past the first block
    h = 2
    while h < -(-SCAN_CHUNK // (2 * h)):
        h *= 2
    rows = [[i ^ j for j in range(2 * h)] for i in range(2 * h)]
    for r in range(h, 2 * h):
        rows[r][h + 1], rows[r][h + 2] = rows[r][h + 2], rows[r][h + 1]
    loop = FiniteGroup.from_rows("late-loop", rows)
    t = np.array(rows)
    bad = np.argwhere(t[t] != t[:, t])    # every (i, j, k) in one grid
    assert len(bad) and bad[:, 0].min() >= h
    rep = validate_group(loop)
    assert rep.axiom == "associativity"
    assert rep.witness == tuple(int(v) for v in bad[0])


def test_entries_reads_compact_indices_past_the_int16_range():
    # 199 * 200 + 199 overflows int16, so the flat positions must be intp
    n = 200
    m = np.arange(n * n).reshape(n, n)
    x = np.array([[199, 3], [0, 150]], dtype=np.int16)
    y = np.array([[199, 5], [1, 199]], dtype=np.int16)
    assert (entries(m, x, y) == m[x, y]).all()
    assert entries(m, x[:, :1], y).tolist() == [[39999, 39805], [1, 199]]


def test_associativity_scan_memory_is_bounded():
    s = theta(catalog_build("pair-xmod-s3")).s    # 324 squares
    tracemalloc.start()
    try:
        assert validate_group(s).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


@pytest.fixture
def middles(monkeypatch):
    """The ``(order, middles)`` of every associativity scan that
    ``validate_group`` runs."""
    calls = []
    scan = ggx.groups.scan_associativity

    def record(t, mids):
        calls.append((len(t), mids))
        return scan(t, mids)

    monkeypatch.setattr(ggx.groups, "scan_associativity", record)
    return calls


def unchecked(g: FiniteGroup) -> FiniteGroup:
    """An equal group that does not hold a report yet."""
    return FiniteGroup(g.name, g.elements, g.table)


def scanned_over_generators(g: FiniteGroup, calls) -> bool:
    """Whether ``calls`` is one scan of ``g`` with at most
    ``floor(log2 |g|) + 1`` middles listed."""
    [(n, mids)] = calls
    return n == g.order and not isinstance(mids, slice) and \
        len(mids) <= int(np.log2(n)) + 1


def test_corpus_tables_scan_every_middle_only_in_one_block(corpus, middles):
    groups = set()
    for xm in corpus:
        d = theta(xm)
        groups.update((xm.g.arrows, xm.g.objects, xm.h.arrows, xm.h.objects,
                       d.s, d.v))
    # the bound-4 enumeration stops at 16 squares; catalog entries go past
    small = [g for g in groups if g.order ** 2 <= SCAN_CHUNK]
    assert max(g.order for g in small) == 16 and len(small) >= 40
    for g in groups:
        middles.clear()
        assert validate_group(unchecked(g)).ok
        if g in small:
            assert middles == [(g.order, slice(None))], g
        else:
            assert scanned_over_generators(g, middles), (g, middles)


def test_large_tables_scan_a_generating_set(large_squares, middles):
    for name, g in large_squares.items():
        middles.clear()
        assert validate_group(unchecked(g)).ok
        assert scanned_over_generators(g, middles), (name, middles)


def test_a_failing_large_table_is_rescanned_whole(middles):
    g = loop_bases()["z2^5"]
    loop = swapped(g, intercalates(g)[0])
    assert validate_group(loop).axiom == "associativity"
    (_, gens), last = middles
    assert not isinstance(gens, slice) and last == (32, slice(None))


def test_semidirect_z3_z2_is_nonabelian_of_order_6():
    z3, z2 = cyclic(3), cyclic(2)
    g = semidirect_product(z3, z2, negation_action(z2, z3))
    assert validate_group(g).ok
    assert g.order == 6
    witness = [(a, b) for a in range(6) for b in range(6)
               if g.add(a, b) != g.add(b, a)]
    assert witness


def test_semidirect_with_trivial_action_is_coordinatewise():
    z3, z4 = cyclic(3), cyclic(4)
    g = direct_product(z3, z4)
    for (a, b), (a1, b1) in product(product(range(3), range(4)), repeat=2):
        left = g.add(a * 4 + b, a1 * 4 + b1)
        assert left == ((a + a1) % 3) * 4 + (b + b1) % 4


def test_semidirect_conjugation_has_square_order():
    for g in (cyclic(4), symmetric_3()):
        k = semidirect_product(g, g, conjugation_action(g))
        assert k.order == g.order ** 2
        assert validate_group(k).ok


def test_constructions_keep_a_report_only_when_their_inputs_prove_it():
    z3, z2 = cyclic(3), cyclic(2)
    act = negation_action(z2, z3)
    assert not proven(validate_group, semidirect_product(z3, z2, act))
    assert validate_action(act).ok
    assert proven(validate_group, semidirect_product(z3, z2, act))
    # a valid action of z2 on another group of order 3 is wired wrong
    t3 = FiniteGroup("t3", ("a", "b", "c"), z3.table)
    other = negation_action(z2, t3)
    assert validate_action(other).ok
    assert not proven(validate_group, semidirect_product(z3, z2, other))

    z4 = cyclic(4)
    assert not proven(validate_group, subgroup(z4, [0, 2])[0])
    assert validate_group(z4).ok
    assert proven(validate_group, subgroup(z4, [0, 2])[0])
    empty, _ = subgroup(z4, [])
    assert not proven(validate_group, empty)
    assert validate_group(empty).axiom == "malformed"


def test_a_product_with_colliding_pair_names_stays_malformed():
    # ("0,1", "2") and ("0", "1,2") are both named "(0,1,2)"
    v4 = klein_four().table
    a = FiniteGroup("a", ("0", "1", "0,1", "0,2"), v4)
    b = FiniteGroup("b", ("0", "1", "2", "1,2"), v4)
    act = GroupAction.trivial(b, a)
    assert validate_action(act).ok          # so a and b hold VALID too
    k = semidirect_product(a, b, act)
    assert not proven(validate_group, k)
    rep = validate_group(k)
    assert rep.axiom == "malformed"
    assert rep.message == "element names are not distinct"


def test_derived_action_of_conjugation_extension_is_conjugation():
    for g in (cyclic(4), symmetric_3(), quaternion_8()):
        ext = conjugation_extension(g)
        assert validate_split_extension(ext).ok
        assert np.array_equal(derived_action(ext).perms,
                              conjugation_action(g).perms)


def test_derived_action_of_direct_product_is_trivial():
    z3, z2 = cyclic(3), cyclic(2)
    ext = split_extension_from_action(z3, z2, GroupAction.trivial(z2, z3))
    assert np.array_equal(derived_action(ext).perms,
                          GroupAction.trivial(z2, z3).perms)


def test_derived_action_recovers_inversion():
    z3, z2 = cyclic(3), cyclic(2)
    inv = negation_action(z2, z3)
    ext = split_extension_from_action(z3, z2, inv)
    got = derived_action(ext)
    assert np.array_equal(got.perms, inv.perms)
    assert got.perms[1].tolist() == [0, 2, 1]


@pytest.mark.parametrize("maker", [cyclic(2), cyclic(3), cyclic(4),
                                   klein_four(), symmetric_3(), dihedral_8(),
                                   quaternion_8()],
                         ids=lambda g: g.name)
def test_derived_action_satisfies_action_axioms(maker):
    ext = conjugation_extension(maker)
    assert validate_action(derived_action(ext)).ok


def test_conjugation_of_abelian_group_is_trivial():
    for g in (cyclic(5), klein_four()):
        assert np.array_equal(conjugation_action(g).perms,
                              GroupAction.trivial(g, g).perms)


def test_center_of_s3_acts_trivially_under_conjugation():
    s3 = symmetric_3()
    act = conjugation_action(s3)
    center = [b for b in range(6)
              if all(s3.add(b, a) == s3.add(a, b) for a in range(6))]
    assert center == [s3.zero]
    for b in center:
        assert act.perms[b].tolist() == list(range(6))


def test_action_validator_catches_non_automorphism():
    z3, z2 = cyclic(3), cyclic(2)
    rep = validate_action(GroupAction(z2, z3, ((0, 1, 2), (1, 0, 2))))
    assert not rep.ok and rep.axiom == "act-auto"


def test_validator_report_is_computed_once_per_instance(monkeypatch):
    checks = []
    real = ggx.groups.first_violation

    def counted(*args, **kwargs):
        checks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ggx.groups, "first_violation", counted)
    g = symmetric_3()
    first = validate_group(g)
    done = len(checks)
    assert first.ok and done > 0
    assert validate_group(g) is first
    assert len(checks) == done           # the second call did no work
    assert validate_group(symmetric_3()).ok
    assert len(checks) == 2 * done       # an equal new value is checked anew
    assert symmetric_3() == g            # the kept report joins no equality


def test_kernel_of_zero_map_is_everything():
    z4, z2 = cyclic(4), cyclic(2)
    k, inc = kernel(GroupHom.zero(z4, z2))
    assert k.order == 4 and inc.map.tolist() == [0, 1, 2, 3]


def test_kernel_of_mod2_surjection():
    z4, z2 = cyclic(4), cyclic(2)
    k, inc = kernel(GroupHom(z4, z2, (0, 1, 0, 1)))
    assert k.order == 2 and inc.map.tolist() == [0, 2]


def test_image_and_predicates():
    z4, z2 = cyclic(4), cyclic(2)
    f = GroupHom(z4, z2, (0, 1, 0, 1))
    img, inc = image(f)
    assert img.order == 2
    assert is_surjective(f) and not is_injective(f)
    assert is_isomorphism(GroupHom.identity(z4))


def test_compose_with_identity():
    z4, z2 = cyclic(4), cyclic(2)
    f = GroupHom(z4, z2, (0, 1, 0, 1))
    assert np.array_equal(compose(f, GroupHom.identity(z2)).map, f.map)
    assert np.array_equal(compose(GroupHom.identity(z4), f).map, f.map)


def test_compose_mismatch_raises():
    z4, z3 = cyclic(4), cyclic(3)
    with pytest.raises(DomainMismatchError):
        compose(GroupHom.identity(z4), GroupHom.identity(z3))


def test_subgroup_requires_closure():
    with pytest.raises(GgxError):
        subgroup(cyclic(4), [0, 1])


def test_split_extension_validator_catches_broken_section():
    z3, z2 = cyclic(3), cyclic(2)
    ext = split_extension_from_action(z3, z2, negation_action(z2, z3))
    bad = SplitExtension(ext.kernel_group, ext.total_group,
                         ext.quotient_group, ext.inclusion, ext.projection,
                         GroupHom.zero(z2, ext.total_group))
    rep = validate_split_extension(bad)
    assert not rep.ok and rep.axiom == "section" and rep.witness == (1,)


def test_quaternion_group_structure():
    q8 = quaternion_8()
    assert validate_group(q8).ok
    assert not q8.is_abelian()
    # a unique element of order 2
    orders = [next(k for k in range(1, 9)
                   if _power(q8, x, k) == q8.zero) for x in range(8)]
    assert orders.count(2) == 1
    assert iso_search(q8, dihedral_8()) is None


def _power(g, x, k):
    acc = g.zero
    for _ in range(k):
        acc = g.add(acc, x)
    return acc


def test_iso_search_finds_isomorphism():
    z6 = cyclic(6)
    assert iso_search(direct_product(cyclic(3), cyclic(2)), z6) is not None
    assert iso_search(symmetric_3(), z6) is None
    assert iso_search(klein_four(), cyclic(4)) is None
