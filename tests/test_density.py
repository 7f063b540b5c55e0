import functools
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from defring_audit.density import (
    MAX_DENSITY_K,
    MAX_GROUP_ORDER,
    FiniteGroup,
    SplitDensityProblem,
    all_subgroups,
    bound_certificate,
    build_group,
    cyclic_group,
    density,
    direct_product,
    elementary_abelian_2,
    is_subgroup,
    numbered_name,
    perm_index_from_cycles,
    subgroup_classes,
    subgroup_closure,
    symmetric_group,
    trivial_group,
)
from defring_audit import density as density_module
from defring_audit.acceptance import c08_density_bound, enumerated_density, enumerated_xi
from defring_audit.ff import InternalCheckError, _power


# ---------------------------------------------------------------------------
# oracles: the exhaustive routines the fast paths replaced
# ---------------------------------------------------------------------------


def _greedy_generators_oracle(table):
    """The least indices whose right products reach every element.

    Each index not yet reached becomes a generator; the reached set is
    then closed again under right multiplication by every generator.  No
    associativity is assumed, so the set generates any table.
    """
    n = len(table)
    gens = []
    reached = 0
    for g in range(n):
        if reached >> g & 1:
            continue
        gens.append(g)
        reached = 0
        for x in gens:
            reached |= 1 << x
        elems = list(gens)
        for x in elems:
            row = table[x]
            for s in gens:
                y = row[s]
                if not reached >> y & 1:
                    reached |= 1 << y
                    elems.append(y)
    return gens


def _class_orbits_oracle(group):
    """The least element of each element's class, by the orbits under
    ``conjugations`` (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 4.1): the generators reach every u, so the orbit of g is
    its class."""
    conjugations = group.conjugations()
    keys = [None] * group.order
    for g in group.elements():
        if keys[g] is None:
            keys[g] = g
            orbit = [g]
            for x in orbit:
                for conj in conjugations:
                    if keys[conj[x]] is None:
                        keys[conj[x]] = g
                        orbit.append(conj[x])
    return keys


def _table_group(table, name="", generators=None):
    """A group whose product is a lookup in ``table``, checked only by its walk.

    The oracles' twin of a structured group (its products are lookups) and
    the walk's test input.  Its identity is the first left identity (else
    0), each inverse the first right inverse (else the element itself), its
    generators the greedy ones unless given, and its classes the orbits of
    its conjugations, found on the first query.
    """
    table = tuple(tuple(row) for row in table)
    points = tuple(range(len(table)))
    identity = next((e for e in points if table[e] == points), 0)
    inverse = [row.index(identity) if identity in row else a for a, row in enumerate(table)]
    keys = functools.cache(lambda: _class_orbits_oracle(group))
    group = FiniteGroup(
        len(table), identity, name,
        _greedy_generators_oracle(table) if generators is None else list(generators),
        mul=lambda a, b: table[a][b], inv=inverse.__getitem__,
        class_key=lambda x: keys()[x],
        power_key=lambda key, m: keys()[_power(key, m, group.mul, identity)],
        count_classes=lambda: Counter(keys()),
    )
    return group


def _inverses(group):
    return tuple(map(group.inv, group.elements()))


def _closure_oracle(group, generators):
    """Breadth-first closure under right multiplication by every generator."""
    gens = {group.identity}
    for g in generators:
        gens.add(g)
        gens.add(group.inv(g))
    elems = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def _saturation_oracle(group):
    """Every subgroup, by saturating generator sets one element at a time."""
    start = frozenset({group.identity})
    found = {start}
    frontier = [start]
    while frontier:
        h = frontier.pop()
        for a in group.elements():
            if a in h:
                continue
            k = _closure_oracle(group, tuple(h) + (a,))
            if k not in found:
                found.add(k)
                frontier.append(k)
    return sorted(found, key=lambda h: (len(h), sorted(h)))


def _join_search_oracle(group):
    """Every subgroup, by joining every found subgroup with each cyclic subgroup outside it."""
    cyclic = density_module._cyclic_generators(group)
    start = 1 << group.identity
    found = {start: ((), [group.identity])}
    frontier = [start]
    while frontier:
        h = frontier.pop()
        gens, elems = found[h]
        # <H, g> = <H, x> for every x in the coset H*g, which _join lists
        # right after H; `done` holds H and the cosets already joined
        done = h
        for g in cyclic:
            if done >> g & 1:
                continue
            k_elems, k = density_module._join(group, elems, h, gens, g)
            for x in k_elems[len(elems):2 * len(elems)]:
                done |= 1 << x
            if k not in found:
                found[k] = (gens + (g,), k_elems)
                frontier.append(k)
    subgroups = [frozenset(elems) for _gens, elems in found.values()]
    return sorted(subgroups, key=lambda h: (len(h), sorted(h)))


def _class_sweep_oracle(group):
    """The conjugacy classes by conjugating each new element with every u."""
    seen = [False] * group.order
    classes = []
    for g in group.elements():
        if seen[g]:
            continue
        orbit = set()
        for u in group.elements():
            orbit.add(group.mul(group.mul(u, g), group.inv(u)))
        for x in orbit:
            seen[x] = True
        classes.append(frozenset(orbit))
    return tuple(classes)


def _classes_by_key(group):
    """The classes ``class_key`` names, in the order of their least elements."""
    classes = {}
    for x in group.elements():
        classes.setdefault(group.class_key(x), set()).add(x)
    return tuple(frozenset(c) for c in classes.values())


def _conjugates_oracle(group, h):
    """The class of h, by conjugating it with every element of the group."""
    return {frozenset(group.mul(group.mul(u, x), group.inv(u)) for x in h)
            for u in group.elements()}


def _is_subgroup_oracle(group, subset):
    h = frozenset(subset)
    if group.identity not in h:
        return False
    return all(group.mul(a, b) in h for a in h for b in h) and all(
        group.inv(a) in h for a in h
    )


def _symmetric_table_oracle(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(a[b[x]] for x in range(n))] for b in perms) for a in perms
    )


def _symmetric_table_translate_oracle(n):
    """The S_n table with every entry found by one ``bytes.translate`` and a lookup."""
    perms = [bytes(p) for p in itertools.permutations(range(n))]
    index = {p: i for i, p in enumerate(perms)}.__getitem__
    # (a*b)(x) = a(b(x)) is b.translate(a), with a padded to a 256-byte table
    return tuple(
        tuple(map(index, map(bytes.translate, perms, itertools.repeat(a.ljust(256, b"\0")))))
        for a in perms
    )


def _symmetric_walk_oracle(n):
    """The S_n table by a walk of its own: y*s is found by one ``bytes.translate``
    and a lookup, and row y*s is row s read through row y."""
    perms = [bytes(p) for p in itertools.permutations(range(n))]
    index = {p: i for i, p in enumerate(perms)}
    pads = [p.ljust(256, b"\0") for p in perms]
    swaps = [index[bytes(range(i)) + bytes((i + 1, i)) + bytes(range(i + 2, n))]
             for i in range(n - 1)]
    swap_rows = [
        (perms[s], operator.itemgetter(
            *map(index.__getitem__, map(bytes.translate, perms, itertools.repeat(pads[s])))
        ))
        for s in swaps
    ]
    rows = [None] * len(perms)
    rows[0] = tuple(range(len(perms)))
    walk = [0]
    for y in walk:
        for s, s_row in swap_rows:
            z = index[s.translate(pads[y])]  # y*s
            if rows[z] is None:
                rows[z] = s_row(rows[y])
                walk.append(z)
    return tuple(rows)


def _cyclic_oracle(n):
    """Z/n entry by entry: its table, identity and inverses."""
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return table, 0, tuple(-a % n for a in range(n))


def _elementary_abelian_2_oracle(k):
    """(Z/2)^k entry by entry: its table, identity and inverses."""
    n = 2**k
    return tuple(tuple(a ^ b for b in range(n)) for a in range(n)), 0, tuple(range(n))


def _direct_product_comprehension_oracle(a, b):
    """A x B from one row of each factor: its table, identity and inverses."""
    nb = b.order
    table = tuple(
        tuple(x * nb + y for x in arow for y in brow) for arow in a.table for brow in b.table
    )
    inverse = tuple(x * nb + y for x in _inverses(a) for y in _inverses(b))
    return table, a.identity * nb + b.identity, inverse


def _direct_product_oracle(a, b):
    """The product table entry by entry through ``mul``."""
    return tuple(
        tuple(
            a.mul(x1, x2) * b.order + b.mul(y1, y2)
            for x2 in a.elements()
            for y2 in b.elements()
        )
        for x1 in a.elements()
        for y1 in b.elements()
    )


def _associativity_oracle(table):
    """The first (a, b, c) with (ab)c != a(bc) over all pairs a, b, or None."""
    n = len(table)
    for a, b in itertools.product(range(n), repeat=2):
        for c in range(n):
            if table[table[a][b]][c] != table[a][table[b][c]]:
                return (a, b, c)
    return None


def _is_group_oracle(table):
    """Whether a table is a group's: associative, with a two-sided identity
    and a two-sided inverse for every element."""
    points = range(len(table))
    identity = [e for e in points if all(table[e][x] == table[x][e] == x for x in points)]
    return _associativity_oracle(table) is None and len(identity) == 1 and all(
        any(table[a][b] == table[b][a] == identity[0] for b in points) for a in points
    )


def _walk_accepts(table, generators=None):
    """Whether the walk over ``generators`` (the greedy ones if None) accepts a
    square table of element indices as a group's."""
    try:
        _table_group(table, generators=generators).table
    except InternalCheckError:
        return False
    return True


def _cycle_notation(perm):
    """Cycle notation with 1-based digits, the identity as ""."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = perm[x]
        cycles.append("(" + "".join(cyc) + ")")
    return "".join(cycles)


def _e_exponent(group, h, x):
    """e_H(x): the least e >= 1 with x^e in H, by powering x in the table."""
    power, e = x, 1
    while power not in h:
        power = group.mul(power, x)
        e += 1
    return e


def _bad_class_total_oracle(problem):
    """N_bad by the exponent search: the x with a conjugate of odd e_H."""
    group = problem.gamma
    odd = [_e_exponent(group, problem.subgroup, x) % 2 == 1 for x in group.elements()]
    return sum(
        any(odd[group.mul(group.mul(u, x), group.inv(u))] for u in group.elements())
        for x in group.elements()
    )


Z2 = cyclic_group(2)
ORACLE_ZOO = {
    "trivial": trivial_group(),
    "Z2": Z2,
    "Z3": cyclic_group(3),
    "Z4": cyclic_group(4),
    "Z6": cyclic_group(6),
    "V4": elementary_abelian_2(2),
    "S3": symmetric_group(3),
    "S4": symmetric_group(4),
    "Z2xS3": direct_product(Z2, symmetric_group(3)),
}


# ---------------------------------------------------------------------------
# group construction
# ---------------------------------------------------------------------------


def test_constructor_orders():
    assert trivial_group().order == 1
    assert cyclic_group(2).order == 2
    assert symmetric_group(3).order == 6
    assert elementary_abelian_2(2).order == 4
    assert direct_product(symmetric_group(3), elementary_abelian_2(2)).order == 24


def test_build_group_specs():
    assert build_group("S3").order == 6
    assert build_group("Z2").order == 2
    assert build_group("Z/4").order == 4
    assert build_group("C5").order == 5
    assert build_group("trivial").order == 1
    assert build_group({"type": "elementary_abelian_2", "k": 3}).order == 8
    assert (
        build_group({"type": "product", "factors": ["S3", {"type": "cyclic", "n": 2}]}).order
        == 12
    )
    with pytest.raises(ValueError):
        build_group("Q8")


def test_order_budget():
    with pytest.raises(ValueError):
        symmetric_group(7)
    with pytest.raises(ValueError):
        direct_product(symmetric_group(6), cyclic_group(8))  # 5760 > 5040


def test_elementary_abelian_rank_past_the_order_budget_is_refused_before_2_to_the_k():
    top = MAX_GROUP_ORDER.bit_length() - 1
    assert 2**top <= MAX_GROUP_ORDER < 2 ** (top + 1)
    # 2**(10**12) would not fit in memory; the rank is refused without it
    for k in (top + 1, 10**12, -1):
        with pytest.raises(ValueError, match="rank out of range"):
            elementary_abelian_2(k)


def test_non_associative_table_rejected():
    # Z/4 with two entries of row 2 swapped; every row is a generator's
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    table[2][2], table[2][3] = table[2][3], table[2][2]
    group = _table_group(table, "Z4'", generators=range(4))
    match = r"FiniteGroup\(Z4'\) is not associative at \(1, 1, 2\)"
    with pytest.raises(InternalCheckError, match=match):
        group.table


def test_table_without_identity_rejected():
    # x*y = y: associative, every element a left identity and none a right one
    group = _table_group([[0, 1], [0, 1]], "right zeros")
    match = r"identity 0 of FiniteGroup\(right zeros\) is not two-sided"
    with pytest.raises(InternalCheckError, match=match):
        group.table


@pytest.mark.parametrize("bad", [-1, 4])
def test_table_entries_outside_the_indices_are_rejected(bad):
    # -1 would otherwise index the last row, and 4 past it
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    table[1][2] = bad
    group = _table_group(table, "C4", generators=[1])
    with pytest.raises(InternalCheckError, match=r"row 1 of FiniteGroup\(C4\) is not a perm"):
        group.table


def test_table_without_inverses_rejected():
    # x*y = max(x, y): associative with identity 0, but 1 has no inverse, so
    # its row is not a permutation
    with pytest.raises(InternalCheckError, match="row 1 .* is not a permutation"):
        _table_group([[0, 1], [1, 1]]).table


def test_a_table_that_disagrees_with_its_structure_raises_internal_check():
    z4 = cyclic_group(4)
    z4.inv = lambda a: a  # the table's inverses are -a mod 4
    with pytest.raises(InternalCheckError, match=r"inverses of FiniteGroup\(C4\) disagree"):
        z4.table


def test_a_mul_wrong_off_the_generator_rows_raises_internal_check():
    # Z/3 with row 2 changed to (1, 0, 2): the greedy generators are 0 and 1,
    # whose rows are right, so the walk rebuilds Z/3 and checks only those
    # rows; mul(2, 0) = 1 where the table holds 2
    group = _table_group([[0, 1, 2], [1, 2, 0], [1, 0, 2]], name="bad3")
    assert group.generators == [0, 1]
    with pytest.raises(InternalCheckError, match=r"mul of FiniteGroup\(bad3\) disagrees"):
        group.table


def test_a_mul_wrong_off_the_generator_rows_of_s5_raises_internal_check():
    # order 120: the check samples 256 of the 14,400 pairs
    table = build_group("S5").table
    group = _table_group(table, name="S5twin")
    rows = set(group.generators)
    group.mul = lambda x, y: table[x][y] if x in rows else table[x][y] ^ 1
    with pytest.raises(InternalCheckError, match=r"mul of FiniteGroup\(S5twin\) disagrees"):
        group.table


@pytest.mark.parametrize("identity, generators, match", [
    (4, [1], "outside 0..3"), (-1, [1], "outside 0..3"), (0, [5], "outside 0..3"),
    (0, [2], "do not generate"), (0, [], "do not generate"),
])
def test_a_structure_naming_bad_elements_raises_internal_check(identity, generators, match):
    z4 = cyclic_group(4)
    z4.identity, z4.generators = identity, generators
    with pytest.raises(InternalCheckError, match=match):
        z4.table


def test_conjugacy_classes_of_s3():
    s3 = symmetric_group(3)
    assert sorted(len(c) for c in _classes_by_key(s3)) == [1, 2, 3]
    assert sorted(s3.class_sizes().values()) == [1, 2, 3]


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


def test_subgroup_closure_and_validation():
    s3 = symmetric_group(3)
    i12 = perm_index_from_cycles(3, "(12)")
    i13 = perm_index_from_cycles(3, "(13)")
    h = subgroup_closure(s3, [i12])
    assert len(h) == 2 and is_subgroup(s3, h)
    assert len(subgroup_closure(s3, [i12, i13])) == 6
    assert not is_subgroup(s3, {s3.identity, i12, i13})


def test_all_subgroups_counts():
    assert len(all_subgroups(trivial_group())) == 1
    assert len(all_subgroups(cyclic_group(2))) == 2
    assert len(all_subgroups(cyclic_group(3))) == 2
    assert len(all_subgroups(symmetric_group(3))) == 6
    assert len(all_subgroups(symmetric_group(4))) == 30


def test_group_names_and_cycles_take_ascii_digits_only():
    assert numbered_name(" S3 ", "s") == 3
    assert numbered_name("z/12", "z/") == 12
    for name in ("S\u0663", "S\uff13", "S-3", "S", "S 3", "S3a"):
        assert numbered_name(name, "s") is None
        with pytest.raises(ValueError, match="unknown group name"):
            build_group(name)
    for name in ("Z\u0662", "C\u0662", "Z/\u0662"):
        with pytest.raises(ValueError, match="unknown group name"):
            build_group(name)
    assert perm_index_from_cycles(3, "(12)") == perm_index_from_cycles(3, "( 1 2 )") == 2
    for cycles in ("(\u0661\u0662)", "(1\uff12)", "(1a)", "(10)", "(1-2)"):
        with pytest.raises(ValueError, match="bad cycle"):
            perm_index_from_cycles(3, cycles)


def test_cycle_parsing():
    assert perm_index_from_cycles(3, "") == 0
    assert perm_index_from_cycles(3, "()") == 0
    i123 = perm_index_from_cycles(3, "(123)")
    s3 = symmetric_group(3)
    assert len(subgroup_closure(s3, [i123])) == 3
    with pytest.raises(ValueError):
        perm_index_from_cycles(3, "(14)")


def test_a_point_in_two_cycles_is_refused():
    # each cycle was written over the last, so (12)(12) ranked as (12), not the identity
    for n, text in ((4, "(12)(12)"), (3, "(123)(1)"), (3, "(12)(23)"), (3, "(1)(1)")):
        with pytest.raises(ValueError, match="bad cycle notation .*two cycles"):
            perm_index_from_cycles(n, text)
    assert perm_index_from_cycles(4, "(12)(34)") == perm_index_from_cycles(4, "(34)(12)") == 7
    assert perm_index_from_cycles(3, "(1)(2)") == perm_index_from_cycles(3, "(1)(2)(3)") == 0


def test_problem_validates_subgroup():
    s3 = symmetric_group(3)
    i12 = perm_index_from_cycles(3, "(12)")
    i13 = perm_index_from_cycles(3, "(13)")
    with pytest.raises(ValueError):
        SplitDensityProblem(s3, frozenset({s3.identity, i12, i13}), 1)
    with pytest.raises(ValueError):
        SplitDensityProblem(s3, frozenset({s3.identity}), 0)


# ---------------------------------------------------------------------------
# exponents and the splitting sets
# ---------------------------------------------------------------------------


def _trivial_problem(k=1):
    g = trivial_group()
    return SplitDensityProblem(g, frozenset({g.identity}), k)


def test_e_exponent_examples():
    # e_H is not a class function when H is not normal, but N_bad counts whole classes
    s3 = symmetric_group(3)
    i12, i13, i123 = (perm_index_from_cycles(3, c) for c in ("(12)", "(13)", "(123)"))
    h = subgroup_closure(s3, [i12])
    assert [_e_exponent(s3, h, x) for x in (s3.identity, i12, i13, i123)] == [1, 1, 2, 3]
    problem = SplitDensityProblem(s3, h, 1)
    assert density_module._bad_class_total(problem) == _bad_class_total_oracle(problem) == 6


def test_xi_star_hand_enumeration():
    # trivial Gamma, k = 1: of (1, w, d), only w = 1, d != 1 has its least
    # power in H x {1} x Delta (itself) outside H x {1} x {1}
    p = _trivial_problem()
    assert enumerated_xi(p) == {(0, 0, 0), (0, 1, 0), (0, 1, 1)}
    assert enumerated_density(p) == density(p) == Fraction(3, 4)


def test_xi_is_conjugation_closed():
    s3 = symmetric_group(3)
    i12 = perm_index_from_cycles(3, "(12)")
    p = SplitDensityProblem(s3, subgroup_closure(s3, [i12]), 1)
    xs = enumerated_xi(p)
    for gam, om, de in xs:
        for u in s3.elements():
            conj = s3.mul(s3.mul(u, gam), s3.inv(u))
            assert (conj, om, de) in xs


def test_omega_nontrivial_elements_are_witnesses():
    s3 = symmetric_group(3)
    p = SplitDensityProblem(s3, frozenset({s3.identity}), 2)
    witnesses = list(itertools.product(s3.elements(), range(1, 2**2), range(2)))
    assert len(witnesses) == (2**2 - 1) * 2 * 6
    assert enumerated_xi(p).issuperset(witnesses)


# ---------------------------------------------------------------------------
# densities and the certificate
# ---------------------------------------------------------------------------


def test_density_spot_values():
    assert density(_trivial_problem()) == Fraction(3, 4)
    z2 = cyclic_group(2)
    assert density(SplitDensityProblem(z2, frozenset({z2.identity}), 1)) == Fraction(7, 8)


def test_bound_certificate_trivial():
    cert = bound_certificate(_trivial_problem())
    assert cert.witness_count == 2
    assert cert.density == Fraction(3, 4)
    assert cert.bound == Fraction(1, 2)
    assert cert.holds


def test_bound_certificate_s3_k2():
    s3 = symmetric_group(3)
    i12 = perm_index_from_cycles(3, "(12)")
    cert = bound_certificate(SplitDensityProblem(s3, subgroup_closure(s3, [i12]), 2))
    assert cert.witness_count == 3 * 2 * 6
    assert cert.holds
    assert cert.density >= Fraction(3, 4)


def test_bound_certificate_k3_trivial_gamma():
    cert = bound_certificate(_trivial_problem(k=3))
    assert cert.bound == Fraction(7, 8)
    assert cert.holds


def test_bound_holds_for_sampled_zoo():
    # the acceptance suite runs the full zoo; spot-check a slice here
    for gamma in (cyclic_group(3), symmetric_group(3)):
        for h in all_subgroups(gamma):
            for k in (1, 2):
                cert = bound_certificate(SplitDensityProblem(gamma, h, k))
                assert cert.holds
                assert cert.density >= 1 - Fraction(1, 2**k)


# ---------------------------------------------------------------------------
# fast paths against their oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ORACLE_ZOO))
def test_closed_form_matches_enumeration(name):
    gamma = ORACLE_ZOO[name]
    for h in all_subgroups(gamma):
        for k in (1, 2, 3):
            problem = SplitDensityProblem(gamma, h, k)
            xs = enumerated_xi(problem)
            cert = bound_certificate(problem)
            assert cert.density == density(problem) == Fraction(len(xs), problem.group_order)
            # every element with omega != 1 is in xi, and there are witness_count of them
            assert cert.witness_count == sum(1 for g in xs if g[1] != 0)
            assert cert.holds == (cert.density >= cert.bound)
            # the closed form never goes below the sharper bound 1 - 1/2^(k+1)
            assert cert.density >= 1 - Fraction(1, 2 ** (k + 1))


def test_closed_form_matches_enumeration_on_s5_slice():
    s5 = symmetric_group(5)
    for h in all_subgroups(s5)[::7]:
        for k in (1, 2):
            problem = SplitDensityProblem(s5, h, k)
            assert density(problem) == enumerated_density(problem)


def test_closed_form_is_attained_when_h_is_gamma():
    s4 = symmetric_group(4)
    problem = SplitDensityProblem(s4, frozenset(s4.elements()), 3)
    assert density(problem) == 1 - Fraction(1, 2**4)


def test_closed_form_at_the_largest_k_needs_no_enumeration():
    s3 = symmetric_group(3)
    cert = bound_certificate(SplitDensityProblem(s3, frozenset({s3.identity}), MAX_DENSITY_K))
    assert cert.holds
    assert cert.witness_count == (2**MAX_DENSITY_K - 1) * 2 * 6


def test_broken_class_partition_raises_internal_check(monkeypatch):
    # fresh groups, so their classes are counted (and checked) under the
    # patches; the cached symmetric_group(3) may already keep its classes
    table_s3 = _table_group(symmetric_group(3).table)
    counted = table_s3._count_classes
    table_s3._count_classes = lambda: dict(list(counted().items())[1:])
    sizes = density_module._cycle_type_sizes
    monkeypatch.setattr(density_module, "_cycle_type_sizes", lambda n: {**sizes(n), (n,): 1})
    product = direct_product(cyclic_group(2), symmetric_group.__wrapped__(4))
    for gamma in (table_s3, symmetric_group.__wrapped__(3), product):
        problem = SplitDensityProblem(gamma, frozenset({gamma.identity}), 1)
        with pytest.raises(InternalCheckError, match="partition"):
            density(problem)


def test_classes_are_swept_once_per_group_across_c08(monkeypatch):
    # c08 certifies 123 problems over five groups (S4 90 times, S3 18 times);
    # every certificate reads the class sizes its group keeps from one count
    symmetric_group.cache_clear()  # so S3 and S4 are built, and counted, afresh
    swept = Counter()
    real = FiniteGroup.__init__

    def init(group, *args, **parts):
        real(group, *args, **parts)

        def counted():
            swept[group] += 1
            return parts["count_classes"]()

        group._count_classes = counted

    monkeypatch.setattr(FiniteGroup, "__init__", init)
    ok, detail = c08_density_bound()
    assert ok, detail
    assert sorted(group.order for group in swept) == [1, 2, 3, 6, 24]
    assert set(swept.values()) == {1}


def test_subgroup_without_identity_raises_internal_check():
    s3 = symmetric_group(3)
    problem = SplitDensityProblem(s3, frozenset({s3.identity}), 1)
    object.__setattr__(problem, "subgroup", frozenset())
    with pytest.raises(InternalCheckError, match="N_bad = 0"):
        bound_certificate(problem)


@pytest.mark.parametrize("k", [0, MAX_DENSITY_K + 1, True, 2.0, "2"])
def test_problem_rejects_k_outside_the_budget(k):
    s3 = symmetric_group(3)
    with pytest.raises(ValueError, match="MAX_DENSITY_K"):
        SplitDensityProblem(s3, frozenset({s3.identity}), k)


LATTICE_ZOO = dict(ORACLE_ZOO, Z2xS4=direct_product(Z2, symmetric_group(4)), S5=symmetric_group(5))


@pytest.mark.parametrize("name", sorted(LATTICE_ZOO))
def test_lattice_matches_saturation_oracle(name):
    group = LATTICE_ZOO[name]
    # the oracle multiplies through the table, which the lattice builds anyway
    assert all_subgroups(group) == _saturation_oracle(_table_group(group.table))


LATTICE_ORACLE_ZOO = dict(
    LATTICE_ZOO,
    E32=elementary_abelian_2(5),
    Z3xS3=direct_product(cyclic_group(3), symmetric_group(3)),
    S3xS3=direct_product(symmetric_group(3), symmetric_group(3)),
    V4xZ6=direct_product(elementary_abelian_2(2), cyclic_group(6)),
)


@pytest.mark.parametrize("name", sorted(LATTICE_ORACLE_ZOO))
def test_lattice_matches_join_search_oracle(name):
    group = LATTICE_ORACLE_ZOO[name]
    assert all_subgroups(group) == _join_search_oracle(group)


@pytest.mark.parametrize("name", sorted(LATTICE_ORACLE_ZOO))
def test_subgroup_classes_are_the_conjugacy_classes(name):
    group = LATTICE_ORACLE_ZOO[name]
    classes = subgroup_classes(group)
    lattice = all_subgroups(group)
    assert sum(size for _rep, size in classes) == len(lattice)
    seen = set()
    for rep, size in classes:
        members = _conjugates_oracle(group, rep)
        assert len(members) == size  # the class is closed under conjugation
        assert rep == min(members, key=sorted)  # the members have one size
        assert not seen & members  # no two representatives are conjugate
        seen |= members
    assert seen == set(lattice)
    reps = [rep for rep, _size in classes]
    assert reps == sorted(reps, key=lambda h: (len(h), sorted(h)))


# built in the test, so collection does not pay for their tables
LARGE_CLASS_ZOO = {"Z720": lambda: cyclic_group(720), "E1024": lambda: elementary_abelian_2(10)}


@pytest.mark.parametrize("name", sorted(LATTICE_ORACLE_ZOO) + sorted(LARGE_CLASS_ZOO))
def test_class_orbits_match_the_sweep_oracle(name):
    built = LATTICE_ORACLE_ZOO.get(name) or LARGE_CLASS_ZOO[name]()
    group = _table_group(built.table)  # its classes are the orbits of conjugations
    assert _classes_by_key(group) == _classes_by_key(built) == _class_sweep_oracle(group)
    for g in (group, built):
        assert g.class_sizes() == Counter(map(g.class_key, g.elements()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cycle_types_are_the_classes_of_s_n(n):
    group = symmetric_group.__wrapped__(n)  # fresh, so no table is built yet
    assert _classes_by_key(group) == _class_sweep_oracle(group)
    sizes = group.class_sizes()
    assert sizes == Counter(map(group.class_key, group.elements()))
    assert sum(sizes.values()) == math.factorial(n)
    assert group._table is None


N_BAD_ZOO = dict(LATTICE_ORACLE_ZOO, Z8=cyclic_group(8), Z12=cyclic_group(12), Z30=cyclic_group(30))


@pytest.mark.parametrize("name", sorted(N_BAD_ZOO))
def test_bad_class_total_matches_the_exponent_search(name):
    group = N_BAD_ZOO[name]
    for h in all_subgroups(group):
        problem = SplitDensityProblem(group, h, 1)
        assert density_module._bad_class_total(problem) == _bad_class_total_oracle(problem), h


@pytest.mark.parametrize("left, right", [("S3", "Z4"), ("S4", "Z3"), ("S3", "S4"), ("Z2", "S5")])
def test_bad_class_total_matches_the_exponent_search_on_non_normal_subgroups(left, right):
    group = direct_product(LATTICE_ZOO[left], LATTICE_ZOO[right])
    twin = _table_group(group.table)  # the oracles multiply through the table
    non_normal = [h for h in all_subgroups(group) if len(_conjugates_oracle(twin, h)) > 1]
    rng = random.Random(f"n_bad:{left}x{right}")
    for h in rng.sample(non_normal, 8):
        problem = SplitDensityProblem(group, h, 1)
        oracle = _bad_class_total_oracle(SplitDensityProblem(twin, h, 1))
        assert density_module._bad_class_total(problem) == oracle, h


def test_subgroup_class_counts():
    assert [len(subgroup_classes(symmetric_group(n))) for n in (3, 4, 5)] == [4, 11, 19]
    assert subgroup_classes(symmetric_group(3)) == [
        (frozenset({0}), 1), (frozenset({0, 1}), 3), (frozenset({0, 3, 4}), 1),
        (frozenset(range(6)), 1),
    ]
    abelian = LATTICE_ORACLE_ZOO["E32"]
    assert all(size == 1 for _rep, size in subgroup_classes(abelian))


def test_s6_lattice_by_classes():
    s6 = symmetric_group(6)
    classes = subgroup_classes(s6)
    assert len(classes) == 56
    assert sum(size for _rep, size in classes) == 1455
    assert len(all_subgroups(s6)) == 1455


def _conjugate_class_key(group, mask):
    h = [x for x in group.elements() if mask >> x & 1]
    return min(tuple(sorted(c)) for c in _conjugates_oracle(group, h))


@pytest.mark.parametrize("name", ["S4", "S5", "Z2xS4"])
def test_joins_start_from_one_subgroup_per_class(monkeypatch, name):
    group = LATTICE_ZOO[name]
    joined = set()
    real = density_module._join

    def counting_join(group, h_elems, h_mask, gens, g):
        joined.add(h_mask)
        return real(group, h_elems, h_mask, gens, g)

    monkeypatch.setattr(density_module, "_join", counting_join)
    classes = subgroup_classes(group)
    # every class but the whole group's is joined, from exactly one member
    assert len(joined) == len(classes) - 1
    assert len({_conjugate_class_key(group, h) for h in joined}) == len(joined)


def test_lattice_counts():
    assert len(all_subgroups(LATTICE_ZOO["Z2xS4"])) == 98
    assert len(all_subgroups(LATTICE_ZOO["S5"])) == 156
    assert len(all_subgroups(LATTICE_ZOO["Z6"])) == 4
    assert len(all_subgroups(LATTICE_ZOO["V4"])) == 5


def test_closure_and_subgroup_test_match_oracles():
    rng = random.Random(7)
    for name in ("S4", "Z2xS3", "Z6"):
        group = ORACLE_ZOO[name]
        for _ in range(40):
            gens = rng.sample(range(group.order), rng.randint(0, 3))
            assert subgroup_closure(group, gens) == _closure_oracle(group, gens)
            subset = {group.identity, *rng.sample(range(group.order), rng.randint(0, 5))}
            assert is_subgroup(group, subset) == _is_subgroup_oracle(group, subset)
        for h in all_subgroups(group):
            assert is_subgroup(group, h)
    assert not is_subgroup(ORACLE_ZOO["S3"], {0, 6})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_table_matches_comprehension(n):
    group = symmetric_group(n)
    assert group.table == _symmetric_table_oracle(n)
    perms = list(itertools.permutations(range(n)))
    inverse = tuple(perms.index(tuple(sorted(range(n), key=p.__getitem__))) for p in perms)
    assert (group.identity, _inverses(group)) == (0, inverse)
    assert symmetric_group(n) is group  # memoised


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cycle_index_is_lexicographic_rank(n):
    for rank, perm in enumerate(itertools.permutations(range(n))):
        assert perm_index_from_cycles(n, _cycle_notation(perm)) == rank


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_table_matches_translate_oracle(n):
    table = symmetric_group(n).table
    assert table == _symmetric_table_translate_oracle(n) == _symmetric_walk_oracle(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 12, 48])
def test_cyclic_group_matches_the_comprehension_oracle(n):
    group = cyclic_group(n)
    assert (group.table, group.identity, _inverses(group)) == _cyclic_oracle(n)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_elementary_abelian_2_matches_the_comprehension_oracle(k):
    group = elementary_abelian_2(k)
    assert (group.table, group.identity, _inverses(group)) == _elementary_abelian_2_oracle(k)


# Z/3 with its elements relabelled 0 -> 2, 1 -> 0, 2 -> 1: the identity is 2
_RELABEL = (2, 0, 1)
Z3_RELABELLED = _table_group(
    [[_RELABEL[(a + b) % 3] for b in sorted(range(3), key=_RELABEL.__getitem__)]
     for a in sorted(range(3), key=_RELABEL.__getitem__)],
    name="Z3'",
)
PRODUCT_FACTORS = dict(
    ORACLE_ZOO, S4=symmetric_group(4), S1=symmetric_group(1), Z1=cyclic_group(1),
    E0=elementary_abelian_2(0), S3xZ4=direct_product(symmetric_group(3), cyclic_group(4)),
    Z3relabelled=Z3_RELABELLED,
)


@pytest.mark.parametrize(
    "left, right",
    [("Z2", "S4"), ("Z3", "S3"), ("S3", "S3"), ("S4", "Z2"), ("V4", "Z6"), ("S3", "Z2xS3"),
     ("Z4", "trivial"), ("trivial", "V4"), ("Z2xS3", "S4"), ("S3xZ4", "Z2"), ("S1", "Z1"),
     ("E0", "S3"), ("Z3relabelled", "S3"), ("Z4", "Z3relabelled"),
     ("Z3relabelled", "Z3relabelled")],
)
def test_direct_product_matches_method_oracle(left, right):
    a, b = PRODUCT_FACTORS[left], PRODUCT_FACTORS[right]
    product = direct_product(a, b)
    assert product.table == _direct_product_oracle(a, b)
    expected = _direct_product_comprehension_oracle(a, b)
    assert (product.table, product.identity, _inverses(product)) == expected


# seeded products whose tables are never built: H is closed through mul
STRUCTURE_PRODUCTS = {
    "Z4xS4": lambda: direct_product(cyclic_group(4), symmetric_group.__wrapped__(4)),
    "Z5xS3": lambda: direct_product(cyclic_group(5), symmetric_group.__wrapped__(3)),
    "S4xE2": lambda: direct_product(symmetric_group.__wrapped__(4), elementary_abelian_2(2)),
    "S3xE3": lambda: direct_product(symmetric_group.__wrapped__(3), elementary_abelian_2(3)),
    "Z3'xS3xZ4": lambda: direct_product(
        direct_product(Z3_RELABELLED, symmetric_group.__wrapped__(3)), cyclic_group(4)
    ),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_PRODUCTS))
def test_bad_class_total_on_seeded_products_with_non_normal_subgroups(name):
    group = STRUCTURE_PRODUCTS[name]()
    rng = random.Random(f"n_bad:seeded:{name}")
    checked = 0
    while checked < 5:
        h = subgroup_closure(group, rng.sample(group.elements(), rng.randint(1, 2)))
        if len(_conjugates_oracle(group, h)) == 1:
            continue  # normal
        problem = SplitDensityProblem(group, h, 1)
        assert density_module._bad_class_total(problem) == _bad_class_total_oracle(problem), h
        checked += 1
    assert group._table is None


@pytest.mark.parametrize("name", sorted(PRODUCT_FACTORS))
def test_mul_and_inv_agree_with_the_table(name):
    group = PRODUCT_FACTORS[name]
    t = group.table
    assert all(group.mul(a, b) == t[a][b] for a in group.elements() for b in group.elements())
    assert all(t[a][group.inv(a)] == group.identity for a in group.elements())


def test_a_subset_of_gamma_size_is_a_subgroup_without_closing_it(monkeypatch):
    s4 = symmetric_group(4)
    monkeypatch.setattr(density_module, "subgroup_closure", None)  # any call would fail
    assert is_subgroup(s4, range(24))
    assert not is_subgroup(s4, range(1, 25))  # no identity, and 24 is out of range


@pytest.mark.parametrize(
    "spec",
    ["Z2520", "S6", {"type": "product", "factors": ["Z2", "S6"]},
     {"type": "product", "factors": ["S4", "Z210"]}, {"type": "elementary_abelian_2", "k": 12}],
)
def test_density_builds_no_table(spec):
    symmetric_group.cache_clear()  # a cached S_n may keep a table another test built
    gamma = build_group(spec)
    for h in (frozenset({gamma.identity}), frozenset(gamma.elements())):
        assert bound_certificate(SplitDensityProblem(gamma, h, 1)).holds
    assert gamma._table is None


LIGHT_ZOO = dict(
    LATTICE_ZOO,
    Z3xS3=direct_product(cyclic_group(3), symmetric_group(3)),
    S3xS3=direct_product(symmetric_group(3), symmetric_group(3)),
    V4xZ6=direct_product(elementary_abelian_2(2), cyclic_group(6)),
    Z2xZ2xS3=direct_product(elementary_abelian_2(2), symmetric_group(3)),
    C48=cyclic_group(48),
    E32=elementary_abelian_2(5),
    Z2xZ30=direct_product(cyclic_group(2), cyclic_group(30)),
)


@pytest.mark.parametrize("name", sorted(LIGHT_ZOO))
def test_light_test_accepts_every_zoo_table(name):
    table = LIGHT_ZOO[name].table
    if len(table) <= 48:  # the cubic oracle
        assert _associativity_oracle(table) is None
    # the twin's walk, over the greedy generators, rebuilds the same table
    assert _table_group(table).table == table


def _generator_row_swaps(group):
    """The group's table with two entries of one generator's row swapped, for
    every generator and every pair of columns."""
    table = [list(row) for row in group.table]
    for r in group.generators:
        for i, j in itertools.combinations(group.elements(), 2):
            swapped = [row[:] for row in table]
            swapped[r][i], swapped[r][j] = swapped[r][j], swapped[r][i]
            yield swapped


@pytest.mark.parametrize("name", ["S3", "V4", "Z4"])
def test_light_test_agrees_with_oracle_on_every_entry_swap(name):
    group = ORACLE_ZOO[name]
    rejected = 0
    for swapped in _generator_row_swaps(group):
        oracle_ok = _is_group_oracle(swapped)
        assert _walk_accepts(swapped, group.generators) == oracle_ok, swapped
        rejected += not oracle_ok
    # a swap puts one value twice in a column, so no swapped table is a group's
    n = group.order
    assert rejected == len(group.generators) * n * (n - 1) // 2


def test_the_walk_rejects_every_entry_swap_past_order_48():
    # order 60: the walk's check is exact at every order, not only up to 48
    group = LIGHT_ZOO["Z2xZ30"]
    assert group.generators == [30, 1]
    rejected = sum(not _walk_accepts(swapped, group.generators)
                   for swapped in _generator_row_swaps(group))
    assert rejected == 3540 == 2 * 60 * 59 // 2


def test_light_test_agrees_with_oracle_on_every_magma_of_order_three():
    # every row a generator's, so the walk's Light's test covers every b
    associative = groups = 0
    for entries in itertools.product(range(3), repeat=9):
        table = [entries[0:3], entries[3:6], entries[6:9]]
        oracle_ok = _is_group_oracle(table)
        assert _walk_accepts(table, generators=range(3)) == oracle_ok, table
        associative += _associativity_oracle(table) is None
        groups += oracle_ok
    assert associative == 113  # the associative binary operations on 3 labelled points
    assert groups == 3  # Z/3 with each of the 3 points as identity


LOOP = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def test_loop_of_order_five_is_rejected_after_identity_and_inverses():
    # a Latin square with identity 0 and x*x = 0: every check but associativity passes
    assert _associativity_oracle(LOOP) == (1, 1, 2)
    with pytest.raises(InternalCheckError, match=r"not associative at \(1, 1, 2\)"):
        _table_group(LOOP, "loop5").table


def test_a_structure_whose_product_is_a_loop_raises_internal_check():
    # no ValueError, which a scenario would report as invalid input
    loop = FiniteGroup(5, 0, "loop5", [1, 2], mul=lambda a, b: LOOP[a][b], inv=lambda a: a,
                       class_key=lambda x: x, power_key=lambda key, m: key,
                       count_classes=lambda: dict.fromkeys(range(5), 1))
    for read in (lambda: loop.table, lambda: all_subgroups(loop), lambda: subgroup_classes(loop)):
        with pytest.raises(InternalCheckError,
                           match=r"FiniteGroup\(loop5\) is not associative at \(1, 1, 2\)"):
            read()
