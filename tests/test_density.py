import itertools
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
from defring_audit.ff import InternalCheckError


# ---------------------------------------------------------------------------
# oracles: the exhaustive routines the fast paths replaced
# ---------------------------------------------------------------------------


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


def _light_test_accepts(table):
    """Run only the associativity check of FiniteGroup on a square table.

    The table need not have an identity or inverses, so the instance is
    made without __init__ and its other checks.
    """
    group = object.__new__(FiniteGroup)
    group.order = len(table)
    group.table = tuple(tuple(row) for row in table)
    try:
        group._check_associativity()
    except ValueError as exc:
        assert "associative" in str(exc)
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
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    table[2][3] = 0  # was 1
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(table)


def test_table_without_identity_rejected():
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 1], [1, 1]])


@pytest.mark.parametrize("bad", [-1, 4])
def test_table_entries_outside_the_indices_are_rejected(bad):
    # -1 would otherwise index the last row, and 4 past it
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    table[2][1] = bad
    with pytest.raises(ValueError, match="table entries must be element indices"):
        FiniteGroup(table)


def test_conjugacy_classes_of_s3():
    s3 = symmetric_group(3)
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]


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
    # a fresh group, so its classes are swept (and checked) under the patch;
    # the cached symmetric_group(3) may already keep its classes
    s3 = FiniteGroup(symmetric_group(3).table)
    problem = SplitDensityProblem(s3, frozenset({s3.identity}), 1)
    real = FiniteGroup._class_orbits
    monkeypatch.setattr(FiniteGroup, "_class_orbits", lambda self: real(self)[1:])
    with pytest.raises(InternalCheckError, match="partition"):
        density(problem)


def test_classes_are_swept_once_per_group_across_c08(monkeypatch):
    # c08 certifies 123 problems over five groups (S4 90 times, S3 18 times);
    # every certificate reads the classes its group keeps from one sweep
    symmetric_group.cache_clear()  # so S3 and S4 are built, and swept, afresh
    swept = Counter()
    real = FiniteGroup._class_orbits

    def counted(group):
        swept[group] += 1
        return real(group)

    monkeypatch.setattr(FiniteGroup, "_class_orbits", counted)
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
    assert all_subgroups(group) == _saturation_oracle(group)


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
    non_normal = [h for h in all_subgroups(group) if len(_conjugates_oracle(group, h)) > 1]
    rng = random.Random(f"n_bad:{left}x{right}")
    for h in rng.sample(non_normal, 8):
        problem = SplitDensityProblem(group, h, 1)
        assert density_module._bad_class_total(problem) == _bad_class_total_oracle(problem), h


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
    assert symmetric_group(n) is group  # memoised


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cycle_index_is_lexicographic_rank(n):
    for rank, perm in enumerate(itertools.permutations(range(n))):
        assert perm_index_from_cycles(n, _cycle_notation(perm)) == rank


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_table_matches_translate_oracle(n):
    assert symmetric_group(n).table == _symmetric_table_translate_oracle(n)


PRODUCT_FACTORS = dict(ORACLE_ZOO, S4=symmetric_group(4))


@pytest.mark.parametrize(
    "left, right",
    [("Z2", "S4"), ("Z3", "S3"), ("S3", "S3"), ("S4", "Z2"), ("V4", "Z6"), ("S3", "Z2xS3"),
     ("Z4", "trivial"), ("trivial", "V4"), ("Z2xS3", "S4")],
)
def test_direct_product_matches_method_oracle(left, right):
    a, b = PRODUCT_FACTORS[left], PRODUCT_FACTORS[right]
    assert direct_product(a, b).table == _direct_product_oracle(a, b)


LIGHT_ZOO = dict(
    LATTICE_ZOO,
    Z3xS3=direct_product(cyclic_group(3), symmetric_group(3)),
    S3xS3=direct_product(symmetric_group(3), symmetric_group(3)),
    V4xZ6=direct_product(elementary_abelian_2(2), cyclic_group(6)),
    Z2xZ2xS3=direct_product(elementary_abelian_2(2), symmetric_group(3)),
    C48=cyclic_group(48),
    E32=elementary_abelian_2(5),
)


@pytest.mark.parametrize("name", sorted(n for n, g in LIGHT_ZOO.items() if g.order <= 48))
def test_light_test_accepts_every_zoo_table(name):
    table = LIGHT_ZOO[name].table
    assert _associativity_oracle(table) is None
    assert _light_test_accepts(table)


@pytest.mark.parametrize("name", ["S3", "V4", "Z4"])
def test_light_test_agrees_with_oracle_on_every_entry_swap(name):
    table = [list(row) for row in ORACLE_ZOO[name].table]
    n = len(table)
    rejected = 0
    for r in range(n):
        for i, j in itertools.combinations(range(n), 2):
            swapped = [row[:] for row in table]
            swapped[r][i], swapped[r][j] = swapped[r][j], swapped[r][i]
            oracle_ok = _associativity_oracle(swapped) is None
            assert _light_test_accepts(swapped) == oracle_ok, (r, i, j)
            rejected += not oracle_ok
    assert rejected == n * n * (n - 1) // 2  # a group table has no other Latin row


def test_light_test_agrees_with_oracle_on_every_magma_of_order_three():
    accepted = 0
    for entries in itertools.product(range(3), repeat=9):
        table = [entries[0:3], entries[3:6], entries[6:9]]
        oracle_ok = _associativity_oracle(table) is None
        assert _light_test_accepts(table) == oracle_ok, table
        accepted += oracle_ok
    assert accepted == 113  # the associative binary operations on 3 labelled points


def test_loop_of_order_five_is_rejected_after_identity_and_inverses():
    # a Latin square with identity 0 and x*x = 0: every check but associativity passes
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert _associativity_oracle(loop) == (1, 1, 2)
    with pytest.raises(ValueError, match=r"not associative at \(1, 1, 2\)"):
        FiniteGroup(loop)
