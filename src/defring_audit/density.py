"""Splitting densities on explicit finite groups G = Gamma x Omega x Delta.

Omega = (Z/2)^k and Delta = Z/2 are elementary abelian, so an element is
a triple (gamma, omega-bitmask, delta-bit) and products act componentwise
with xor on the abelian parts.  For a subgroup H of Gamma, the
"splitting" elements are those g whose minimal power landing in
H x {1} x Delta in fact lands in H x {1} x {1}; restricting to
conjugation-closed such elements and dividing by |G| yields an exact
density, which is always at least 1 - 1/2^k because every element with
omega != 1 qualifies.

Because Omega and Delta are elementary abelian, g^e = (gamma^e,
omega*[e odd], delta*[e odd]), so the density has a closed form on Gamma
alone: an element fails to split exactly when omega = 1, delta != 1 and
some conjugate x of gamma has odd e_H(x), the least e >= 1 with x^e in H.
Hence density = 1 - N_bad / (|Gamma| * 2^(k+1)), where N_bad is the total
size of the Gamma-classes holding such an x.  e_H(x) = [<x> : <x> & H] is
odd exactly when H holds the 2-part of x, which generates the same cyclic
subgroup as x^M for M the odd part of |Gamma|.  So N_bad counts the x
whose power x^M is conjugate into H, and one power map gives it.

The subgroup lattice is searched by conjugacy classes (the cyclic
extension method): one subgroup per class is joined with the cyclic
subgroups outside it, and each new subgroup's class is recorded at once
as its orbit under conjugation.  ``subgroup_classes`` gives one
representative per class with the class size, and ``all_subgroups`` the
sorted union of the classes.

Gamma's table is built a row at a time: row y*s of S_n is row s read
through row y, so the rows of the adjacent transpositions fill the rest,
and a row of a direct product is formed from one row of each factor.
Associativity of a table of order <= 48 is checked exactly by Light's
test, which compares rows only for b in a generating set.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .ff import InternalCheckError, Record, _power

MAX_GROUP_ORDER = 5040
MAX_DENSITY_K = 64
_FULL_ASSOCIATIVITY_ORDER = 48
_SPOT_CHECK_TRIPLES = 300


class FiniteGroup:
    """A finite group given by an explicit multiplication table.

    Elements are 0..N-1; ``table[a][b]`` is the index of a*b.  The
    identity and inverse table are located on construction; associativity
    is checked exactly for N <= 48 (by Light's test) and spot-checked
    (deterministically) for larger tables.  The conjugacy classes are found
    on first use and kept.
    """

    __slots__ = ("order", "table", "identity", "inverse", "name", "_classes")

    def __init__(self, table, name: str = ""):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n < 1:
            raise ValueError("a group needs at least the identity")
        if n > MAX_GROUP_ORDER:
            raise ValueError(f"group order {n} exceeds the budget {MAX_GROUP_ORDER}")
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if not set().union(*table) <= set(range(n)):
            raise ValueError("table entries must be element indices")
        self.order = n
        self.table = table
        self.name = name
        self._classes = None

        points = tuple(range(n))
        identity = None
        for e in range(n):
            if table[e] == points and all(row[e] == x for x, row in enumerate(table)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        self.identity = identity

        inverse = []
        for a, row in enumerate(table):
            # the first b with a*b = b*a = identity, found at C speed
            b = -1
            while True:
                try:
                    b = row.index(identity, b + 1)
                except ValueError:
                    raise ValueError(f"element {a} has no inverse") from None
                if table[b][a] == identity:
                    break
            inverse.append(b)
        self.inverse = tuple(inverse)

        self._check_associativity()

    def _check_associativity(self):
        n = self.order
        t = self.table
        if n <= _FULL_ASSOCIATIVITY_ORDER:
            # Light's test: (ab)c = a(bc) for all a, c and every b in a set
            # that generates the table under products is associativity itself
            # (the b passing it are closed under products).  Row ab must
            # equal row b read through row a.
            gens = _greedy_generators(t)
            for a in range(n):
                row = t[a]
                for b in gens:
                    if t[row[b]] != tuple(map(row.__getitem__, t[b])):
                        c = next(c for c in range(n) if t[row[b]][c] != row[t[b][c]])
                        raise ValueError(f"multiplication table not associative at {(a, b, c)}")
            return
        state = 123456789
        for _ in range(_SPOT_CHECK_TRIPLES):
            out = []
            for _ in range(3):
                state = (1103515245 * state + 12345) % (1 << 31)
                out.append(state % n)
            a, b, c = out
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise ValueError(f"multiplication table not associative at {(a, b, c)}")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def conjugacy_classes(self) -> tuple[frozenset[int], ...]:
        """The conjugacy classes, swept by ``_class_orbits`` and checked to
        partition the group on the first call only."""
        if self._classes is None:
            classes = self._class_orbits()
            if sorted(itertools.chain.from_iterable(classes)) != list(self.elements()):
                raise InternalCheckError("conjugacy classes do not partition Gamma")
            self._classes = classes
        return self._classes

    def _class_orbits(self) -> tuple[frozenset[int], ...]:
        """Classes by full orbit enumeration under conjugation."""
        seen = [False] * self.order
        classes = []
        for g in self.elements():
            if seen[g]:
                continue
            orbit = set()
            for u in self.elements():
                orbit.add(self.mul(self.mul(u, g), self.inverse[u]))
            for x in orbit:
                seen[x] = True
            classes.append(frozenset(orbit))
        return tuple(classes)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or self.order})"


def _greedy_generators(table) -> list[int]:
    """The least indices whose right products reach every element.

    Each index not yet reached becomes a generator; the reached set is
    then closed again under right multiplication by every generator.  No
    associativity is assumed, so the set generates any table.
    """
    n = len(table)
    gens: list[int] = []
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


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), name="trivial")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1 or n > MAX_GROUP_ORDER:
        raise ValueError("cyclic order out of range")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def elementary_abelian_2(k: int) -> FiniteGroup:
    # 2**k > MAX_GROUP_ORDER exactly when k >= its bit length; a huge k is
    # refused without forming 2**k
    if k < 0 or k >= MAX_GROUP_ORDER.bit_length():
        raise ValueError("elementary abelian rank out of range")
    n = 2**k
    table = [[a ^ b for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"(Z/2)^{k}")


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """S_n on the permutations of range(n) in lexicographic order.

    Row y*s of the table is row s read through row y, since
    (y*s)*b = y*(s*b).  So only the rows of the adjacent transpositions s
    are computed entry by entry; a walk from the identity fills every
    other row once, as one ``itemgetter`` call on a row already built.
    Memoised like ``mk_field``: the table is immutable and a batch builds
    the same S_n for many scenarios.
    """
    if n < 1 or n > 6:
        raise ValueError("symmetric groups are supported for 1 <= n <= 6")
    perms = [bytes(p) for p in itertools.permutations(range(n))]
    index = {p: i for i, p in enumerate(perms)}
    # (a*b)(x) = a(b(x)) is b.translate(a), with a padded to a 256-byte table
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
    return FiniteGroup(rows, name=f"S{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    n = a.order * b.order
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"product order {n} exceeds the budget {MAX_GROUP_ORDER}")
    nb = b.order
    # (x1, y1)(x2, y2) = (x1 x2, y1 y2), with (x, y) at index x * nb + y
    table = [
        [x * nb + y for x in arow for y in brow] for arow in a.table for brow in b.table
    ]
    name = f"{a.name or '?'}x{b.name or '?'}"
    return FiniteGroup(table, name=name)


def build_group(spec) -> FiniteGroup:
    """Build a group from a dict spec or a short name like "S3" or "Z2"."""
    if isinstance(spec, str):
        return _group_from_name(spec)
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "trivial":
            return trivial_group()
        if kind == "cyclic":
            return cyclic_group(_spec_int(spec, "n"))
        if kind == "symmetric":
            return symmetric_group(_spec_int(spec, "n"))
        if kind == "elementary_abelian_2":
            return elementary_abelian_2(_spec_int(spec, "k"))
        if kind == "product":
            factors = [build_group(s) for s in spec["factors"]]
            if not factors:
                raise ValueError("product needs at least one factor")
            out = factors[0]
            for f in factors[1:]:
                out = direct_product(out, f)
            return out
        raise ValueError(f"unknown group constructor {kind!r}")
    raise ValueError("group spec must be a name or a dict")


def _spec_int(spec: dict, key: str) -> int:
    """``spec[key]`` if it is an integer; a bool, float, string or other value is refused."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"group spec {key!r} must be an integer, got {value!r}")
    return value


def numbered_name(name: str, prefix: str) -> int | None:
    """n when ``name`` is ``prefix`` (any case) then ASCII digits, else None.

    The digits follow the rule of ``partitions.parse_int``: "S3" is 3, but
    "S" then an Arabic-Indic three is no name.
    """
    low = name.strip().lower()
    digits = low[len(prefix):]
    if low.startswith(prefix) and digits.isascii() and digits.isdigit():
        return int(digits)
    return None


def _group_from_name(name: str) -> FiniteGroup:
    if name.strip().lower() in ("trivial", "1"):
        return trivial_group()
    n = numbered_name(name, "s")
    if n is not None:
        return symmetric_group(n)
    for prefix in ("z/", "z", "c"):
        n = numbered_name(name, prefix)
        if n is not None:
            return cyclic_group(n)
    raise ValueError(f"unknown group name {name!r}")


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


def _join(
    group: FiniteGroup, h_elems: list[int], h_mask: int, gens: tuple[int, ...], g: int
) -> tuple[list[int], int]:
    """Elements and bitmask of <H, g>, given H's elements and generators.

    <H, g> is a union of right cosets H*r, and right multiplication by a
    generator maps a coset to a coset, so a search over coset
    representatives reaches them all; each coset is added whole.
    """
    t = group.table
    elems = list(h_elems)
    mask = h_mask
    gens = gens + (g,)
    reps = [group.identity]
    for r in reps:
        row = t[r]
        for s in gens:
            y = row[s]
            if mask >> y & 1:
                continue
            for x in h_elems:
                z = t[x][y]
                elems.append(z)
                mask |= 1 << z
            reps.append(y)
    return elems, mask


def subgroup_closure(group: FiniteGroup, generators: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by the given element indices."""
    elems, mask, gens = [group.identity], 1 << group.identity, ()
    for g in generators:
        if not (0 <= g < group.order):
            raise ValueError(f"generator {g} out of range")
        if not mask >> g & 1:
            elems, mask = _join(group, elems, mask, gens, g)
            gens += (g,)
    return frozenset(elems)


def is_subgroup(group: FiniteGroup, subset: Iterable[int]) -> bool:
    """Whether the subset is a subgroup, without testing every product.

    It is one exactly when it holds the identity and equals the subgroup
    its own elements generate.
    """
    h = frozenset(subset)
    if group.identity not in h or any(not (0 <= a < group.order) for a in h):
        return False
    return subgroup_closure(group, h) == h


def _cyclic_generators(group: FiniteGroup) -> list[int]:
    """One generator of each cyclic subgroup, the least index among them."""
    t = group.table
    seen = set()
    out = []
    for a in group.elements():
        mask, x = 0, a
        while not mask >> x & 1:
            mask |= 1 << x
            x = t[x][a]
        if mask not in seen:
            seen.add(mask)
            out.append(a)
    return out


def _subgroup_class_lists(group: FiniteGroup) -> list[list[list[int]]]:
    """Every subgroup, as the element lists of each conjugacy class.

    Only one subgroup per class is joined with the cyclic subgroups it
    does not contain.  A join that gives a new K records K and, at once,
    its whole class: the orbit of K under conjugation by a generating
    set of the group.  No subgroup is missed.  Each K other than {1} is
    <H', c> for a proper subgroup H', found by induction on the order; if
    H' = u^-1 H u for the joined member H of its class, then
    u K u^-1 = <H, u c u^-1> is a join the search makes, and K lies in
    its class.
    """
    t = group.table
    inverse = group.inverse
    conjugators = [
        tuple(t[t[u][x]][inverse[u]] for x in group.elements())
        for u in _greedy_generators(t)
    ]
    cyclic = _cyclic_generators(group)
    start = 1 << group.identity
    found = {start}
    classes = [[[group.identity]]]
    frontier = [(start, (), [group.identity])]
    while frontier:
        h, gens, elems = frontier.pop()
        # <H, g> = <H, x> for every x in the coset H*g, which _join lists
        # right after H; `done` holds H and the cosets already joined
        done = h
        for g in cyclic:
            if done >> g & 1:
                continue
            k_elems, k = _join(group, elems, h, gens, g)
            for x in k_elems[len(elems):2 * len(elems)]:
                done |= 1 << x
            if k in found:
                continue
            found.add(k)
            frontier.append((k, gens + (g,), k_elems))
            orbit = [k_elems]
            for member in orbit:
                for conj in conjugators:
                    image = list(map(conj.__getitem__, member))
                    mask = sum(map((1).__lshift__, image))  # distinct bits: sum is or
                    if mask not in found:
                        found.add(mask)
                        orbit.append(image)
            classes.append(orbit)
    return classes


def _subgroup_key(h: frozenset[int]) -> tuple[int, list[int]]:
    return len(h), sorted(h)


def subgroup_classes(group: FiniteGroup) -> list[tuple[frozenset[int], int]]:
    """One ``(representative, class size)`` per conjugacy class of subgroups.

    The representative is the least member of its class in the order of
    ``all_subgroups``, and the classes come in the order of their
    representatives.
    """
    reps = []
    for members in _subgroup_class_lists(group):
        rep = min((frozenset(m) for m in members), key=_subgroup_key)
        reps.append((rep, len(members)))
    return sorted(reps, key=lambda pair: _subgroup_key(pair[0]))


def all_subgroups(group: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup, sorted by size and then by elements.

    The union of the classes of :func:`subgroup_classes`.
    """
    subgroups = [
        frozenset(m) for members in _subgroup_class_lists(group) for m in members
    ]
    return sorted(subgroups, key=_subgroup_key)


def perm_index_from_cycles(n: int, text: str) -> int:
    """Index of a permutation of S_n given in cycle notation, e.g. "(12)(34)".

    Points are the single ASCII digits 1..n, and no point may lie in two
    cycles; the empty string or "()" is the identity.  The index is the
    lexicographic rank of the permutation, which is its position in
    ``symmetric_group(n)``.
    """
    perm = list(range(n))
    text = text.strip()
    if text in ("", "()", "e"):
        pass
    else:
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"bad cycle notation {text!r}")
        moved = set()
        for cyc in text[1:-1].split(")("):
            # any character but an ASCII digit 1-9 finds -1, out of range
            pts = ["123456789".find(ch) for ch in cyc if not ch.isspace()]
            if any(not (0 <= p < n) for p in pts) or len(set(pts)) != len(pts):
                raise ValueError(f"bad cycle {cyc!r} for S{n}")
            # a later cycle would overwrite the image of a point already placed
            if not moved.isdisjoint(pts):
                raise ValueError(f"bad cycle notation {text!r}: a point lies in two cycles")
            moved.update(pts)
            for i, p in enumerate(pts):
                perm[p] = pts[(i + 1) % len(pts)]
    rank = 0
    for i, v in enumerate(perm):
        smaller_later = sum(1 for w in perm[i + 1:] if w < v)
        rank += smaller_later * math.factorial(n - 1 - i)
    return rank


# ---------------------------------------------------------------------------
# Splitting density
# ---------------------------------------------------------------------------


def check_density_k(k) -> None:
    """Reject a rank k of Omega = (Z/2)^k outside 1 <= k <= MAX_DENSITY_K."""
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= MAX_DENSITY_K:
        raise ValueError(
            f"k must be an integer with 1 <= k <= MAX_DENSITY_K = {MAX_DENSITY_K}, got {k!r}"
        )


class SplitDensityProblem(Record):
    """Gamma, a subgroup H of Gamma and the rank k of Omega = (Z/2)^k."""

    __slots__ = _fields = ("gamma", "subgroup", "k")

    def __init__(self, gamma: FiniteGroup, subgroup: frozenset[int], k: int):
        subgroup = frozenset(subgroup)
        check_density_k(k)
        if not is_subgroup(gamma, subgroup):
            raise ValueError("H must be a genuine subgroup of Gamma")
        self._store(gamma=gamma, subgroup=subgroup, k=k)

    @property
    def group_order(self) -> int:
        return self.gamma.order * (2**self.k) * 2


def _bad_class_total(problem: SplitDensityProblem) -> int:
    """N_bad: the number of x in Gamma with x^M conjugate into H.

    M is the odd part of |Gamma|.  Whether x^M is conjugate into H is the
    same for every conjugate of x, so one power map x -> x^M over one
    representative per class takes about log2(M) table lookups each, and
    the elements conjugate into H are the classes that meet H.
    """
    gamma = problem.gamma
    n = gamma.order
    t = gamma.table
    classes = gamma.conjugacy_classes()
    into_h = set().union(*(c for c in classes if not c.isdisjoint(problem.subgroup)))
    powers = _power(
        [next(iter(c)) for c in classes], n // (n & -n),
        lambda a, b: [t[i][j] for i, j in zip(a, b)], [gamma.identity] * len(classes),
    )
    n_bad = sum(len(c) for c, x in zip(classes, powers) if x in into_h)
    # the identity lies in H, so its power does too and is always counted
    if not 1 <= n_bad <= n:
        raise InternalCheckError(f"N_bad = {n_bad} is not within 1..|Gamma|")
    return n_bad


def density(problem: SplitDensityProblem) -> Fraction:
    """The splitting density |xi| / |G| as an exact fraction, by the closed form."""
    return 1 - Fraction(_bad_class_total(problem), problem.group_order)


class BoundCertificate(NamedTuple):
    density: Fraction
    bound: Fraction
    witness_count: int
    holds: bool


def bound_certificate(problem: SplitDensityProblem) -> BoundCertificate:
    """Exact check of density >= 1 - 1/2^k with the omega != 1 witnesses.

    Every element with nontrivial omega component has even exponent and
    therefore splits; there are exactly (2^k - 1) * 2 * |Gamma| of them
    and the property survives conjugation, so they certify the bound.
    The density itself comes from the closed form.
    """
    dens = density(problem)
    bound = 1 - Fraction(1, 2**problem.k)
    witness_count = (2**problem.k - 1) * 2 * problem.gamma.order
    return BoundCertificate(
        density=dens, bound=bound, witness_count=witness_count, holds=dens >= bound
    )
