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
whose power x^M is conjugate into H, and the class structure gives it
with no table: a key per class (a cycle type in S_n, the element itself
in an abelian group, the pair of keys in a product), the class sizes,
and the map x -> x^M on keys.

The subgroup lattice is searched by conjugacy classes (the cyclic
extension method) over the group's table, which is built for it on
first access by one walk over the generators that also checks, exactly
and at every order, that the structure is a group: one subgroup per
class is joined with the cyclic subgroups outside it, and each new
subgroup's class is recorded at once as its orbit under conjugation.
``subgroup_classes`` gives one representative per class with the class
size, and ``all_subgroups`` the sorted union of the classes.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, NamedTuple

from .ff import InternalCheckError, Record
from .limits import MAX_DENSITY_K, MAX_GROUP_ORDER, MAX_SYMMETRIC_N, ScenarioError, read_int
from .partitions import partitions_of


class FiniteGroup:
    """A finite group on the element indices 0..N-1, given by its structure.

    Each constructor gives its ``generators``, ``mul``, ``inv``, a class key
    per element (``class_key``), the keys' power map ``power_key(key, m)``
    (the key of x^m) and ``count_classes`` (() -> {key: |class|}).
    Density reads only these.  The table is built on first access, by one
    walk from the identity over the generators, and the walk is its exact
    check at every order; only the subgroup lattice reads it.
    """

    __slots__ = ("order", "identity", "name", "generators", "mul", "inv", "class_key",
                 "power_key", "_count_classes", "_table", "_class_sizes", "_conjugations")

    def __init__(self, order: int, identity: int, name: str, generators, *, mul, inv,
                 class_key, power_key, count_classes):
        self.order, self.identity, self.name, self.generators = order, identity, name, generators
        self.mul, self.inv, self.class_key, self.power_key = mul, inv, class_key, power_key
        self._count_classes = count_classes
        self._table = self._class_sizes = self._conjugations = None

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table, filled by one walk from the identity: row y*s is
        row s read through row y, as (y*s)*c = y*(s*c), with the generators'
        rows from ``mul``.  The walk compares that reading with row y*s at
        every (y, s), built or not: Light's test over the generators
        (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1.2),
        which with a two-sided identity and ``inv`` agreeing makes the table
        a group's.  ``mul`` is then compared with the table on a seeded
        sample of 256 pairs (every pair below order 17).  Any failure raises
        ``InternalCheckError``."""
        if self._table is None:
            n, e = self.order, self.identity
            points = tuple(range(n))
            if not {e, *self.generators} <= set(points):
                raise InternalCheckError(f"{self!r} names an element outside 0..{n - 1}")
            steps = []
            for s in self.generators:
                s_row = tuple(map(partial(self.mul, s), points))
                if sorted(s_row) != list(points):
                    raise InternalCheckError(f"row {s} of {self!r} is not a permutation")
                # one point's only permutation is the identity, and itemgetter
                # of one index would give the entry, not a 1-tuple
                steps.append((s, operator.itemgetter(*s_row) if n > 1 else _itself))
            rows = [None] * n
            rows[e] = points
            walk = [e]
            for y in walk:
                row = rows[y]
                for s, read in steps:
                    z, product = row[s], read(row)  # y*s, and y*(s*c) for each c
                    if rows[z] is None:
                        rows[z] = product
                        walk.append(z)
                    elif rows[z] != product:
                        c = next(c for c in points if rows[z][c] != product[c])
                        raise InternalCheckError(
                            f"the product of {self!r} is not associative at {(y, s, c)}")
            if None in rows:
                raise InternalCheckError(f"the generators of {self!r} do not generate it")
            if tuple(row[e] for row in rows) != points:
                raise InternalCheckError(f"the identity {e} of {self!r} is not two-sided")
            inverse = list(map(self.inv, points))
            if sorted(inverse) != list(points) or set(map(operator.getitem, rows, inverse)) != {e}:
                raise InternalCheckError(f"the inverses of {self!r} disagree with its table")
            # the walk reads ``mul`` only on the generators' rows
            for xy in random.Random(n).sample(range(n * n), min(n * n, 256)):
                x, y = divmod(xy, n)
                if self.mul(x, y) != rows[x][y]:
                    raise InternalCheckError(f"mul of {self!r} disagrees with its table at {(x, y)}")
            self._table = tuple(rows)
        return self._table

    def elements(self) -> range:
        return range(self.order)

    def class_sizes(self) -> dict:
        """|class| for each class key, counted on the first call and checked
        to sum to |Gamma| then."""
        if self._class_sizes is None:
            sizes = self._count_classes()
            if sum(sizes.values()) != self.order:
                raise InternalCheckError("conjugacy classes do not partition Gamma")
            self._class_sizes = sizes
        return self._class_sizes

    def conjugations(self) -> list[tuple[int, ...]]:
        """The permutations x -> u x u^-1, one for each of the ``generators``
        other than the identity, built on the first call."""
        if self._conjugations is None:
            t = self.table
            self._conjugations = [
                tuple(t[t[u][x]][u_inv] for x in self.elements())
                for u, u_inv in zip(self.generators, map(self.inv, self.generators))
                if u != self.identity
            ]
        return self._conjugations

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or self.order})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _itself(x):
    return x


def _abelian(n: int, name: str, generators, mul, inv, power_key) -> FiniteGroup:
    """An abelian group: each element is its own class."""
    return FiniteGroup(n, 0, name, generators, mul=mul, inv=inv, class_key=_itself,
                       power_key=power_key, count_classes=lambda: dict.fromkeys(range(n), 1))


def trivial_group() -> FiniteGroup:
    group = cyclic_group(1)
    group.name = "trivial"
    return group


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1 or n > MAX_GROUP_ORDER:
        raise ValueError(f"cyclic order out of range (MAX_GROUP_ORDER = {MAX_GROUP_ORDER})")
    return _abelian(n, f"C{n}", [1 % n], lambda a, b: (a + b) % n, lambda a: -a % n,
                    lambda key, m: key * m % n)


def elementary_abelian_2(k: int) -> FiniteGroup:
    # 2**k > MAX_GROUP_ORDER exactly when k >= its bit length; a huge k is
    # refused without forming 2**k
    if k < 0 or k >= MAX_GROUP_ORDER.bit_length():
        raise ValueError("elementary abelian rank out of range "
                         f"(MAX_GROUP_ORDER = {MAX_GROUP_ORDER})")
    return _abelian(2**k, f"(Z/2)^{k}", [1 << i for i in range(k)], operator.xor, _itself,
                    lambda key, m: key if m & 1 else 0)


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """S_n on the permutations of range(n) in lexicographic order, generated
    by the adjacent transpositions.  A class key is a cycle type, found on
    first query and kept.  Memoised like ``mk_field``: a batch asks for the
    same S_n in many scenarios."""
    if n < 1 or n > MAX_SYMMETRIC_N:
        raise ValueError(f"symmetric groups are supported for 1 <= n <= {MAX_SYMMETRIC_N} "
                         f"(MAX_SYMMETRIC_N = {MAX_SYMMETRIC_N})")
    perms = [bytes(p) for p in itertools.permutations(range(n))]
    index = {p: i for i, p in enumerate(perms)}.__getitem__
    pads = [p.ljust(256, b"\0") for p in perms]
    points = bytes(range(n))
    types = {}

    def class_key(x):
        if x not in types:
            types[x] = _cycle_type(perms[x])
        return types[x]

    return FiniteGroup(
        len(perms), 0, f"S{n}",
        [index(points[:i] + bytes((i + 1, i)) + points[i + 2:]) for i in range(n - 1)],
        # (a*b)(x) = a(b(x)) is b.translate(a), with a padded to a 256-byte table
        mul=lambda a, b: index(perms[b].translate(pads[a])),
        inv=lambda a: index(bytes.maketrans(perms[a], points)[:n]),  # maps p(i) to i
        class_key=class_key, power_key=_cycle_type_power,
        count_classes=lambda: _cycle_type_sizes(n),
    )


def _cycle_type(perm: bytes) -> tuple[int, ...]:
    """The cycle lengths of a permutation, longest first."""
    lengths, seen = [], set()
    for start in range(len(perm)):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def _cycle_type_power(cycle_type: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The cycle type of x^m: each L-cycle of x splits into gcd(L, m) cycles
    of length L / gcd(L, m).  Memoised: S_n has few cycle types."""
    parts = []
    for length in cycle_type:
        g = math.gcd(length, m)
        parts += [length // g] * g
    return tuple(sorted(parts, reverse=True))


def _cycle_type_sizes(n: int) -> dict[tuple[int, ...], int]:
    """The class size of each cycle type of S_n: n! / prod i^(m_i) m_i!, with
    m_i the number of i-cycles (Sagan, *The Symmetric Group*, 1.1)."""
    sizes = {}
    for lam in partitions_of(n):
        cycle_type = lam.parts
        centralizer = 1
        for length in set(cycle_type):
            m = cycle_type.count(length)
            centralizer *= length**m * math.factorial(m)
        sizes[cycle_type] = math.factorial(n) // centralizer
    return sizes


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B, with (x, y) at index x * |B| + y, generated by (g, 1) and
    (1, h) for the factors' generators g and h.  Products, inverses, class
    keys, class sizes and the power map work componentwise."""
    n = a.order * b.order
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"product order {n} exceeds the budget {MAX_GROUP_ORDER} "
                         f"(MAX_GROUP_ORDER = {MAX_GROUP_ORDER})")
    nb = b.order

    def mul(x, y):
        (xa, xb), (ya, yb) = divmod(x, nb), divmod(y, nb)
        return a.mul(xa, ya) * nb + b.mul(xb, yb)

    def count_classes():
        sizes = b.class_sizes().items()
        return {(ka, kb): i * j for ka, i in a.class_sizes().items() for kb, j in sizes}

    return FiniteGroup(
        n, a.identity * nb + b.identity, f"{a.name or '?'}x{b.name or '?'}",
        [g * nb + b.identity for g in a.generators] + [a.identity * nb + h for h in b.generators],
        mul=mul, inv=lambda x: a.inv(x // nb) * nb + b.inv(x % nb),
        class_key=lambda x: (a.class_key(x // nb), b.class_key(x % nb)),
        power_key=lambda key, m: (a.power_key(key[0], m), b.power_key(key[1], m)),
        count_classes=count_classes,
    )


def build_group(spec) -> FiniteGroup:
    """Build a group from a dict spec or a short name like "S3" or "Z2"."""
    if isinstance(spec, str):
        return _group_from_name(spec)
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "trivial":
            return trivial_group()
        if kind == "cyclic":
            return cyclic_group(read_int(spec["n"], "group spec 'n'"))
        if kind == "symmetric":
            return symmetric_group(read_int(spec["n"], "group spec 'n'"))
        if kind == "elementary_abelian_2":
            return elementary_abelian_2(read_int(spec["k"], "group spec 'k'"))
        if kind == "product":
            factors = spec["factors"]
            if not isinstance(factors, list):
                raise ValueError(f"product 'factors' must be a list, got {factors!r}")
            factors = [build_group(s) for s in factors]
            if not factors:
                raise ValueError("product needs at least one factor")
            out = factors[0]
            for f in factors[1:]:
                out = direct_product(out, f)
            return out
        raise ValueError(f"unknown group constructor {kind!r}")
    raise ValueError("group spec must be a name or a dict")


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

    <H, g> is a union of left cosets r*H, and left multiplication by a
    generator maps a coset to a coset, so a search over coset
    representatives reaches them all; each coset is added whole.  Once
    the table is built, a coset is row r read at H's elements; before,
    the products go through ``mul``.
    """
    t, mul = group._table, group.mul
    elems = list(h_elems)
    mask = h_mask
    gens = gens + (g,)
    reps = [group.identity]
    for r in reps:
        for s in gens:
            y = mul(s, r) if t is None else t[s][r]
            if mask >> y & 1:
                continue
            if t is None:
                for x in h_elems:
                    z = mul(y, x)
                    elems.append(z)
                    mask |= 1 << z
            else:
                row = t[y]
                for x in h_elems:
                    z = row[x]
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
    its own elements generate.  A subset of |Gamma| elements is Gamma.
    """
    h = frozenset(subset)
    if group.identity not in h or any(not (0 <= a < group.order) for a in h):
        return False
    return len(h) == group.order or subgroup_closure(group, h) == h


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
    conjugations = group.conjugations()
    cyclic = _cyclic_generators(group)
    start = 1 << group.identity
    found = {start}
    classes = [[[group.identity]]]
    frontier = [(start, (), [group.identity])]
    while frontier:
        h, gens, elems = frontier.pop()
        # <H, g> = <H, x> for every x in the coset g*H, which _join lists
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
                for conj in conjugations:
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
    try:
        read_int(k, "k", "MAX_DENSITY_K", low=1)
    except ScenarioError:
        raise ValueError(f"k must be an integer with 1 <= k <= MAX_DENSITY_K = {MAX_DENSITY_K}, "
                         f"got {k!r}") from None


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
    same for every conjugate of x, so N_bad is the total size of the
    classes whose key maps under ``power_key`` to the key of an element
    of H.
    """
    gamma = problem.gamma
    n = gamma.order
    m = n // (n & -n)
    into_h = set(map(gamma.class_key, problem.subgroup))
    power_key = gamma.power_key
    n_bad = sum(size for key, size in gamma.class_sizes().items() if power_key(key, m) in into_h)
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
