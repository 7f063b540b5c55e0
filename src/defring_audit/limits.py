"""Every input cap of the toolkit, and the one reader of payload integers.

Each size an input controls is checked against one of the budgets below
when the input is parsed, before any work; a value past one is refused
with a message that names it as ``NAME = value``.  The modules that check
a cap import it from here, so ``ff.MAX_FIELD_ORDER`` and the other old
names still import.  This module imports nothing from the package.  A note
on the slowest input at a limit names its case in scripts/limits_probe.py,
which measures it in a fresh process.
"""

from __future__ import annotations


class ScenarioError(ValueError):
    """Malformed scenario input (exit code 2)."""


# Largest extension field F_{p^m}, m >= 2, that is built; also the cap of
# the splitting-field search.
MAX_FIELD_ORDER = 2**20
# Miller-Rabin with the 13 prime bases 2..41 is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2015).
MAX_PRIMALITY_N = 3_317_044_064_679_887_385_961_981

# sigma^order = I and the norm each take O(log order) matrix products
MAX_CYCLIC_ORDER = 4096
MAX_INVOLUTION_N = 12  # the twisted involution acts on n^2 x n^2 matrices
# rows and columns of a sigma, J or check-type matrix.  Not yet a probe
# case (ROADMAP item 5); the slowest input known at the limit is a dense
# 12 x 12 sigma of order 4096 over F_2^20, ~0.9 s and 121 MB in a fresh
# process, 0.5-0.7 s of it building the field and < 0.01 s the norm; a
# check-type matrix takes < 0.05 s after the field is built (2-core Xeon,
# Python 3.11).
MAX_MATRIX_DIM = 12

# places of a ledger setting, counted for gn-audit as s_count +
# len(ell_degrees) + deg_F.  Slowest at the limit: case `gn-audit`.
MAX_PLACES = 10_000
# every integer a ledger or gn-audit payload supplies (n or gn, the Lie
# dimensions, deg_F, s_count, local degrees, delta, the h0 values), so a
# report's integers stay far below Python's 4300-digit int/str limit.
# Slowest at the limit: case `gn-audit`, n = 10^6 with 10000 places, as at
# MAX_PLACES alone.
MAX_LEDGER_INT = 10**6

# the size of a partition given to the partition mode.  Slowest at the
# limit: case `theta80`, theta on the one-part partition "80".
MAX_PARTITION_N = 80
# verify-all --max-n, the cap of verify_conjugation_lemma; the run
# grows ~1.3x per step of n past 12.  Slowest at the limit: case `verify12`.
MAX_VERIFY_N = 12

# the order of every group density builds: Z/n, (Z/2)^k and products
MAX_GROUP_ORDER = 5040
MAX_SYMMETRIC_N = 6  # S_n, so S_6 (order 720) is the largest
MAX_DENSITY_K = 64  # the rank k of Omega = (Z/2)^k

MAX_THRESHOLD_N = 8
# q^(n!) has at most bit_length(q) * n! bits; 14000 bits are fewer than 4215
# digits, so a report prints the value within Python's 4300-digit limit
MAX_THRESHOLD_BITS = 14_000


def read_int(value, what: str, cap: str | None = None, *, low: int | None = None,
             past: str | None = None) -> int:
    """``value`` if it is an integer within its budget, else a ScenarioError.

    A bool, float, string or other value is refused as "{what} must be an
    integer, got {value!r}".  With the name of a cap, a value above it is
    refused as "{past} NAME = cap", ``past`` defaulting to "{what} must be
    at most"; with ``low`` too, a value outside low..cap is refused as
    "{what} must satisfy low <= name <= NAME = cap, got value", where name
    is ``what`` without quotes or dashes ('order' -> order, --max-n -> max-n).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if cap is None:
        return value
    bound = globals()[cap]
    if low is not None and not low <= value <= bound:
        name = what.strip("'-")
        raise ScenarioError(f"{what} must satisfy {low} <= {name} <= {cap} = {bound}, got {value}")
    if low is None and value > bound:
        raise ScenarioError(f"{past or what + ' must be at most'} {cap} = {bound}")
    return value
