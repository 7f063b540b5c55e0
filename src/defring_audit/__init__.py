"""defring-audit: exact-arithmetic audits of dimension bookkeeping,
partition combinatorics, cyclic cohomology and splitting densities.

Importing the package loads no layer; each public name lives in its
module (``defring_audit.ff``, ``.partitions``, ``.cohomology``,
``.ledger``, ``.density``, ``.taylor``, ``.acceptance``, ``.limits``) and
is imported from there."""

__version__ = "0.1.0"
