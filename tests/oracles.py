"""Test-side oracles: former ``src/`` routines that a fast path replaced.

``_echelon`` is the column-sweep elimination that served every rank,
inverse and eigenspace before ``ff._pivot_rows`` became the one
elimination kernel; the tests compare that kernel and ``ff._gauss_jordan``
against it.
"""

from defring_audit.ff import PrimeField


def _echelon(
    field: PrimeField, rows: list[list[int]], ncols: int, full: bool = False
) -> list[list[int]]:
    """Row echelon form of ``rows``; the list is consumed, each row replaced, never edited.

    Pivots are sought in the first ``ncols`` columns, but each row
    operation acts on the whole row, so columns past ``ncols`` (an
    augmented block) ride along.  Returns the pivot rows in pivot order,
    each scaled to a leading 1; their number is the rank of the first
    ``ncols`` columns.  With ``full`` every pivot column is also cleared
    above its pivot (Gauss-Jordan), giving the reduced echelon form.
    """
    scale, axpy = field.scale, field.axpy
    nrows = len(rows)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        for r in range(rank, nrows):
            if rows[r][col]:
                break
        else:
            continue
        pivot = rows[r] if rows[r][col] == 1 else scale(field.inv(rows[r][col]), rows[r])
        rows[r] = rows[rank]
        rows[rank] = pivot
        for i in range(0 if full else rank + 1, nrows):
            c = rows[i][col]
            if c and i != rank:
                rows[i] = axpy(rows[i], c, pivot)
        rank += 1
    del rows[rank:]
    return rows
