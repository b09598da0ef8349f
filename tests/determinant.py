"""Reference oracles: the exact determinant and the unimodularity test
that the normal-form tests use to check a transform.

Nothing in ``k0mf`` needs a determinant: the Hermite form keeps no
transform, and the Smith form's transforms are only checked here.
"""

from k0mf.exactlinalg import IntMatrix


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(u: IntMatrix) -> bool:
    return u.rows == u.cols and abs(determinant(u)) == 1
