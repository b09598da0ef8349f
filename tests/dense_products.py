"""Reference oracle: the dense integer loops ``IntMatrix`` ran before
its sparse rows became its working form.

``dense_matmul`` and ``dense_apply`` are the triple loop and the
matrix-vector loop over every entry, zeros included (a zero factor only
skips its multiply); ``dense_transpose`` reads every entry through
``at`` and ``dense_sub`` subtracts entry by entry. The row-sparse
``IntMatrix.__matmul__``, ``apply``, ``transpose`` and ``__sub__`` must
return the same entries and raise the same errors. Each oracle builds
its result from dense entries.
"""

from typing import Sequence

from k0mf.exactlinalg import IntMatrix


def dense_matmul(self: IntMatrix, other: IntMatrix) -> IntMatrix:
    if self.cols != other.rows:
        raise ValueError("shape mismatch in matrix product")
    a, b = self.entries, other.entries
    p, q = self.cols, other.cols
    out = []
    for i in range(self.rows):
        arow = a[i * p : (i + 1) * p]
        for j in range(q):
            acc = 0
            for k, x in enumerate(arow):
                if x:
                    acc += x * b[k * q + j]
            out.append(acc)
    return IntMatrix(self.rows, q, tuple(out))


def dense_apply(self: IntMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    if len(vec) != self.cols:
        raise ValueError("vector length mismatch")
    e = self.entries
    n = self.cols
    out = []
    base = 0
    for _ in range(self.rows):
        acc = 0
        for k in range(n):
            x = e[base + k]
            if x:
                acc += x * vec[k]
        out.append(acc)
        base += n
    return tuple(out)


def dense_transpose(self: IntMatrix) -> IntMatrix:
    return IntMatrix(
        self.cols,
        self.rows,
        tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
    )


def dense_sub(self: IntMatrix, other: IntMatrix) -> IntMatrix:
    if (self.rows, self.cols) != (other.rows, other.cols):
        raise ValueError("shape mismatch in matrix difference")
    return IntMatrix(self.rows, self.cols, tuple(x - y for x, y in zip(self.entries, other.entries)))
