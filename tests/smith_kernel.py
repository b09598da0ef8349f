"""Reference oracle: the integer kernel by the route ``integer_kernel``
took before it became one Hermite reduction of [a^t | I].

``smith_kernel`` takes the Smith form U a V = S, keeps the columns of V
past the nonzero diagonal of S (they span the kernel, because V is
unimodular) and reduces them to their canonical Hermite basis with
``row_basis``. ``integer_kernel`` and the kernel of ``solve_in_lattice``
must return the same rows.
"""

from dense_hermite import row_basis

from k0mf.exactlinalg import IntMatrix, smith_normal_form


def smith_kernel(a: IntMatrix) -> list[tuple[int, ...]]:
    s, _, v = smith_normal_form(a)
    r = min(a.rows, a.cols)
    kernel = [col for j, col in enumerate(v.transpose().to_rows()) if j >= r or s.at(j, j) == 0]
    return row_basis(kernel, a.cols)
