"""Independent box walks for the Rota-Baxter and O-operator searches.

They read structure constants only through the public indexing of
``Tensor3`` and ``Matrix`` and do their own arithmetic, so the operator
lists they return do not depend on homcert's identity evaluator.  Both walk
the box of integer matrices in row-major lexicographic order, which is the
order the brute-force searches promise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _product(t, x, y) -> tuple:
    """Bilinear product encoded by t: result_k = sum x_i y_j t[i,j,k]."""
    n = len(x)
    return tuple(sum(x[i] * y[j] * t[i, j, k] for i in range(n) for j in range(n))
                 for k in range(n))


def _apply(flat, rows, cols, v) -> tuple:
    return tuple(sum(flat[r * cols + c] * v[c] for c in range(cols)) for r in range(rows))


def _commutes(flat, rows, cols, left, right) -> bool:
    """left . M == M . right for the matrix M given row-major by flat."""
    return all(
        sum(left[r, k] * flat[k * cols + c] for k in range(rows))
        == sum(flat[r * cols + k] * right[k, c] for k in range(cols))
        for r in range(rows) for c in range(cols))


def _basis(n: int):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _box(cells: int, bound: int):
    return itertools.product(range(-bound, bound + 1), repeat=cells)


def _as_rows(flat, rows, cols):
    return tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows))


def rota_baxter_box(mul, alpha, weight, bound: int) -> list[tuple]:
    """Matrices R (as row tuples) with R(x)R(y) = R(R(x)y + xR(y) + w xy) on
    basis pairs and R.alpha = alpha.R."""
    n = alpha.rows
    w = Fraction(weight)
    basis = _basis(n)
    found = []
    for flat in _box(n * n, bound):
        if not _commutes(flat, n, n, alpha, alpha):
            continue
        images = [_apply(flat, n, n, e) for e in basis]
        if all(_product(mul, images[i], images[j]) == _apply(
                flat, n, n, [a + b + w * c for a, b, c in zip(
                    _product(mul, images[i], basis[j]),
                    _product(mul, basis[i], images[j]),
                    _product(mul, basis[i], basis[j]))])
               for i in range(n) for j in range(n)):
            found.append(_as_rows(flat, n, n))
    return found


def _act(family, weights, v) -> tuple:
    """(sum_k weights_k family_k) applied to v."""
    m = len(v)
    return tuple(sum(weights[k] * family[k][r, c] * v[c]
                     for k in range(len(family)) for c in range(m))
                 for r in range(m))


def o_operator_box(module, bound: int) -> list[tuple]:
    """Matrices T : carrier -> algebra (as row tuples) with alpha.T = T.beta
    and, on basis pairs u, v of the carrier,
      bimodules:  T(u) * T(v) = T(l(T u) v + r(T v) u)
      Lie:        [T(u), T(v)] = T(rho(T u) v - rho(T v) u)."""
    algebra = module.algebra
    n, m = algebra.dim, module.mdim
    lie = "rho" in module.actions
    op = algebra.op("bracket" if lie else "mul")
    basis = _basis(m)
    found = []
    for flat in _box(n * m, bound):
        if not _commutes(flat, n, m, algebra.alpha, module.beta):
            continue
        images = [_apply(flat, n, m, e) for e in basis]
        ok = True
        for i, j in itertools.product(range(m), repeat=2):
            if lie:
                inner = [a - b for a, b in zip(
                    _act(module.actions["rho"], images[i], basis[j]),
                    _act(module.actions["rho"], images[j], basis[i]))]
            else:
                inner = [a + b for a, b in zip(
                    _act(module.actions["l"], images[i], basis[j]),
                    _act(module.actions["r"], images[j], basis[i]))]
            if _product(op, images[i], images[j]) != _apply(flat, n, m, inner):
                ok = False
                break
        if ok:
            found.append(_as_rows(flat, n, m))
    return found
