"""Shared test oracles, independent of the library's evaluation paths."""

import numpy as np

from confpce.basis import eval_basis_matrix, legendre_table


def gauss_legendre_gram(index_set, orders):
    """Quadrature oracle: Gram matrix under the uniform density on the cube.

    Tensor Gauss-Legendre rule with the given order per dimension; weights
    carry the 1/2-per-dimension uniform density factor.
    """
    nodes_1d, weights_1d = [], []
    for order in orders:
        x, w = np.polynomial.legendre.leggauss(order)
        nodes_1d.append(x)
        weights_1d.append(w / 2.0)
    grids = np.meshgrid(*nodes_1d, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*weights_1d, indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    vals = eval_basis_matrix(points, index_set)
    return (vals * weights[:, None]).T @ vals


def product_basis_reference(xi, index_set):
    """Plain per-dimension product oracle for the basis matrix, shape (n, K).

    Psi_alpha(xi) = 1 * psi_{alpha_1}(xi_1) * ... * psi_{alpha_N}(xi_N),
    multiplied left to right over all N dimensions from legendre_table
    columns, one basis element at a time.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    tables = [legendre_table(index_set.max_degree, xi[:, n]) for n in range(index_set.input_dim)]
    out = np.ones((xi.shape[0], len(index_set)))
    for k, alpha in enumerate(index_set.indices):
        for n, degree in enumerate(alpha):
            out[:, k] *= tables[n][:, degree]
    return out
