"""Scalar finite element functions on a mesh.

Fields share the mesh's nodal basis, so coefficient i is the value at
node i.  The level-set function sigma and its derived gradient/Hessian
fields are all represented this way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularJacobianError


@dataclass
class ScalarField:
    """Nodal coefficients of a scalar FE function on a mesh."""

    mesh: object
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if len(self.coefficients) != self.mesh.num_nodes:
            raise ValueError(
                f"field has {len(self.coefficients)} coefficients for a mesh "
                f"with {self.mesh.num_nodes} nodes"
            )

    def copy(self):
        return ScalarField(self.mesh, self.coefficients.copy())


@dataclass
class AnalyticLevelSet:
    """Closed-form level set: evaluator, gradient and Hessian.

    The zero isocontour defines the surface of interest.  All callables
    take an (n, dim) array of physical points and return (n,), (n, dim)
    and (n, dim, dim) arrays.
    """

    dim: int
    fn: callable
    grad_fn: callable
    hess_fn: callable

    def values(self, points):
        return np.asarray(self.fn(np.atleast_2d(points)), dtype=float)

    def gradients(self, points):
        return np.asarray(self.grad_fn(np.atleast_2d(points)), dtype=float)

    def hessians(self, points):
        return np.asarray(self.hess_fn(np.atleast_2d(points)), dtype=float)


def project(analytic, mesh, node_field):
    """Nodal interpolation of an analytic function onto the mesh basis."""
    values = analytic.values(node_field.as_matrix())
    return ScalarField(mesh, values)


def nodal_physical_gradients(field, node_field):
    """Physical field gradient at every node, averaged over adjacent
    elements; shape (num_nodes, dim).

    Nodes shared between elements can have discontinuous per-element
    gradients; contributions are arithmetic-averaged.
    """
    mesh = field.mesh
    basis, conn, dim = mesh.basis, mesh.connectivity, mesh.dim
    _, ref_grads = basis.eval_with_grad(basis.nodes)  # (N, N, dim)
    # Per element e and local node l, the columns of m[e, l] are A^T (the
    # transposed element Jacobian at the node) and the reference gradient
    # of the field there.
    values = np.concatenate(
        [node_field.as_matrix()[conn], field.coefficients[conn][..., None]], axis=2
    )
    m = np.einsum("lkb,ekc->elbc", ref_grads, values)
    jac_t = m[..., :dim]
    det = np.linalg.det(jac_t)
    scale = np.maximum(np.linalg.norm(jac_t, axis=(2, 3)) / np.sqrt(dim), 1e-30) ** dim
    singular = np.argwhere(np.abs(det) <= 1e-14 * scale)
    if len(singular):
        e, loc = singular[0]
        raise SingularJacobianError(
            f"singular Jacobian (det {det[e, loc]:.3e}) in element {e}"
        )
    grads = np.linalg.solve(jac_t, m[..., dim:])[..., 0]  # (E, N, dim)
    slots = (conn[..., None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(slots, grads.ravel(), mesh.num_nodes * dim)
    counts = np.bincount(conn.ravel(), minlength=mesh.num_nodes)
    return sums.reshape(-1, dim) / counts[:, None]


def discrete_gradient(field, node_field):
    """FE discrete gradient: one ScalarField per spatial component."""
    grads = nodal_physical_gradients(field, node_field)
    return [ScalarField(field.mesh, grads[:, a]) for a in range(field.mesh.dim)]
