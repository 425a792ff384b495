"""Scalar finite element functions on a mesh.

Fields share the mesh's nodal basis, so coefficient i is the value at
node i.  element_gradients is the one kernel for physical gradients of
element coefficients: nodal_physical_gradients calls it at the nodes,
transfer.DiscreteLevelSet at located points.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularJacobianError
from .reference import det_inv


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


def element_gradients(ref_grads, coords, coeffs, elements):
    """Physical gradients (..., dim, m) of m coefficient columns, g =
    J^-T grad_ref^T c by det_inv per batch entry: coords (..., K, dim) and
    coeffs (..., K, m) of a K-node element, the reference basis gradients
    ref_grads (..., K, dim) at the point and the element id elements (...).
    Batch axes broadcast.  |det J| <= 1e-14 (|J|_F / sqrt(dim))^dim
    raises SingularJacobianError naming the first such entry's element.
    """
    dim = coords.shape[-1]
    # The first dim columns of m are J^T, the rest grad_ref^T c.
    values = np.concatenate([coords, coeffs], axis=-1)
    m = np.einsum("...kb,...kc->...bc", ref_grads, values)
    jac_t = m[..., :dim]
    det, inv = det_inv(jac_t)
    scale = np.maximum(np.linalg.norm(jac_t, axis=(-2, -1)) / np.sqrt(dim), 1e-30) ** dim
    singular = np.argwhere(np.abs(det) <= 1e-14 * scale)
    if len(singular):
        first = tuple(singular[0])
        element = np.broadcast_to(elements, det.shape)[first]
        raise SingularJacobianError(
            f"singular Jacobian (det {det[first]:.3e}) in element {element}"
        )
    return inv @ m[..., dim:]


def nodal_physical_gradients(field, node_field):
    """Physical field gradient at every node, averaged over adjacent
    elements; shape (num_nodes, dim).

    Nodes shared between elements can have discontinuous per-element
    gradients; contributions are arithmetic-averaged.
    """
    mesh = field.mesh
    basis, conn, dim = mesh.basis, mesh.connectivity, mesh.dim
    _, ref_grads = basis.eval_with_grad(basis.nodes)  # (N, N, dim)
    # Batch (element e, local node l).
    grads = element_gradients(
        ref_grads,
        node_field.as_matrix()[conn][:, None],
        field.coefficients[conn][:, None, :, None],
        np.arange(mesh.num_elements)[:, None],
    )[..., 0]  # (E, N, dim)
    slots = (conn[..., None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(slots, grads.ravel(), mesh.num_nodes * dim)
    counts = np.bincount(conn.ravel(), minlength=mesh.num_nodes)
    return sums.reshape(-1, dim) / counts[:, None]
