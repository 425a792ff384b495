"""Assembly of the total objective F = F_mu + F_sigma over all nodes.

F_mu integrates the quality metric in target coordinates: the reference
quadrature weights are multiplied by det W.  One kernel serves F, its
gradient and its Hessian: elements are taken in chunks sized by the
derivative order (mesh.element_chunks: about mesh._CHUNK_MATRICES d x d
matrices, one per quadrature point for F and its gradient, d^2 for the
Hessian), T = A W^{-1} is formed for the whole chunk with shape
(Q, E_c, d, d), and the metric is evaluated once per chunk.  The
metric's own det T check raises NonpositiveDeterminantError; only then
is det T computed again, to name the first inverted element.  dmu and
d2mu arrive as points-first views of quality's points-last arrays; the
first product with each reads through the view and writes the layout
the next step needs.  W^{-1} and the weights w det W are folded into the
metric derivatives (for the Hessian, one GEMM per element over the two
contracted indices of T), so the reference-gradient table B (Q d x N,
the same for every element) turns them into element gradients and
element Hessians B^T D_e B with one GEMM per chunk.
Degrees of freedom flagged in the fixed-node mask are removed from the
gradient and replaced by identity rows/columns in the Hessian.

The Hessian is never assembled into a global matrix (as in the partial
assembly of Camier et al., "Accelerating high-order mesh optimization
using finite element partial assembly on GPUs").  hessian returns an
ElementHessian holding the element blocks B^T D_e B, each made exactly
symmetric as its chunk is written, the element dofs, the penalty's COO
entries and the fixed-dof mask.  H x zeroes x on the fixed dofs, gathers
it at the element dofs, applies all blocks with one batched matmul and
sums them back with one bincount, adds one bincount for the penalty
entries and copies x into the fixed rows.  That, and the exact diagonal
for the Jacobi preconditioner, is all MINRES needs.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonpositiveDeterminantError
from .fitting import penalty_gradient, penalty_hessian, penalty_value
from .mesh import det_inv, element_chunks, quadrature_jacobians
from .quality import metric_batch, metric_values
from .reference import quadrature_for, quadrature_tables


@dataclass
class ObjectiveConfig:
    """Everything needed to evaluate F: metric, targets, penalty, mask."""

    metric_id: str
    targets: object
    gamma: float = 0.5
    penalty: object = None  # PenaltyConfig or None
    marked: object = None  # MarkedSet or None
    fixed_mask: np.ndarray = None  # bool, length dim * num_nodes; True = fixed

    @property
    def has_penalty(self):
        return self.penalty is not None and self.marked is not None


def _chunks(config, mesh, node_field, order):
    """Yield (elements, metric) per element chunk: the metric's values at
    order 0, else metric_batch's (values, dmu, d2mu) up to the order, at
    T = A W^{-1} of shape (Q, E_c, d, d).  Raises
    NonpositiveDeterminantError naming the first element with det T <= 0."""
    winv = config.targets.winv
    for chunk in element_chunks(mesh, order):
        t = quadrature_jacobians(mesh, node_field, chunk) @ winv[chunk]
        try:
            if order == 0:
                result = metric_values(config.metric_id, t, config.gamma)
            else:
                result = metric_batch(config.metric_id, t, config.gamma, order)
        except NonpositiveDeterminantError:
            tau, _ = det_inv(t)
            e = int(np.flatnonzero((tau <= 0.0).any(axis=0))[0])
            raise NonpositiveDeterminantError(
                chunk.start + e, float(tau[:, e].min())
            ) from None
        yield chunk, result


def _weights(config, mesh):
    """w_q det W_e, shape (Q, E)."""
    weights = quadrature_for(mesh.geometry, mesh.order).weights
    return np.outer(weights, config.targets.detw)


def _gemm_table(mesh):
    """Reference gradients as B^T, shape (N, Q d); column (q, b)."""
    _, ref_grads = quadrature_tables(mesh.geometry, mesh.order)
    return ref_grads.transpose(1, 0, 2).reshape(mesh.basis.num_nodes, -1)


def value(config, mesh, node_field):
    """(F, F_mu, F_sigma)."""
    wdet = _weights(config, mesh)
    f_mu = 0.0
    for chunk, vals in _chunks(config, mesh, node_field, 0):  # vals (Q, E_c)
        f_mu += np.vdot(wdet[:, chunk], vals)
    f_sigma = 0.0
    if config.has_penalty:
        f_sigma = penalty_value(
            config.penalty, config.marked, mesh, node_field, config.targets
        )
    return float(f_mu) + float(f_sigma), float(f_mu), float(f_sigma)


def gradient(config, mesh, node_field):
    """Masked derivative of F with respect to all node coordinates."""
    dim, nnod = mesh.dim, mesh.num_nodes
    wdet = _weights(config, mesh)
    winv = config.targets.winv
    bt = _gemm_table(mesh)
    # local[i, e, a] = sum_q sum_b' B[(q, b'), i] P[q, b', e, a]
    local = np.empty((mesh.basis.num_nodes, mesh.num_elements, dim))
    for chunk, (_, dmu, _) in _chunks(config, mesh, node_field, 1):
        # P[q, b', e, a] = w_q det W_e sum_c W^{-1}[e, b', c] dmu[q, e, a, c]
        p = np.einsum("qeac,ebc->qbea", dmu * wdet[:, chunk, None, None], winv[chunk])
        local[:, chunk] = (bt @ p.reshape(bt.shape[1], -1)).reshape(len(bt), -1, dim)
    conn = mesh.connectivity.T  # (N, E), matching local
    grad = np.concatenate(
        [np.bincount(conn.ravel(), local[..., a].ravel(), nnod) for a in range(dim)]
    )
    if config.has_penalty:
        grad += penalty_gradient(
            config.penalty, config.marked, mesh, node_field, config.targets
        )
    if config.fixed_mask is not None:
        grad[config.fixed_mask] = 0.0
    return grad


def hessian(config, mesh, node_field):
    """Masked symmetric Hessian of F as an ElementHessian."""
    dim, nnod, nw = mesh.dim, mesh.num_nodes, mesh.basis.num_nodes
    ndof = dim * nnod
    wdet = _weights(config, mesh)
    winv = config.targets.winv
    _, ref_grads = quadrature_tables(mesh.geometry, mesh.order)
    grads_t = ref_grads.transpose(0, 2, 1)  # (Q, d, N)
    bt = _gemm_table(mesh)
    nq = len(grads_t)
    # winv2[e, (c, f), (b', c')] = W^{-1}[e, b', c] W^{-1}[e, c', f]
    winv2 = np.einsum("ebc,egf->ecfbg", winv, winv).reshape(-1, dim**2, dim**2)
    # blocks[e, (a, i), (b, j)]: row dof (a, i), column dof (b, j) of element e.
    blocks = np.empty((mesh.num_elements, dim * nw, dim * nw))
    for chunk, (_, _, d2mu) in _chunks(config, mesh, node_field, 2):
        ne = len(d2mu[0])
        # D[q, b', e, a, b, c'] = w_q det W_e
        #   sum_{c, f} W^{-1}[e, b', c] d2mu[q, e, a, c, b, f] W^{-1}[e, c', f],
        # one GEMM per element over (c, f) with d2mu as (e, q, a, b, c, f).
        wd = d2mu.transpose(1, 0, 2, 4, 3, 5) * wdet[:, chunk].T[:, :, None, None, None, None]
        wd = wd.reshape(ne, -1, dim**2) @ winv2[chunk]
        dd = wd.reshape(ne, nq, dim, dim, dim, dim).transpose(1, 4, 0, 2, 3, 5)
        # One small matmul per point, then one GEMM over (q, b').
        x = dd.reshape(nq, -1, dim) @ grads_t  # (Q, b' e a b, N)
        block = (bt @ x.reshape(bt.shape[1], -1)).reshape(nw, ne, dim, dim, nw)
        local = blocks[chunk]
        local.reshape(ne, dim, nw, dim, nw)[...] = block.transpose(1, 2, 0, 3, 4)
        local += local.transpose(0, 2, 1)
        local *= 0.5
    dofs = (np.arange(dim)[:, None] * nnod + mesh.connectivity[:, None, :]).reshape(
        mesh.num_elements, -1
    )
    h_sigma = None
    if config.has_penalty:
        h_sigma = penalty_hessian(
            config.penalty, config.marked, mesh, node_field, config.targets
        )
    fixed = np.zeros(ndof, bool) if config.fixed_mask is None else config.fixed_mask
    return ElementHessian(blocks, dofs, h_sigma, fixed)


class ElementHessian(NamedTuple):
    """H = sum_e B_e^T D_e B_e + H_sigma, never assembled, with the fixed
    dofs' rows and columns replaced by identity ones."""

    blocks: np.ndarray  # (E, K, K), K = d N, exactly symmetric
    dofs: np.ndarray  # (E, K): global dof a * num_nodes + node of each row
    penalty: object  # fitting.PenaltyHessian (unsummed COO) or None
    fixed: np.ndarray  # bool, one per dof

    @property
    def shape(self):
        return (len(self.fixed), len(self.fixed))

    @property
    def nnz(self):
        """Stored entries: element blocks plus penalty entries."""
        return self.blocks.size + (0 if self.penalty is None else len(self.penalty.data))

    def __matmul__(self, x):
        xf = np.where(self.fixed, 0.0, x)
        y = np.bincount(
            self.dofs.ravel(), (self.blocks @ xf[self.dofs, None]).ravel(), len(x)
        )
        if self.penalty is not None:
            p = self.penalty
            y += np.bincount(p.row, p.data * xf[p.col], len(x))
        y[self.fixed] = x[self.fixed]
        return y

    def diagonal(self):
        diag = np.bincount(
            self.dofs.ravel(), np.diagonal(self.blocks, axis1=1, axis2=2).ravel(),
            len(self.fixed),
        )
        if self.penalty is not None:
            p = self.penalty
            on = p.row == p.col
            diag += np.bincount(p.row[on], p.data[on], len(diag))
        diag[self.fixed] = 1.0
        return diag

    def toarray(self):
        dense = np.zeros(self.shape)
        np.add.at(dense, (self.dofs[:, :, None], self.dofs[:, None, :]), self.blocks)
        if self.penalty is not None:
            np.add.at(dense, (self.penalty.row, self.penalty.col), self.penalty.data)
        dense[self.fixed] = 0.0
        dense[:, self.fixed] = 0.0
        dense[self.fixed, self.fixed] = 1.0
        return dense


def boundary_fixed_mask(mesh):
    """Mask fixing every domain-boundary node in all components."""
    mask = np.zeros(mesh.dim * mesh.num_nodes, dtype=bool)
    ids = mesh.boundary_node_ids()
    for a in range(mesh.dim):
        mask[a * mesh.num_nodes + ids] = True
    return mask


def fix_nodes(mask, mesh, node_ids):
    """Additionally fix the given nodes in all components."""
    mask = mask.copy()
    ids = np.asarray(node_ids, dtype=int)
    for a in range(mesh.dim):
        mask[a * mesh.num_nodes + ids] = True
    return mask
