"""Assembly of the total objective F = F_mu + F_sigma over all nodes.

F_mu integrates the quality metric in target coordinates: the reference
quadrature weights are multiplied by det W.  One kernel serves F, its
gradient and its Hessian: elements are taken in chunks of about
mesh._CHUNK_POINTS quadrature points, T = A W^{-1} is formed for the
whole chunk with shape (Q, E_c, d, d), and the metric is evaluated once
per chunk.  W^{-1} and the weights w det W are folded into the metric
derivatives, so the reference-gradient table B (Q d x N, the same for
every element) turns them into element gradients and element Hessians
B^T D_e B with one GEMM per chunk.  Degrees of freedom flagged in the
fixed-node mask are removed from the gradient and replaced by identity
rows/columns in the Hessian.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NonpositiveDeterminantError
from .fitting import penalty_gradient, penalty_hessian, penalty_value
from .mesh import element_chunks, quadrature_jacobians
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


@dataclass
class ObjectiveReport:
    """Objective breakdown at one mesh configuration."""

    f: float
    f_mu: float
    f_sigma: float
    grad_norm: float
    worst_mu: float


def _chunks(config, mesh, node_field):
    """Yield (elements, T) per element chunk, T = A W^{-1} of shape
    (Q, E_c, d, d); raises NonpositiveDeterminantError naming the first
    element with det T <= 0."""
    winv = config.targets.winv
    for chunk in element_chunks(mesh):
        t = quadrature_jacobians(mesh, node_field, chunk) @ winv[chunk]
        tau = np.linalg.det(t)
        bad = np.flatnonzero((tau <= 0.0).any(axis=0))
        if len(bad):
            e = int(bad[0])
            raise NonpositiveDeterminantError(chunk.start + e, float(tau[:, e].min()))
        yield chunk, t


def _weights(config, mesh):
    """w_q det W_e, shape (Q, E)."""
    weights = quadrature_for(mesh.geometry, mesh.order).weights
    return np.outer(weights, config.targets.detw)


def _gemm_table(mesh):
    """Reference gradients as B^T, shape (N, Q d); column (q, b)."""
    _, ref_grads = quadrature_tables(mesh.geometry, mesh.order)
    return ref_grads.transpose(1, 0, 2).reshape(mesh.basis.num_nodes, -1)


def value(config, mesh, node_field, with_worst=False):
    """(F, F_mu, F_sigma) and optionally the worst metric value."""
    wdet = _weights(config, mesh)
    f_mu = 0.0
    worst = 0.0
    for chunk, t in _chunks(config, mesh, node_field):
        vals = metric_values(config.metric_id, t, config.gamma)  # (Q, E_c)
        f_mu += np.vdot(wdet[:, chunk], vals)
        worst = max(worst, float(vals.max()))
    f_sigma = 0.0
    if config.has_penalty:
        f_sigma = penalty_value(
            config.penalty, config.marked, mesh, node_field, config.targets
        )
    total = float(f_mu) + float(f_sigma)
    if with_worst:
        return total, float(f_mu), float(f_sigma), worst
    return total, float(f_mu), float(f_sigma)


def evaluate(config, mesh, node_field):
    """Full ObjectiveReport including the masked gradient norm."""
    total, f_mu, f_sigma, worst = value(config, mesh, node_field, with_worst=True)
    grad = gradient(config, mesh, node_field)
    return ObjectiveReport(total, f_mu, f_sigma, float(np.linalg.norm(grad)), worst)


def gradient(config, mesh, node_field):
    """Masked derivative of F with respect to all node coordinates."""
    dim, nnod = mesh.dim, mesh.num_nodes
    wdet = _weights(config, mesh)
    winv = config.targets.winv
    bt = _gemm_table(mesh)
    # local[i, e, a] = sum_q sum_b' B[(q, b'), i] P[q, b', e, a]
    local = np.empty((mesh.basis.num_nodes, mesh.num_elements, dim))
    for chunk, t in _chunks(config, mesh, node_field):
        _, dmu, _ = metric_batch(config.metric_id, t, config.gamma, order=1)
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
    """Masked sparse symmetric Hessian of F."""
    dim, nnod, nw = mesh.dim, mesh.num_nodes, mesh.basis.num_nodes
    ndof = dim * nnod
    wdet = _weights(config, mesh)
    winv = config.targets.winv
    _, ref_grads = quadrature_tables(mesh.geometry, mesh.order)
    grads_t = ref_grads.transpose(0, 2, 1)  # (Q, d, N)
    bt = _gemm_table(mesh)
    nq = len(grads_t)
    # Element blocks B^T D_e B as local[i, e, a, b, j], row dof (a, i),
    # column dof (b, j).
    local = np.empty((nw, mesh.num_elements, dim, dim, nw))
    for chunk, t in _chunks(config, mesh, node_field):
        _, _, d2mu = metric_batch(config.metric_id, t, config.gamma)
        ne = len(d2mu[0])
        # D[q, b', e, a, b, c'] = w_q det W_e
        #   sum_{c, f} W^{-1}[e, b', c] d2mu[q, e, a, c, b, f] W^{-1}[e, c', f]
        wd = d2mu * wdet[:, chunk, None, None, None, None]
        wd = wd.reshape(nq, ne, -1, dim) @ winv[chunk].transpose(0, 2, 1)
        wd = winv[chunk][None, :, None] @ wd.reshape(nq, ne, dim, dim, -1)
        dd = wd.reshape(nq, ne, dim, dim, dim, dim).transpose(0, 3, 1, 2, 4, 5)
        # One small matmul per point, then one GEMM over (q, b').
        x = dd.reshape(nq, -1, dim) @ grads_t  # (Q, b' e a b, N)
        block = bt @ x.reshape(bt.shape[1], -1)  # (N, e a b N)
        local[:, chunk] = block.reshape(nw, -1, dim, dim, nw)
    dof = np.arange(dim) * nnod + mesh.connectivity.T[:, :, None]  # (N, E, d)
    rows = np.broadcast_to(dof[:, :, :, None, None], local.shape)
    cols = np.broadcast_to(dof.transpose(1, 2, 0)[None, :, None], local.shape)
    h = sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(ndof, ndof)
    ).tocsr()
    if config.has_penalty:
        h = h + penalty_hessian(
            config.penalty, config.marked, mesh, node_field, config.targets
        )
    h = 0.5 * (h + h.T)
    if config.fixed_mask is not None:
        h = _mask_hessian(h, config.fixed_mask)
    return h


def _mask_hessian(h, mask):
    """Replace masked rows/columns by identity."""
    fixed = np.flatnonzero(mask)
    if len(fixed) == 0:
        return h
    h = h.tocoo()
    keep = ~(mask[h.row] | mask[h.col])
    rows = np.concatenate([h.row[keep], fixed])
    cols = np.concatenate([h.col[keep], fixed])
    vals = np.concatenate([h.data[keep], np.ones(len(fixed))])
    return sp.coo_matrix((vals, (rows, cols)), shape=h.shape).tocsr()


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
