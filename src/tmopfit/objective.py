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

The Hessian's sparsity is fixed for a given mesh, penalty, marked set
and mask, so a scatter plan for it is built once and kept on the
ObjectiveConfig: the CSR pattern of the F_mu element blocks and the
penalty_hessian entries without masked rows and columns, plus the fixed
DOFs' diagonal; the slot of every assembled entry (entries in masked
rows or columns go to a dropped slot past the end); and the transpose
permutation of the slots.  Assembly is one bincount into the slots, ones
on the fixed diagonal, and data = (data + data[transpose]) / 2, so H is
exactly symmetric.  Entries that cancel stay as explicit zeros.
"""

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

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
    _plan: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def has_penalty(self):
        return self.penalty is not None and self.marked is not None


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


def value(config, mesh, node_field):
    """(F, F_mu, F_sigma)."""
    wdet = _weights(config, mesh)
    f_mu = 0.0
    for chunk, t in _chunks(config, mesh, node_field):
        vals = metric_values(config.metric_id, t, config.gamma)  # (Q, E_c)
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
    h_sigma = None
    values = local.ravel()
    if config.has_penalty:
        h_sigma = penalty_hessian(
            config.penalty, config.marked, mesh, node_field, config.targets
        )
        values = np.concatenate([values, h_sigma.data])
    plan = _plan(config, mesh, h_sigma)
    data = np.bincount(plan.slots, values, len(plan.indices) + 1)[:-1]
    data[plan.fixed] = 1.0
    data = 0.5 * (data + data[plan.transpose])
    return sp.csr_matrix((data, plan.indices, plan.indptr), shape=(ndof, ndof))


def _plan(config, mesh, h_sigma):
    """_build_plan, kept on the config until the mesh, penalty, marked set
    or mask is another object (none of them is modified in place)."""
    key = (mesh, config.penalty, config.marked, config.fixed_mask)
    if config._plan is None or any(map(operator.is_not, config._plan[0], key)):
        config._plan = (key, _build_plan(config, mesh, h_sigma))
    return config._plan[1]


class _ScatterPlan(NamedTuple):
    indptr: np.ndarray  # CSR pattern of the masked Hessian
    indices: np.ndarray
    slots: np.ndarray  # of local.ravel(), then h_sigma; len(indices) = dropped
    fixed: np.ndarray  # slots of the fixed-DOF diagonal
    transpose: np.ndarray  # slot of (col, row) for each slot (row, col)


def _build_plan(config, mesh, h_sigma):
    ndof = mesh.dim * mesh.num_nodes
    mask = np.zeros(ndof, bool) if config.fixed_mask is None else config.fixed_mask
    dof = np.arange(mesh.dim) * mesh.num_nodes + mesh.connectivity.T[:, :, None]
    # Entry (i, e, a, b, j) of the element blocks: row dof (a, i), column (b, j).
    parts = [(dof[:, :, :, None, None], dof.transpose(1, 2, 0)[None, :, None])]
    if h_sigma is not None:
        parts.append((h_sigma.row.astype(np.int64), h_sigma.col))
    keys = np.concatenate([(rows * ndof + cols).ravel() for rows, cols in parts])
    kept = np.concatenate([~(mask[rows] | mask[cols]).ravel() for rows, cols in parts])
    fixed = np.flatnonzero(mask)
    pattern, inverse = np.unique(
        np.concatenate([keys[kept], fixed * (ndof + 1)]), return_inverse=True
    )
    index = np.int32 if len(pattern) < 2**31 - 1 else np.int64
    slots = np.full(len(keys), len(pattern), dtype=index)
    slots[kept] = inverse[: len(inverse) - len(fixed)]
    row, col = np.divmod(pattern, ndof)
    return _ScatterPlan(
        indptr=np.searchsorted(row, np.arange(ndof + 1)).astype(index),
        indices=col.astype(index),
        slots=slots,
        fixed=inverse[len(inverse) - len(fixed) :],
        transpose=np.searchsorted(pattern, col * ndof + row).astype(index),
    )


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
