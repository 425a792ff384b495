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
ObjectiveConfig: the CSR pattern of the Hessian, which is the node
adjacency of the elements expanded by d x d blocks, without entries in
masked rows and columns but with every diagonal entry (the penalty
couples only nodes of a common element, so its entries lie inside this
pattern); the slot of every assembled entry (entries in masked rows or
columns go to a dropped slot past the end); and the transpose
permutation of the slots.  Assembly is one bincount into the slots, ones
on the fixed diagonal, and data = (data + data[transpose]) / 2, so H is
exactly symmetric.  Entries that cancel stay as explicit zeros.
"""

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    """Masked symmetric Hessian of F as a CSRMatrix."""
    dim, nnod, nw = mesh.dim, mesh.num_nodes, mesh.basis.num_nodes
    ndof = dim * nnod
    wdet = _weights(config, mesh)
    winv = config.targets.winv
    _, ref_grads = quadrature_tables(mesh.geometry, mesh.order)
    grads_t = ref_grads.transpose(0, 2, 1)  # (Q, d, N)
    bt = _gemm_table(mesh)
    nq = len(grads_t)
    h_sigma = None
    if config.has_penalty:
        h_sigma = penalty_hessian(
            config.penalty, config.marked, mesh, node_field, config.targets
        )
    # Built before the element blocks, so that its set-up does not add to
    # their memory.
    plan = _plan(config, mesh, h_sigma)
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
    values = local.ravel()
    if h_sigma is not None:
        values = np.concatenate([values, h_sigma.data])
    data = np.bincount(plan.slots, values, len(plan.indices) + 1)[:-1]
    data[plan.fixed] = 1.0
    data = 0.5 * (data + data[plan.transpose])
    return CSRMatrix(plan.indptr, plan.indices, data, (ndof, ndof))


class CSRMatrix(NamedTuple):
    """Square sparse matrix in CSR form whose every row stores at least
    one entry (the Hessian stores its whole diagonal), as the row-wise
    reductions below require."""

    indptr: np.ndarray  # intp
    indices: np.ndarray  # intp, ascending within each row
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)

    def __matmul__(self, x):
        return np.add.reduceat(self.data * x[self.indices], self.indptr[:-1])

    def abs_row_sums(self):
        """sum_j |a_ij| for every row i."""
        return np.add.reduceat(np.abs(self.data), self.indptr[:-1])

    def toarray(self):
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


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
    dim, nnod = mesh.dim, mesh.num_nodes
    ndof = dim * nnod
    mask = np.zeros(ndof, bool) if config.fixed_mask is None else config.fixed_mask
    conn = mesh.connectivity
    # Node pairs (i, j) of a common element, and (i, i) for every node so
    # that every row holds its diagonal, ascending in i * nnod + j;
    # pair[e, i, j] is the pair of element e's local nodes i and j,
    # diagonal[i] the pair (i, i), and node i's pairs are
    # first[i]:first[i + 1].
    shape = conn.shape + conn.shape[1:]
    pairs, pair = np.unique(
        np.concatenate([(conn[:, :, None] * nnod + conn[:, None, :]).ravel(),
                        np.arange(nnod) * (nnod + 1)]),
        return_inverse=True,
    )
    pair, diagonal = pair[: np.prod(shape)].reshape(shape), pair[np.prod(shape) :]
    npairs, (pi, pj) = len(pairs), np.divmod(pairs, nnod)
    first = np.searchsorted(pi, np.arange(nnod + 1))
    deg = np.diff(first)
    # The unmasked pattern is the pairs expanded by d x d: rows (a, i) in
    # order, each holding its columns (b, j) b-major, so entry
    # ((a, i), (b, j)) of pair p sits at offset[p, a, b].
    ar = np.arange(dim)
    within = (dim - 1) * first[pi] + np.arange(npairs)  # d first[i] + p - first[i]
    block = within[:, None] + deg[pi][:, None] * ar  # (p, b) in row block a = 0
    offset = block[:, None, :] + dim * npairs * ar[:, None]  # (p, a, b)
    # Pair p and column dof of each entry of row block a = 0, in order.
    p_at, b_at = np.empty(dim * npairs, np.intp), np.empty(dim * npairs, np.intp)
    p_at[block] = np.arange(npairs)[:, None]
    b_at[block] = ar
    col = b_at * nnod + pj[p_at]
    # Masked entries off the diagonal are dropped from the pattern, and
    # assembled entries in masked rows or columns go to the dropped slot;
    # both are (a, entry of row block a).
    free = ~(mask.reshape(dim, nnod)[:, pi[p_at]] | mask[col])
    keep = free | ((ar[:, None] == b_at) & (pi == pj)[p_at])
    index = np.int32 if keep.size < 2**31 - 1 else np.int64
    renumber = np.cumsum(keep, dtype=index) - 1
    dropped = renumber[-1] + 1
    slot = np.where(free.ravel(), renumber, dropped)[offset]  # (p, a, b)
    # Entry (i, e, a, b, j) of the element blocks: row dof (a, i), column (b, j).
    parts = [slot[pair.transpose(1, 0, 2)].transpose(0, 1, 3, 4, 2).ravel()]
    if h_sigma is not None:
        (ha, hi), (hb, hj) = np.divmod(h_sigma.row, nnod), np.divmod(h_sigma.col, nnod)
        parts.append(slot[np.searchsorted(pairs, hi * nnod + hj), ha, hb])
    transposed = np.empty(npairs, np.intp)
    transposed[pair] = pair.transpose(0, 2, 1)
    transposed[diagonal] = diagonal
    fa, fi = np.divmod(np.flatnonzero(mask), nnod)
    row_starts = (dim * npairs * ar[:, None] + dim * first[:-1]).ravel()
    return _ScatterPlan(
        indptr=np.concatenate([[0], np.cumsum(np.add.reduceat(keep.ravel(), row_starts))]),
        indices=np.broadcast_to(col, keep.shape)[keep],
        slots=np.concatenate(parts),
        fixed=renumber[offset[diagonal[fi], fa, fa]],
        transpose=renumber[offset[transposed[p_at], b_at, ar[:, None]][keep]],
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
