"""Assembly of the total objective F = F_mu + F_sigma over all nodes.

F_mu integrates the quality metric in target coordinates: the reference
quadrature weights are multiplied by det W.  One kernel serves F, its
gradient and its Hessian: elements are taken in chunks of about
mesh._CHUNK_POINTS quadrature points, T = A W^{-1} is formed for the
whole chunk with shape (Q, E_c, d, d), det T is checked with the
closed-form mesh.det_inv, and the metric is evaluated once per chunk.
dmu and d2mu arrive as points-first views of the points-last arrays of
quality's jets; the first product with each reads through the view and
writes the layout the next step needs.  W^{-1} and the weights w det W
are folded into the metric derivatives (for the Hessian, one GEMM per
element over the two contracted indices of T), so the reference-gradient
table B (Q d x N, the same for every element) turns them into element
gradients and element Hessians B^T D_e B with one GEMM per chunk.
Degrees of freedom flagged in the fixed-node mask are removed from the
gradient and replaced by identity rows/columns in the Hessian.

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
        tau, _ = det_inv(t)
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
    # winv2[e, (c, f), (b', c')] = W^{-1}[e, b', c] W^{-1}[e, c', f]
    winv2 = np.einsum("ebc,egf->ecfbg", winv, winv).reshape(-1, dim**2, dim**2)
    # Element blocks B^T D_e B as local[i, e, a, b, j], row dof (a, i),
    # column dof (b, j), then the penalty entries: the values in the order
    # of plan.slots, in one array.
    nsigma = 0 if h_sigma is None else len(h_sigma.data)
    values = np.empty(nw * mesh.num_elements * dim * dim * nw + nsigma)
    local = values[: len(values) - nsigma].reshape(nw, mesh.num_elements, dim, dim, nw)
    for chunk, t in _chunks(config, mesh, node_field):
        _, _, d2mu = metric_batch(config.metric_id, t, config.gamma)
        ne = len(d2mu[0])
        # D[q, b', e, a, b, c'] = w_q det W_e
        #   sum_{c, f} W^{-1}[e, b', c] d2mu[q, e, a, c, b, f] W^{-1}[e, c', f],
        # one GEMM per element over (c, f) with d2mu as (e, q, a, b, c, f).
        wd = d2mu.transpose(1, 0, 2, 4, 3, 5) * wdet[:, chunk].T[:, :, None, None, None, None]
        wd = wd.reshape(ne, -1, dim**2) @ winv2[chunk]
        dd = wd.reshape(ne, nq, dim, dim, dim, dim).transpose(1, 4, 0, 2, 3, 5)
        # One small matmul per point, then one GEMM over (q, b').
        x = dd.reshape(nq, -1, dim) @ grads_t  # (Q, b' e a b, N)
        block = bt @ x.reshape(bt.shape[1], -1)  # (N, e a b N)
        local[:, chunk] = block.reshape(nw, -1, dim, dim, nw)
    if h_sigma is not None:
        values[len(values) - nsigma :] = h_sigma.data
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
    free = ~mask.reshape(dim, nnod)  # free[a, i]: dof (a, i) is free
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
    # A free row (a, i) holds the free columns (b, j) of node i's pairs,
    # b-major, j ascending: colpos[b, p] is the place of column (b, pj[p])
    # in a free row of node pi[p], length[i] the length of that row.  A
    # fixed row holds only its diagonal.
    colfree = free[:, pj]
    seen = np.concatenate([np.zeros((dim, 1), np.intp), np.cumsum(colfree, axis=1)], axis=1)
    count = seen[:, first[1:]] - seen[:, first[:-1]]  # (b, i)
    colpos = (np.cumsum(count, axis=0) - count)[:, pi] + seen[:, :-1] - seen[:, first[pi]]
    length = count.sum(axis=0)
    indptr = np.concatenate([[0], np.cumsum(np.where(free, length, 1))])
    nnz = indptr[-1]
    index = np.int32 if nnz < 2**31 - 1 else np.int64
    rowstart, colpos = indptr[:-1].reshape(dim, nnod).astype(index), colpos.astype(index)

    def slot(a, i, b, p):
        """Slot of entry ((a, i), (b, pj[p])) of pair p, or the dropped slot
        nnz when its row or column is fixed."""
        return np.where(free[a, i] & colfree[b, p], rowstart[a, i] + colpos[b, p], index(nnz))

    # Entry (i, e, a, b, j) of the element blocks: row dof (a, i), column (b, j).
    ar = np.arange(dim)
    slots = [slot(ar[:, None, None], conn.T[:, :, None, None, None], ar[:, None],
                  pair.transpose(1, 0, 2)[:, :, None, None]).ravel()]
    if h_sigma is not None:
        (ha, hi), (hb, hj) = np.divmod(h_sigma.row, nnod), np.divmod(h_sigma.col, nnod)
        slots.append(slot(ha, hi, hb, np.searchsorted(pairs, hi * nnod + hj)))
    transposed = np.empty(npairs, index)
    transposed[pair] = pair.transpose(0, 2, 1)
    transposed[diagonal] = diagonal
    # Column block b and pair p of every entry of a free row (a, i), read
    # from node i's row template: its length[i] places (b, p).  A fixed
    # row's entry reads place 0 (a spare place when there are no free
    # columns at all) and is then set to its diagonal.
    tstart = np.concatenate([[0], np.cumsum(length)])
    template = np.zeros((2, tstart[-1] + 1), index)
    template[:, (tstart[pi] + colpos)[colfree]] = np.nonzero(colfree)
    shift = np.where(free, tstart[:-1], 0) - rowstart
    b, p = template[:, np.arange(nnz, dtype=index) + np.repeat(shift, np.diff(indptr))]
    a = np.repeat(np.arange(dim, dtype=index), np.diff(indptr[::nnod]))
    indices = b * nnod + pj[p]
    transpose = rowstart[b, pj[p]] + colpos[a, transposed[p]]
    fixed = rowstart.ravel()[mask]
    indices[fixed] = np.flatnonzero(mask)
    transpose[fixed] = fixed
    return _ScatterPlan(indptr, indices, np.concatenate(slots), fixed, transpose)


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
