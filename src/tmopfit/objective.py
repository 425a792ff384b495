"""Assembly of the total objective F = F_mu + F_sigma over all nodes.

F_mu integrates the quality metric in target coordinates: the reference
quadrature weights are multiplied by det W.  One kernel serves F, its
gradient and its Hessian: elements are taken in chunks sized by what the
kernel holds per quadrature point (mesh.element_chunks), T = A W^{-1} is
formed for the whole chunk with shape (Q, E_c, d, d), and the metric is
evaluated once per chunk.  The metric's own det T check raises
NonpositiveDeterminantError; only then is det T computed again, to name
the first inverted element.  The kernel works in the ideal-target
frame: with W_e = s_e^(1/d) W_ideal and the shared table G = grad phi
W_ideal^{-1} (reference.quadrature_tables), T = s_e^(-1/d) sum_i x_i (x)
G_i, so each derivative of T adds only the scalar s_e^(-1/d).  The
gradient folds w_q det W_e s_e^(-1/d) into dmu, written in the layout
the GEMM needs, and the Hessian w_q det W_e s_e^(-2/d) into d2mu, in
place; G as B (Q d x N) turns them into element gradients and element
Hessians B^T D_e B, one GEMM per chunk (and pair).
Degrees of freedom flagged in the fixed-node mask are removed from the
gradient and replaced by identity rows/columns in the Hessian.

d2mu comes as its symmetric component pairs (a, c), a <= c: 6 of the 9
in 3D, 3 of 4 in 2D (quality.metric_batch).  The Hessian contracts
them pair by pair, so the per-point products hold d N values of one pair
at a time, and keeps each element matrix as the blocks of those pairs
only, at rows a, columns c: the d diagonal blocks, made exactly
symmetric as 0.5 (B + B^T), in one array and the others in another.  The
block at rows c, columns a is the transpose of a stored one and is never
written, which cuts the storage by a third in 3D and a quarter in 2D.

The Hessian is never assembled into a global matrix (as in the partial
assembly of Camier et al., "Accelerating high-order mesh optimization
using finite element partial assembly on GPUs").  hessian returns an
ElementHessian holding the pair blocks, the element dofs, the penalty's
factors at the marked nodes and the fixed-dof mask.  H x zeroes x on
the fixed dofs, gathers it at the element dofs, applies the diagonal
blocks, the off-diagonal ones and their transposes with three batched
matmuls, and sums them back with one bincount.  It then adds the
penalty's factored product at the marked dofs (one Gram product over the
marked nodes, fitting.PenaltyHessian) and copies x into the fixed rows.
That, and the exact diagonal for the Jacobi preconditioner, is all
MINRES needs.

Besides its element blocks, the Hessian pass holds one element chunk at
a time, released before the next chunk's metric call: its weights (no
(Q, E) table), its d2mu pairs alone (quality.metric_d2 builds neither
values nor dmu) and their per-point products.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonpositiveDeterminantError
from .fitting import penalty_gradient, penalty_hessian, penalty_value
from .mesh import det, element_chunks, quadrature_jacobians
from .quality import PAIRS, metric_batch, metric_d2, metric_values
from .reference import quadrature_for, quadrature_tables

# The component pairs (a, c), a < c, of the off-diagonal blocks, in the
# order of quality.PAIRS.
_UPPER = {d: np.triu_indices(d, 1) for d in (1, 2, 3)}


@dataclass
class ObjectiveConfig:
    """Everything needed to evaluate F: metric, targets, penalty, mask."""

    metric_id: str
    targets: object
    penalty: object = None  # PenaltyConfig or None
    fixed_mask: np.ndarray = None  # bool, length dim * num_nodes; True = fixed


def _chunks(config, mesh, node_field, order):
    """Yield (elements, w_q det W_e s_e^(-order/d) of shape (Q, E_c), metric)
    per element chunk: the metric's values, dmu or d2mu pairs at the given
    order, at T = A W^{-1} of shape (Q, E_c, d, d).  Raises
    NonpositiveDeterminantError naming the first element with det T <= 0.
    The yielded arrays are released before the next chunk is evaluated."""
    grads = quadrature_tables(mesh.geometry, mesh.order)[2]
    size = config.targets.size
    scale = size ** (-1.0 / mesh.dim)
    fold = config.targets.det(mesh.geometry) * size ** (-order / mesh.dim)
    weights = quadrature_for(mesh.geometry, mesh.order).weights
    for chunk in element_chunks(mesh, order):
        t = quadrature_jacobians(mesh, node_field, chunk, grads) * scale[chunk, None, None]
        try:
            if order == 1:
                result = metric_batch(config.metric_id, t, order=1)[1]
            else:
                result = (metric_d2 if order else metric_values)(config.metric_id, t)
        except NonpositiveDeterminantError:
            tau = det(t)
            e = int(np.flatnonzero((tau <= 0.0).any(axis=0))[0])
            raise NonpositiveDeterminantError(
                chunk.start + e, float(tau[:, e].min())
            ) from None
        del t
        yield chunk, np.outer(weights, fold[chunk]), result
        del result


def _gemm_table(mesh):
    """Target-frame gradients G as B^T, shape (N, Q d); column (q, b)."""
    grads = quadrature_tables(mesh.geometry, mesh.order)[2]
    return grads.transpose(1, 0, 2).reshape(mesh.basis.num_nodes, -1)


def value(config, mesh, node_field):
    """(F, F_mu, F_sigma)."""
    f_mu = 0.0
    for _, wdet, vals in _chunks(config, mesh, node_field, 0):  # vals (Q, E_c)
        f_mu += np.vdot(wdet, vals)
    f_sigma = 0.0
    if config.penalty is not None:
        f_sigma = penalty_value(config.penalty, node_field)
    return float(f_mu) + float(f_sigma), float(f_mu), float(f_sigma)


def gradient(config, mesh, node_field):
    """Masked derivative of F with respect to all node coordinates."""
    dim, nnod = mesh.dim, mesh.num_nodes
    bt = _gemm_table(mesh)
    # local[i, e, a] = sum_q sum_b B[(q, b), i] P[q, b, e, a]
    local = np.empty((mesh.basis.num_nodes, mesh.num_elements, dim))
    for chunk, fold, dmu in _chunks(config, mesh, node_field, 1):
        # P[q, b, e, a] = w_q det W_e s_e^(-1/d) dmu[q, e, a, b]
        p = np.empty((len(fold), dim, dmu.shape[1], dim))
        np.multiply(dmu.transpose(0, 3, 1, 2), fold[:, None, :, None], out=p)
        local[:, chunk] = (bt @ p.reshape(bt.shape[1], -1)).reshape(len(bt), -1, dim)
    conn = mesh.connectivity.T  # (N, E), matching local
    grad = np.concatenate(
        [np.bincount(conn.ravel(), local[..., a].ravel(), nnod) for a in range(dim)]
    )
    if config.penalty is not None:
        grad += penalty_gradient(config.penalty, node_field)
    if config.fixed_mask is not None:
        grad[config.fixed_mask] = 0.0
    return grad


def hessian(config, mesh, node_field):
    """Masked symmetric Hessian of F as an ElementHessian."""
    dim, nnod, nw = mesh.dim, mesh.num_nodes, mesh.basis.num_nodes
    ndof = dim * nnod
    grads = quadrature_tables(mesh.geometry, mesh.order)[2]
    grads_t = np.ascontiguousarray(grads.transpose(0, 2, 1))  # (Q, d, N)
    bt = _gemm_table(mesh)
    nq = len(grads_t)
    ia, ic = PAIRS[dim]
    diag = np.empty((dim, mesh.num_elements, nw, nw))
    off = np.empty((len(ia) - dim, mesh.num_elements, nw, nw))
    rest = iter(off)  # the pairs a < c come in _UPPER order
    dest = [diag[a] if a == c else next(rest) for a, c in zip(ia, ic)]
    for chunk, fold, d2 in _chunks(config, mesh, node_field, 2):
        ne = d2.shape[1]
        # D[q, e, p, b', c'] = w_q det W_e s_e^(-2/d) d2[q, e, p, b', c'],
        # folded in place: d2 is this chunk's own array.
        d2 *= fold[..., None, None, None]
        x = np.empty((nq, dim, ne, nw))  # x[q, b', e, j] of one pair
        for p, (a, c) in enumerate(zip(ia, ic)):
            # One small matmul per point, then one GEMM over (q, b') gives
            # block[e, i, j] of pair p: rows a, columns c.
            np.matmul(d2[:, :, p].transpose(0, 2, 1, 3), grads_t[:, None], out=x)
            block = (bt @ x.reshape(bt.shape[1], -1)).reshape(nw, ne, nw).transpose(1, 0, 2)
            local = dest[p][chunk]
            if a == c:
                np.add(block, block.transpose(0, 2, 1), out=local)
                local *= 0.5
            else:
                local[...] = block
        del fold, d2, x, block  # before the next chunk's metric call
    dofs = np.arange(dim)[:, None, None] * nnod + mesh.connectivity  # (d, E, N)
    h_sigma = None
    if config.penalty is not None:
        h_sigma = penalty_hessian(config.penalty, node_field)
    fixed = np.zeros(ndof, bool) if config.fixed_mask is None else config.fixed_mask
    return ElementHessian(diag, off, dofs, h_sigma, fixed)


class ElementHessian(NamedTuple):
    """H = sum_e B_e^T D_e B_e + H_sigma, never assembled, with the fixed
    dofs' rows and columns replaced by identity ones.

    Element e's matrix is stored once per symmetric pair of components:
    diag[a, e] is its block at rows and columns of component a, and
    off[p, e] its block at rows of component a, columns of component c,
    for the p-th pair a < c of _UPPER[d].  The block at rows c, columns a
    is off[p, e]^T and is never stored.  These arrays are the largest of
    a solve, E d (d + 1) / 2 N^2 doubles.  solver.solve keeps one
    ElementHessian at a time, freed when its Newton step returns.

    The fitting term H_sigma is kept in factored form at the marked
    nodes (fitting.PenaltyHessian) and applied through the marked-node
    Gram form, never expanded into entries.
    """

    diag: np.ndarray  # (d, E, N, N), each block exactly symmetric
    off: np.ndarray  # (d (d - 1) / 2, E, N, N)
    dofs: np.ndarray  # (d, E, N): global dof a * num_nodes + node
    penalty: object  # fitting.PenaltyHessian or None
    fixed: np.ndarray  # bool, one per dof

    @property
    def shape(self):
        return (len(self.fixed), len(self.fixed))

    @property
    def nnz(self):
        """Stored values: the element block entries, plus the penalty's
        Gram entries and its factor entries at the marked nodes."""
        blocks = self.diag.size + self.off.size
        p = self.penalty
        return blocks + (0 if p is None else p.gram.data.size + p.factors.size)

    def __matmul__(self, x):
        xf = np.where(self.fixed, 0.0, x)
        xe = xf[self.dofs]  # (d, E, N)
        d = len(xe)
        ia, ic = _UPPER[d]
        m = len(ia)
        # Element products: diag x_a to rows a, then off x_c to rows a and
        # off^T x_a (as x_a^T off) to rows c, folded into their rows
        # before the one bincount.
        y = np.empty((d + 2 * m,) + xe.shape[1:])
        np.matmul(self.diag, xe[..., None], out=y[:d, ..., None])
        np.matmul(self.off, xe[ic, ..., None], out=y[d : d + m, ..., None])
        np.matmul(xe[ia, :, None], self.off, out=y[d + m :, :, None])
        for p, (a, c) in enumerate(zip(ia, ic)):
            y[a] += y[d + p]
            y[c] += y[d + m + p]
        y = np.bincount(self.dofs.ravel(), y[:d].ravel(), len(x))
        if self.penalty is not None:
            dofs = self.penalty.dofs
            y[dofs] += self.penalty.apply(xf[dofs])
        y[self.fixed] = x[self.fixed]
        return y

    def diagonal(self):
        diag = np.bincount(
            self.dofs.ravel(), np.diagonal(self.diag, axis1=2, axis2=3).ravel(),
            len(self.fixed),
        )
        if self.penalty is not None:
            diag[self.penalty.dofs] += self.penalty.diagonal()
        diag[self.fixed] = 1.0
        return diag

    def toarray(self):
        dense = np.zeros(self.shape)
        dofs = self.dofs[..., None]
        np.add.at(dense, (dofs, dofs.swapaxes(-1, -2)), self.diag)
        ia, ic = _UPPER[len(dofs)]
        np.add.at(dense, (dofs[ia], dofs[ic].swapaxes(-1, -2)), self.off)
        np.add.at(dense, (dofs[ic], dofs[ia].swapaxes(-1, -2)), self.off.swapaxes(-1, -2))
        if self.penalty is not None:
            dense += self.penalty.toarray(len(dense))
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
