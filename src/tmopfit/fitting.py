"""Weak surface-fitting penalty and interface-node marking.

The penalty integrates the squared restricted level-set function over
the target elements,

    F_sigma = (weight / normalization) * sum_E int sbar(x)^2 det(W),

where sbar keeps the sigma coefficients only at marked nodes.  The
quadrature points and W are fixed, so F_sigma is a fixed quadratic form
in the values s_i = sigma(x_i) sampled at the marked nodes.  With the
marked-node Gram matrix M_ij = sum_E int phi_i phi_j det(W) (i, j
marked), c = weight / normalization, and g_ia, H_i,ab the gradient and
Hessian of sigma sampled at node i:

    F_sigma = c s^T M s,
    dF_sigma / dx_(a,i) = 2 c (M s)_i g_ia,
    d2F_sigma / dx_(a,i) dx_(b,j) = 2 c [g_ia M_ij g_jb + delta_ij (M s)_i H_i,ab].

M depends only on the connectivity, the marked set and det W, so
make_penalty builds M once and keeps it on the PenaltyConfig, next to
the marked set.  The sampled sigma is the penalty's source: an analytic
level set, or an FE field on the initial mesh read by point location
(transfer.DiscreteLevelSet, the paper's discrete sigma).

The Hessian is never expanded into entries.  With c folded in as
G_i = sqrt(2c) g_i and K_i = 2c (M s)_i H_i, it is applied in factored
form,

    (H_sigma x)_i = G_i (M u)_i + K_i x_i,   u_j = G_j . x_j,

one Gram product over the m marked nodes (PenaltyHessian.apply), where
the d x d blocks of every Gram entry would store and touch d^2 times as
many values as M.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyMarkedSetError
from .reference import REFERENCE_FACES, REFERENCE_MEASURE, quadrature_for, quadrature_tables


def _sorted_unique(x):
    """np.unique(x) by one sort; a plain np.unique imports numpy.ma."""
    x = np.sort(np.ravel(x))
    keep = np.ones(len(x), bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


@dataclass
class MarkedSet:
    """Sorted unique node ids weakly constrained to the zero level set."""

    indices: np.ndarray

    def __post_init__(self):
        self.indices = _sorted_unique(np.asarray(self.indices, dtype=int))
        if len(self.indices) == 0:
            raise EmptyMarkedSetError("marked set is empty")

    def __len__(self):
        return len(self.indices)


def mark_interface_nodes(mesh, mode, sigma=None):
    """Select the nodes to constrain onto the zero level set.

    mode "element-attribute": all nodes on faces shared by elements with
    differing attributes (tangential-relaxation case, where the marked
    set is known by definition).  mode "sigma-sign": element attributes
    are first assigned from the sign of sigma at each element's
    reference center, then the attribute rule applies (fitting case).
    """
    if mode == "sigma-sign":
        if sigma is None:
            raise ValueError("sigma-sign marking needs a sigma field")
        attrs = attributes_from_sign(mesh, sigma)
    elif mode == "element-attribute":
        attrs = mesh.attributes
        if len(_sorted_unique(attrs)) < 2:
            raise EmptyMarkedSetError(
                "attribute marking needs at least two element attributes"
            )
    else:
        raise ValueError(f"unknown marking mode {mode!r}")

    shared = mesh.face_incidence()[1]
    elements = shared // len(REFERENCE_FACES[mesh.geometry])
    interface = shared[attrs[elements[:, 0]] != attrs[elements[:, 1]], 0]
    if len(interface) == 0:
        raise EmptyMarkedSetError("no interface faces between differing attributes")
    return MarkedSet(mesh.face_nodes()[interface])


def attributes_from_sign(mesh, sigma):
    """Per-element attribute 1/2 from the sign of sigma at the center."""
    center_vals = mesh.basis.eval(mesh.basis.center[None, :])[0]
    values = np.einsum("en,n->e", sigma.coefficients[mesh.connectivity], center_vals)
    return np.where(values < 0.0, 1, 2)


# ---------------------------------------------------------------------------
# Penalty configuration and evaluation


@dataclass
class PenaltyConfig:
    """The fitting term: weight, level-set source, normalization, the
    marked nodes it samples and their Gram form M.

    normalization is N_E for shape-only targets and the domain volume
    for volumetric targets, which keeps the penalty invariant under mesh
    refinement and domain scaling.  gram depends only on the mesh, the
    marked set and the targets, so dataclasses.replace with a new weight
    shares it.
    """

    weight: float
    source: object
    normalization: float
    marked: MarkedSet
    gram: object  # _GramForm

    def __post_init__(self):
        if not 0.0 <= self.weight < math.inf:
            raise ValueError("penalty weight must be finite and nonnegative")
        if not 0.0 < self.normalization < math.inf:
            raise ValueError("normalization must be finite and positive")


def make_penalty(weight, source, mesh, targets, marked):
    """PenaltyConfig on the marked nodes, with the normalization implied
    by the target kind and the Gram form of (mesh, marked, targets).

    source is the level set sampled at the marked nodes: an
    AnalyticLevelSet, or the paper's discrete sigma as a
    transfer.DiscreteLevelSet on the initial mesh.  Either gives values,
    gradients and Hessians at physical points.
    """
    if targets.volumetric:  # the total target volume
        normalization = float(targets.size.sum()) * REFERENCE_MEASURE[mesh.geometry]
    else:
        normalization = float(mesh.num_elements)
    return PenaltyConfig(
        weight=weight,
        source=source,
        normalization=normalization,
        marked=marked,
        gram=_build_gram(mesh, marked, targets),
    )


class _GramForm(NamedTuple):
    row: np.ndarray  # M in marked numbering: entries k = (row, col, data),
    col: np.ndarray  # sorted by row, then col
    data: np.ndarray
    diag: np.ndarray  # the k with row == col

    def __matmul__(self, s):
        return np.bincount(self.row, self.data * s[self.col], len(s))


class PenaltyHessian(NamedTuple):
    """H_sigma = 2c [g_i M_ij g_j^T + delta_ij (M s)_i H_i] in factored
    form at the m marked nodes i, with c folded into the factors
    G_i = sqrt(2c) g_i and K_i = 2c (M s)_i H_i:
    H_sigma = G_i M_ij G_j^T + delta_ij K_i.

    The factors are stacked points last, factors[a, b, i] = K_i,ab for
    a < d and factors[d, b, i] = G_i,b, so that one broadcast product
    with x_i gives both K_i x_i and u_i = G_i . x_i."""

    dofs: np.ndarray  # (d, m): global dof a * num_nodes + node of marked node i
    factors: np.ndarray  # (d + 1, d, m); each K_i symmetric
    gram: _GramForm

    def apply(self, x):
        """Product with a vector sliced at the marked dofs, x[dofs] (d, m):
        K_i x_i + G_i (M u)_i."""
        z = (self.factors * x).sum(axis=1)
        y = z[:-1]
        y += self.factors[-1] * (self.gram @ z[-1])
        return y

    def diagonal(self):
        """(d, m) diagonal at the marked dofs: G_ia^2 M_ii + K_i,aa."""
        g, a = self.factors[-1], np.arange(len(self.dofs))
        return g * g * self.gram.data[self.gram.diag] + self.factors[a, a]

    def toarray(self, n):
        """Dense (n, n) H_sigma over all n dofs (ElementHessian.toarray)."""
        (row, col, data, on), dofs = self.gram, self.dofs.T
        g, k = self.factors[-1].T, self.factors[:-1].transpose(2, 0, 1)
        blocks = g[row, :, None] * g[col, None, :] * data[:, None, None]
        blocks[on] += k
        dense = np.zeros((n, n))
        dense[dofs[row, :, None], dofs[col, None, :]] = blocks  # each entry once
        return dense


def _build_gram(mesh, marked, targets):
    m, nnod = len(marked), mesh.num_nodes
    vals = quadrature_tables(mesh.geometry, mesh.order)[0]
    weights = quadrature_for(mesh.geometry, mesh.order).weights
    ref = np.einsum("q,qi,qj->ij", weights, vals, vals)
    ref = 0.5 * (ref + ref.T)  # exactly symmetric, and so is M
    local = np.full(nnod, -1)
    local[marked.indices] = np.arange(m)
    lm = local[mesh.connectivity]  # (E, N); -1 where unmarked
    e, i, j = np.nonzero((lm[:, :, None] >= 0) & (lm[:, None, :] >= 0))
    keys, slot = np.unique(lm[e, i] * m + lm[e, j], return_inverse=True)
    row, col = np.divmod(keys, m)
    data = np.bincount(slot, targets.det(mesh.geometry)[e] * ref[i, j])
    return _GramForm(row, col, data, np.flatnonzero(row == col))


def penalty_value(penalty, node_field):
    """F_sigma = c s^T M s at the current node positions.

    Marked coefficients are sampled from the level-set source at the
    current marked-node positions, so the value is consistent with the
    gradient under node motion.
    """
    if penalty.weight == 0.0:
        return 0.0
    s = penalty.source.values(node_field.as_matrix()[penalty.marked.indices])
    return penalty.weight / penalty.normalization * float(s @ (penalty.gram @ s))


def penalty_gradient(penalty, node_field):
    """Derivative of F_sigma with respect to all node coordinates.

    Entry (a, i) is nonzero only for marked nodes i: 2 c (M s)_i g_ia.
    """
    grad = np.zeros(node_field.dim * node_field.num_nodes)
    if penalty.weight == 0.0:
        return grad
    ids = penalty.marked.indices
    pts = node_field.as_matrix()[ids]
    svals, sgrads = penalty.source.values(pts), penalty.source.gradients(pts)
    coeff = 2.0 * penalty.weight / penalty.normalization
    moments = penalty.gram @ svals
    grad.reshape(node_field.dim, -1)[:, ids] = (coeff * moments[:, None] * sgrads).T
    return grad


def penalty_hessian(penalty, node_field):
    """Second derivative of F_sigma as a PenaltyHessian: the factors
    2c (M s)_i H_i and sqrt(2c) g_i at the marked nodes, and M."""
    gram, ids = penalty.gram, penalty.marked.indices
    dim = node_field.dim
    dofs = np.arange(dim)[:, None] * node_field.num_nodes + ids
    factors = np.zeros((dim + 1, dim, len(ids)))
    if penalty.weight == 0.0:
        return PenaltyHessian(dofs, factors, gram)
    pts = node_field.as_matrix()[ids]
    svals, sgrads = penalty.source.values(pts), penalty.source.gradients(pts)
    coeff = 2.0 * penalty.weight / penalty.normalization
    hess = (coeff * (gram @ svals))[:, None, None] * penalty.source.hessians(pts)
    factors[:-1] = hess.transpose(1, 2, 0)
    factors[-1] = math.sqrt(coeff) * sgrads.T
    return PenaltyHessian(dofs, factors, gram)
