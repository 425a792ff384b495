"""Weak surface-fitting penalty and interface-node marking.

The penalty integrates the squared restricted level-set function over
the target elements,

    F_sigma = (weight / normalization) * sum_E int sbar(x)^2 det(W),

where sbar keeps the sigma coefficients only at marked nodes.  Because
the quadrature lives at fixed reference points and W is fixed, F_sigma
depends on the node positions solely through the sampled values
sigma(x_s) at marked nodes; its derivatives therefore combine the
sampled gradient/Hessian of sigma at those nodes with the fixed basis
tables, and match finite differences of the value to round-off.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EmptyMarkedSetError
from .fields import AnalyticLevelSet, ScalarField, discrete_gradient
from .mesh import element_volumes
from .reference import face_node_indices, quadrature_for, quadrature_tables
from .transfer import build_index, locate_many


@dataclass
class MarkedSet:
    """Sorted unique node ids weakly constrained to the zero level set."""

    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.unique(np.asarray(self.indices, dtype=int))
        if len(self.indices) == 0:
            raise EmptyMarkedSetError("marked set is empty")

    def __len__(self):
        return len(self.indices)

    def __contains__(self, i):
        return bool(np.isin(i, self.indices))


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
        if len(np.unique(attrs)) < 2:
            raise EmptyMarkedSetError(
                "attribute marking needs at least two element attributes"
            )
    else:
        raise ValueError(f"unknown marking mode {mode!r}")

    fni = face_node_indices(mesh.geometry, mesh.order)
    marked = set()
    for key, incident in mesh.face_map().items():
        if len(incident) != 2:
            continue
        (e1, f1), (e2, f2) = incident
        if attrs[e1] != attrs[e2]:
            marked.update(mesh.connectivity[e1][fni[f1]])
    if not marked:
        raise EmptyMarkedSetError("no interface faces between differing attributes")
    return MarkedSet(np.array(sorted(marked)))


def attributes_from_sign(mesh, sigma):
    """Per-element attribute 1/2 from the sign of sigma at the center."""
    center_vals = mesh.basis.eval(mesh.basis.center[None, :])[0]
    values = np.einsum("en,n->e", sigma.coefficients[mesh.connectivity], center_vals)
    return np.where(values < 0.0, 1, 2)


def restrict(sigma, marked):
    """Restricted field: coefficients zeroed outside the marked set."""
    coeff = np.zeros_like(sigma.coefficients)
    coeff[marked.indices] = sigma.coefficients[marked.indices]
    return ScalarField(sigma.mesh, coeff)


# ---------------------------------------------------------------------------
# Level-set sources


class DiscreteLevelSet:
    """Level set given as an FE field on a (frozen) source mesh.

    All queries are located in the source mesh in one batched pass; the
    value and the gradient both come from the containing element's
    polynomial, so the gradient is the exact derivative of the
    interpolated value away from element faces (required for consistent
    line searches).  Second derivatives come from one application of the
    FE discrete gradient operator to sigma, differentiated element-wise.
    """

    def __init__(self, field, node_field):
        self.field = field
        self.node_field = node_field
        self.mesh = field.mesh
        self.dim = field.mesh.dim
        self.index = build_index(field.mesh, node_field)
        self._grad_fields = None
        self._loc_cache = (None, None)

    def _located(self, points):
        # Connectivity, basis values and gradients, and transposed element
        # Jacobians at the located points.  One-slot memo: value/gradient/
        # Hessian queries within a solver iterate repeat the same points.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        key = points.tobytes()
        if self._loc_cache[0] != key:
            loc = locate_many(self.index, self.mesh, self.node_field, points)
            conn = self.mesh.connectivity[loc.element]
            vals, grads = self.mesh.basis.eval_with_grad(loc.ref)
            coords = self.node_field.as_matrix()[conn]
            jac_t = np.einsum("pkb,pkd->pbd", grads, coords)
            self._loc_cache = (key, (conn, vals, grads, jac_t))
        return self._loc_cache[1]

    def values(self, points):
        conn, vals, _, _ = self._located(points)
        return np.einsum("pk,pk->p", vals, self.field.coefficients[conn])

    def gradients(self, points):
        return self._element_gradients(points, [self.field.coefficients])[:, 0]

    def hessians(self, points):
        if self._grad_fields is None:
            self._grad_fields = discrete_gradient(self.field, self.node_field)
        coeffs = [g.coefficients for g in self._grad_fields]
        rows = self._element_gradients(points, coeffs)  # (n, dim, dim)
        return 0.5 * (rows + rows.transpose(0, 2, 1))

    def _element_gradients(self, points, coeffs):
        """Physical gradients (n, len(coeffs), dim) of FE coefficient
        vectors on the located elements, by one batched solve."""
        conn, _, grads, jac_t = self._located(points)
        rhs = np.einsum("pkb,jpk->pbj", grads, np.array(coeffs)[:, conn])
        return np.linalg.solve(jac_t, rhs).transpose(0, 2, 1)


def as_level_set_source(source, node_field=None):
    """Normalize a penalty source: analytic level set or discrete field."""
    if isinstance(source, (AnalyticLevelSet, DiscreteLevelSet)):
        return source
    if isinstance(source, ScalarField):
        if node_field is None:
            raise ValueError("discrete sigma source needs its node field")
        return DiscreteLevelSet(source, node_field)
    raise TypeError(f"unsupported level-set source {type(source).__name__}")


def _sample_source(source, points, with_hessians=False):
    """(values, gradients, hessians-or-None) of a level-set source."""
    hess = source.hessians(points) if with_hessians else None
    return source.values(points), source.gradients(points), hess


# ---------------------------------------------------------------------------
# Penalty configuration and evaluation


@dataclass
class PenaltyConfig:
    """Weight, normalization, and level-set source of the fitting term.

    normalization is N_E for shape-only targets and the domain volume
    for volumetric targets, which keeps the penalty invariant under mesh
    refinement and domain scaling.
    """

    weight: float
    source: object
    normalization: float

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValueError("penalty weight must be nonnegative")
        if self.normalization <= 0.0:
            raise ValueError("normalization must be positive")


def make_penalty(weight, source, mesh, node_field, targets):
    """PenaltyConfig with the normalization implied by the target kind."""
    if targets.volumetric:
        normalization = float(element_volumes(mesh, node_field).sum())
    else:
        normalization = float(mesh.num_elements)
    return PenaltyConfig(
        weight=weight,
        source=as_level_set_source(source, node_field),
        normalization=normalization,
    )


class _PenaltyTables:
    """Per-mesh quadrature tables and marked-element bookkeeping."""

    def __init__(self, mesh, marked, targets):
        # (N_q, N_w)
        self.basis_vals, _ = quadrature_tables(mesh.geometry, mesh.order)
        marked_mask = np.zeros(mesh.num_nodes, dtype=bool)
        marked_mask[marked.indices] = True
        self.elements = []
        for e in range(mesh.num_elements):
            conn = mesh.connectivity[e]
            local = np.flatnonzero(marked_mask[conn])
            if len(local):
                self.elements.append((e, conn, local))
        weights = quadrature_for(mesh.geometry, mesh.order).weights
        self.wdet = weights[None, :] * targets.detw[:, None]


def penalty_value(penalty, marked, mesh, node_field, targets):
    """F_sigma at the current node positions.

    Marked coefficients are sampled from the level-set source at the
    current marked-node positions, so the value is consistent with the
    gradient under node motion.
    """
    if penalty.weight == 0.0:
        return 0.0
    tables = _PenaltyTables(mesh, marked, targets)
    sbar = np.zeros(mesh.num_nodes)
    sbar[marked.indices] = penalty.source.values(
        node_field.as_matrix()[marked.indices]
    )
    total = 0.0
    for e, conn, _ in tables.elements:
        vals_q = tables.basis_vals @ sbar[conn]
        total += tables.wdet[e] @ vals_q**2
    return penalty.weight / penalty.normalization * float(total)


def penalty_gradient(penalty, marked, mesh, node_field, targets):
    """Derivative of F_sigma with respect to all node coordinates.

    Entry (a, i) is nonzero only for marked nodes i: it pairs the
    level-set gradient sampled at the moving node (the motion of the
    sampling point x_s) with the fixed integral weight of that node's
    basis function against sbar.
    """
    grad = np.zeros(mesh.dim * mesh.num_nodes)
    if penalty.weight == 0.0:
        return grad
    tables = _PenaltyTables(mesh, marked, targets)
    pts = node_field.as_matrix()[marked.indices]
    svals, sgrads, _ = _sample_source(penalty.source, pts)
    sbar = np.zeros(mesh.num_nodes)
    sbar[marked.indices] = svals
    gfull = np.zeros((mesh.num_nodes, mesh.dim))
    gfull[marked.indices] = sgrads
    coeff = 2.0 * penalty.weight / penalty.normalization
    for e, conn, local in tables.elements:
        vals_q = tables.basis_vals @ sbar[conn]
        weight_q = tables.wdet[e] * vals_q
        moments = weight_q @ tables.basis_vals[:, local]  # (n_local,)
        for a in range(mesh.dim):
            grad[a * mesh.num_nodes + conn[local]] += (
                coeff * moments * gfull[conn[local], a]
            )
    return grad


def penalty_hessian(penalty, marked, mesh, node_field, targets):
    """Second derivative of F_sigma as a sparse symmetric matrix.

    Combines the product of first-derivative factors with the
    sbar-weighted second derivatives of sigma at the marked nodes.
    """
    ndof = mesh.dim * mesh.num_nodes
    if penalty.weight == 0.0:
        return sp.csr_matrix((ndof, ndof))

    tables = _PenaltyTables(mesh, marked, targets)
    pts = node_field.as_matrix()[marked.indices]
    svals, sgrads, shess = _sample_source(penalty.source, pts, with_hessians=True)
    sbar = np.zeros(mesh.num_nodes)
    sbar[marked.indices] = svals
    gfull = np.zeros((mesh.num_nodes, mesh.dim))
    gfull[marked.indices] = sgrads
    hess_by_node = {int(n): shess[i] for i, n in enumerate(marked.indices)}

    coeff = 2.0 * penalty.weight / penalty.normalization
    rows, cols, vals = [], [], []
    nnod = mesh.num_nodes
    for e, conn, local in tables.elements:
        nodes = conn[local]
        vals_q = tables.basis_vals @ sbar[conn]
        phi = tables.basis_vals[:, local]  # (N_q, n_local)
        mass = (tables.wdet[e][:, None] * phi).T @ phi  # (n_local, n_local)
        moments = (tables.wdet[e] * vals_q) @ phi  # (n_local,)
        g = gfull[nodes]  # (n_local, dim)
        for a in range(mesh.dim):
            for b in range(mesh.dim):
                block = coeff * np.outer(g[:, a], g[:, b]) * mass
                diag = coeff * moments * np.array(
                    [hess_by_node[int(n)][a, b] for n in nodes]
                )
                block[np.arange(len(nodes)), np.arange(len(nodes))] += diag
                rows.append(np.repeat(a * nnod + nodes, len(nodes)))
                cols.append(np.tile(b * nnod + nodes, len(nodes)))
                vals.append(block.ravel())
    if not rows:
        return sp.csr_matrix((ndof, ndof))
    h = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof),
    ).tocsr()
    return 0.5 * (h + h.T)

