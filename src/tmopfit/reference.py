"""Reference elements, nodal bases, and quadrature rules.

Supported geometries: segment, quad, hex (tensor-product Gauss-Lobatto
Lagrange bases) and triangle, tet (total-degree Lagrange bases on
blended Gauss-Lobatto node layouts).  The reference interval is [0, 1];
the reference triangle/tet are the unit right simplices.  Both families
index their nodes on one lattice, tensor_axes(order + 1, dim): tensor
nodes take all of it, simplex nodes and monomial exponents the points of
total degree <= order (_simplex_indices).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

GEOMETRIES = ("segment", "triangle", "quad", "tet", "hex")

GEOMETRY_DIM = {"segment": 1, "triangle": 2, "quad": 2, "tet": 3, "hex": 3}

REFERENCE_MEASURE = {
    "segment": 1.0,
    "quad": 1.0,
    "hex": 1.0,
    "triangle": 0.5,
    "tet": 1.0 / 6.0,
}

_TENSOR = {"segment", "quad", "hex"}

_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)

# Maps from the reference element to the ideally shaped element.
IDEAL_TARGETS = {
    "segment": np.array([[1.0]]),
    "quad": np.eye(2),
    "hex": np.eye(3),
    "triangle": np.array([[1.0, 0.5], [0.0, _SQRT3 / 2.0]]),
    "tet": np.array(
        [
            [1.0, 0.5, 0.5],
            [0.0, _SQRT3 / 2.0, _SQRT3 / 6.0],
            [0.0, 0.0, _SQRT6 / 3.0],
        ]
    ),
}

# Reference vertices, counterclockwise / right-handed.
REFERENCE_VERTICES = {
    "segment": np.array([[0.0], [1.0]]),
    "quad": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "hex": np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ]
    ),
    "tet": np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    ),
}

# Faces as tuples of reference-vertex ids (edges in 2D, endpoints in 1D).
REFERENCE_FACES = {
    "segment": ((0,), (1,)),
    "quad": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "triangle": ((0, 1), (1, 2), (2, 0)),
    "hex": (
        (0, 1, 2, 3),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ),
    "tet": ((0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)),
}


def gauss_lobatto_nodes(n_points):
    """Gauss-Lobatto points on [0, 1].

    The first and last points are 0 and 1; interior points are the roots
    of the derivative of the Legendre polynomial of degree n_points - 1,
    mapped from [-1, 1].

    Parameters
    ----------
    n_points : int
        Number of points, at least 2.

    Returns
    -------
    ndarray, shape (n_points,)
        Increasing, symmetric about 0.5.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 Gauss-Lobatto points, got {n_points}")
    if n_points == 2:
        return np.array([0.0, 1.0])
    coef = np.zeros(n_points)
    coef[-1] = 1.0
    legendre = np.polynomial.legendre.Legendre(coef)
    interior = np.sort(legendre.deriv().roots().real)
    # Enforce exact symmetry; companion-matrix roots are accurate to ~1e-15.
    interior = 0.5 * (interior - interior[::-1])
    pts = np.concatenate(([-1.0], interior, [1.0]))
    return 0.5 * (pts + 1.0)


def gauss_lobatto_rule(n_points):
    """Gauss-Lobatto points and weights on [0, 1]; exact to degree 2n - 3."""
    pts01 = gauss_lobatto_nodes(n_points)
    x = 2.0 * pts01 - 1.0
    coef = np.zeros(n_points)
    coef[-1] = 1.0
    pn = np.polynomial.legendre.Legendre(coef)(x)
    w = 2.0 / (n_points * (n_points - 1) * pn**2)
    return pts01, 0.5 * w


def gauss_legendre_rule(n_points):
    """Gauss-Legendre points and weights on [0, 1]; exact to degree 2n - 1."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi_rule_01(n_points, alpha):
    """Gauss-Jacobi rule on [0, 1] with weight (1 - t)**alpha absorbed.

    Golub-Welsch on [-1, 1] with weight (1 - x)**alpha, alpha > 0: the
    points are the eigenvalues of the Jacobi matrix of the orthonormal
    polynomials p_k, polished by one Newton step on p_n; the weights are
    the Christoffel numbers 1 / sum_{k<n} p_k(x)**2, scaled to the
    integral of the weight.
    """
    k = np.arange(n_points + 1.0)
    t = 2.0 * k + alpha
    diag = -(alpha**2) / (t * (t + 2.0))  # a_k
    off = 2.0 * k[1:] * (k[1:] + alpha) / (t[1:] * np.sqrt(t[1:] ** 2 - 1.0))  # b_k
    jacobi = np.diag(diag[:-1]) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)

    def recurrence(x):
        # b_k p_k = (x - a_{k-1}) p_{k-1} - b_{k-1} p_{k-2}, p_0 = 1:
        # p_n, dp_n/dx and sum_{k<n} p_k**2.
        p_prev, p, dp_prev, dp = np.zeros_like(x), np.ones_like(x), 0.0, 0.0
        squares = np.zeros_like(x)
        for j in range(n_points):
            squares += p * p
            back = off[j - 1] if j else 0.0
            p_prev, p, dp_prev, dp = (
                p,
                ((x - diag[j]) * p - back * p_prev) / off[j],
                dp,
                ((x - diag[j]) * dp + p - back * dp_prev) / off[j],
            )
        return p, dp, squares

    x = np.linalg.eigvalsh(jacobi)
    p, dp, _ = recurrence(x)
    x = x - p / dp
    _, _, squares = recurrence(x)
    return 0.5 * (x + 1.0), 1.0 / ((alpha + 1.0) * squares)


def _lagrange_table(nodes, t, grad=True):
    """Values and derivatives (if grad) of 1D Lagrange cardinal polynomials.

    Uses the expanded product form for the derivative, which is stable
    at and between the interpolation nodes.
    """
    nodes = np.asarray(nodes)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = len(nodes)
    denom = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(denom, 1.0)
    # ratio[p, j, m] = (t_p - x_m) / (x_j - x_m), diagonal slots set to 1
    ratio = (t[:, None, None] - nodes[None, None, :]) / denom[None, :, :]
    idx = np.arange(n)
    ratio[:, idx, idx] = 1.0
    vals = ratio.prod(axis=2)
    if not grad:
        return vals, None
    inv = 1.0 / denom
    np.fill_diagonal(inv, 0.0)
    ders = np.zeros((len(t), n))
    for m in range(n):
        partial = ratio.copy()
        partial[:, :, m] = 1.0
        ders += partial.prod(axis=2) * inv[None, :, m]
    return vals, ders


def _blended_simplex_nodes(order, dim):
    """Interpolation nodes on the unit simplex, one per multi-index of
    _simplex_indices(order, dim).

    Edge nodes sit at exact Gauss-Lobatto positions; face and interior
    nodes are barycentric blends of the 1D layout, so that traces on
    shared faces coincide between neighboring elements.
    """
    g = gauss_lobatto_nodes(order + 1)
    indices = _simplex_indices(order, dim).tolist()
    return np.array([_blend_barycentric((order - sum(a), *a), g)[1:] for a in indices])


def _blend_barycentric(a, g):
    """Blend 1D Gauss-Lobatto positions into simplex barycentrics."""
    nz = [m for m, am in enumerate(a) if am > 0]
    lam = np.zeros(len(a))
    if len(nz) == 1:
        lam[nz[0]] = 1.0
        return lam
    if len(nz) == 2:
        p, q = nz
        lam[p] = g[a[p]]
        lam[q] = g[a[q]]
        # GL symmetry makes these sum to 1 exactly up to round-off.
        lam[nz] /= lam[nz].sum()
        return lam
    gs = [g[a[m]] if m in nz else 0.0 for m in range(len(a))]
    total = sum(gs[m] for m in nz)
    c = len(nz)
    for m in nz:
        lam[m] = (1.0 + c * gs[m] - gs[m] - (total - gs[m])) / c
    lam[list(nz)] /= lam[list(nz)].sum()
    return lam


def tensor_axes(k, dim):
    """Index along each axis, shape (k**dim, dim), of the points of a
    k**dim tensor grid in lexicographic order (first axis fastest)."""
    return np.arange(k**dim)[:, None] // k ** np.arange(dim) % k


def _simplex_indices(order, dim):
    """The rows of tensor_axes(order + 1, dim) with total degree <= order,
    in that order: the exponents of the total-degree monomials and, with
    order - sum prepended, the barycentric multi-indices of the simplex
    lattice."""
    axes = tensor_axes(order + 1, dim)
    return axes[axes.sum(axis=1) <= order]


def _axis_products(values, derivs=None):
    """Products of per-axis factor tables, each (n, m): the values
    prod_a values[a] and, given derivs, gradients whose component a has
    derivs[a] in place of values[a].  Factors multiply in axis order,
    into C-ordered arrays (the tables may be column-major gathers)."""
    vals = np.ones(values[0].shape)
    for v in values:
        vals *= v
    if derivs is None:
        return vals, None
    grads = np.empty(vals.shape + (len(values),))
    for a, g in enumerate(derivs):
        for b, v in enumerate(values):
            if b != a:
                g = g * v
        grads[:, :, a] = g
    return vals, grads


def _eval_monomials(exps, points, grad=True):
    """Monomial values (n, m) and, if grad, gradients (n, m, dim), of the
    exponents exps (n_mono, dim)."""
    max_e = int(exps.max())
    # Power tables per axis: pw[a][:, e] = points[:, a] ** e.
    pw = [np.vander(x, max_e + 1, increasing=True) for x in points.T]
    values = [p[:, e] for p, e in zip(pw, exps.T)]
    if grad:
        derivs = [e * p[:, np.maximum(e - 1, 0)] for p, e in zip(pw, exps.T)]
    return _axis_products(values, derivs if grad else None)


class NodalBasis:
    """Interpolatory Lagrange basis on a reference element.

    Attributes
    ----------
    geometry : str
    order : int
    dim : int
    nodes : ndarray, shape (num_nodes, dim)
        Reference coordinates of the interpolation nodes.
    """

    def __init__(self, geometry, order):
        if geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {geometry!r}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.geometry = geometry
        self.order = order
        self.dim = GEOMETRY_DIM[geometry]
        if geometry in _TENSOR:
            self._nodes_1d = gauss_lobatto_nodes(order + 1)
            self._node_axes = tensor_axes(order + 1, self.dim)
            self.nodes = self._nodes_1d[self._node_axes]
            self._vinv = None
        else:
            self.nodes = _blended_simplex_nodes(order, self.dim)
            self._exponents = _simplex_indices(order, self.dim)
            vand, _ = _eval_monomials(self._exponents, self.nodes, grad=False)
            self._vinv = np.linalg.inv(vand)
        self.num_nodes = len(self.nodes)

    def eval(self, points):
        """Basis values at reference points; shape (n_points, num_nodes)."""
        return self._evaluate(points, grad=False)[0]

    def eval_with_grad(self, points):
        """Basis values and reference gradients at reference points.

        Returns
        -------
        values : ndarray, shape (n_points, num_nodes)
        grads : ndarray, shape (n_points, num_nodes, dim)
        """
        return self._evaluate(points, grad=True)

    def _evaluate(self, points, grad):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.geometry in _TENSOR:
            tabs = [
                _lagrange_table(self._nodes_1d, points[:, a], grad)
                for a in range(self.dim)
            ]
            columns = self._node_axes.T
            values = [v[:, i] for (v, _), i in zip(tabs, columns)]
            derivs = [g[:, i] for (_, g), i in zip(tabs, columns)] if grad else None
            return _axis_products(values, derivs)
        vals, grads = _eval_monomials(self._exponents, points, grad)
        if grad:
            grads = np.einsum("nmd,mj->njd", grads, self._vinv)
        if len(vals) == 1:
            # One row would take numpy's matrix-vector product, which rounds
            # differently; as two rows, a point's values do not depend on
            # the points evaluated with it.
            return (np.repeat(vals, 2, axis=0) @ self._vinv)[:1], grads
        return vals @ self._vinv, grads

    def clamp(self, points):
        """Project reference points, shape (..., dim), onto the reference
        element."""
        p = np.clip(np.asarray(points, dtype=float), 0.0, 1.0)
        if self.geometry not in _TENSOR:
            rows = p.reshape(-1, self.dim)  # a view: edits land in p
            over = rows.sum(axis=1) > 1.0
            # Pull back along the excess, keeping nonnegativity.
            q = rows[over]
            q = np.clip(q - ((q.sum(axis=1) - 1.0) / self.dim)[:, None], 0.0, 1.0)
            s = q.sum(axis=1)
            q[s > 1.0] /= s[s > 1.0, None]
            rows[over] = q
        return p

    @property
    def center(self):
        if self.geometry in _TENSOR:
            return np.full(self.dim, 0.5)
        return np.full(self.dim, 1.0 / (self.dim + 1))


@dataclass(frozen=True)
class ReferenceElement:
    """Reference element: geometry kind, dimension, order, and basis."""

    geometry: str
    dim: int
    order: int
    basis: NodalBasis = field(compare=False, repr=False)

    @property
    def num_nodes(self):
        return self.basis.num_nodes


@lru_cache(maxsize=None)
def reference_element(geometry, order):
    """Shared, immutable reference element for (geometry, order)."""
    basis = NodalBasis(geometry, order)
    return ReferenceElement(geometry, basis.dim, order, basis)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and positive weights on a reference element."""

    geometry: str
    points: np.ndarray
    weights: np.ndarray
    exactness: int

    @property
    def num_points(self):
        return len(self.weights)


@lru_cache(maxsize=None)
def quadrature_for(geometry, order):
    """Quadrature rule with exactness >= 2 * order + 2 per direction.

    Tensor-product Gauss-Lobatto for segment/quad/hex; conical-product
    (Duffy) Gauss-Jacobi rules for triangle/tet.  All weights positive.
    """
    if geometry not in GEOMETRIES:
        raise ValueError(f"unknown geometry {geometry!r}")
    dim = GEOMETRY_DIM[geometry]
    if geometry in _TENSOR:
        n = order + 3  # Gauss-Lobatto exactness 2n - 3 >= 2k + 2
        pts1, wts1 = gauss_lobatto_rule(n)
        axes = tensor_axes(n, dim)
        wts = np.ones(len(axes))
        for i in axes.T:
            wts *= wts1[i]
        return QuadratureRule(geometry, pts1[axes], wts, 2 * n - 3)
    n = order + 2  # Gauss exactness 2n - 1 >= 2k + 2
    u, wu = gauss_legendre_rule(n)
    v, wv = _jacobi_rule_01(n, 1.0)
    # Point a + n b (+ n^2 c) collapses (u_a, v_b, w_c) onto the simplex.
    a, b, *c = tensor_axes(n, dim).T
    if geometry == "triangle":
        pts = np.stack([u[a] * (1.0 - v[b]), v[b]], axis=1)
        return QuadratureRule(geometry, pts, wu[a] * wv[b], 2 * n - 1)
    w, ww = _jacobi_rule_01(n, 2.0)
    c = c[0]
    shrink = 1.0 - w[c]
    pts = np.stack([u[a] * (1.0 - v[b]) * shrink, v[b] * shrink, w[c]], axis=1)
    wts = wu[a] * wv[b] * ww[c]
    return QuadratureRule(geometry, pts, wts, 2 * n - 1)


@lru_cache(maxsize=None)
def quadrature_tables(geometry, order):
    """Basis values (Q, N), reference gradients (Q, N, dim) and the same
    gradients in the ideal-target frame, grad phi W_ideal^{-1} (equal to
    the reference ones where W_ideal = I), at the points of
    quadrature_for(geometry, order); shared and read-only."""
    rule = quadrature_for(geometry, order)
    vals, grads = reference_element(geometry, order).basis.eval_with_grad(rule.points)
    tables = (vals, grads, np.dot(grads, np.linalg.inv(IDEAL_TARGETS[geometry])))
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def face_node_indices(geometry, order):
    """Local node ids lying on each reference face, per REFERENCE_FACES."""
    nodes = reference_element(geometry, order).basis.nodes
    dim = nodes.shape[1]
    out = []
    for face in REFERENCE_FACES[geometry]:
        v = REFERENCE_VERTICES[geometry][list(face)]
        # Cofactor normal: normal_a = det[e_1; ...; e_(d-1); unit_a] over
        # the face's first d - 1 edges, which are independent on every
        # reference face.  (An SVD null vector would do as well, but the
        # first SVD call adds about 1 MiB to a run's peak RSS.)
        edges = v[1:dim] - v[0]
        normal = np.linalg.det([np.vstack([edges, unit]) for unit in np.eye(dim)])
        out.append(np.flatnonzero(np.abs((nodes - v[0]) @ normal) <= 1e-12))
    return tuple(out)


@lru_cache(maxsize=None)
def corner_local_indices(geometry, order):
    """Local node ids of the reference vertices, in vertex order."""
    basis = reference_element(geometry, order).basis
    verts = REFERENCE_VERTICES[geometry]
    ids = []
    for v in verts:
        d = np.linalg.norm(basis.nodes - v[None, :], axis=1)
        ids.append(int(np.argmin(d)))
        if d.min() > 1e-12:
            raise RuntimeError("reference vertex is not an interpolation node")
    return tuple(ids)


