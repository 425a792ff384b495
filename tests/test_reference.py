"""Reference elements: Gauss-Lobatto nodes, bases, quadrature."""

import json
import os
import re
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import roots_jacobi

import tmopfit
from tmopfit.reference import (
    GEOMETRIES,
    GEOMETRY_DIM,
    IDEAL_TARGETS,
    REFERENCE_MEASURE,
    NodalBasis,
    gauss_lobatto_nodes,
    gauss_lobatto_rule,
    nodal_basis,
    quadrature_for,
    quadrature_tables,
    face_node_indices,
    gauss_jacobi_rule,
    _eval_monomials,
    _lagrange_table,
)

ORDERS = (1, 2, 3)


def exact_monomial_integral(geometry, exponents):
    """Closed-form integral of x^i y^j z^k over the reference element."""
    from math import factorial

    e = list(exponents)
    if geometry in ("segment", "quad", "hex"):
        out = 1.0
        for a in e:
            out /= a + 1
        return out
    if geometry == "triangle":
        i, j = e
        return factorial(i) * factorial(j) / factorial(i + j + 2)
    i, j, k = e
    return factorial(i) * factorial(j) * factorial(k) / factorial(i + j + k + 3)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("n", range(1, 13))
def test_jacobi_rule_matches_scipy_roots_jacobi(n, alpha):
    x, w = roots_jacobi(n, alpha, 0.0)
    points, weights = gauss_jacobi_rule(n, alpha)
    assert np.abs(points - 0.5 * (x + 1.0)).max() <= 1e-15
    # roots_jacobi's own weights are accurate to about 5e-14 relative.
    assert np.abs(weights / (w / 2.0 ** (alpha + 1)) - 1.0).max() <= 1e-13
    assert np.all(np.diff(points) > 0.0) and np.all(weights > 0.0)


def numpy_gauss_lobatto_rule(n):
    """Gauss-Lobatto rule on [0, 1] from numpy.polynomial (oracle): the
    companion-matrix roots of P'_(n-1), weights 2 / (n (n - 1) P_(n-1)**2)."""
    legendre = np.polynomial.legendre.Legendre.basis(n - 1)
    interior = np.sort(legendre.deriv().roots().real)
    x = np.concatenate(([-1.0], 0.5 * (interior - interior[::-1]), [1.0]))
    return 0.5 * (x + 1.0), 1.0 / (n * (n - 1) * legendre(x) ** 2)


def golub_welsch_jacobi_rule(n, alpha):
    """Gauss-Jacobi rule on [0, 1] for (1 - t)**alpha (oracle): eigvalsh of
    the Jacobi matrix, one Newton step on p_n, Christoffel weights."""
    k = np.arange(n + 1.0)
    t = 2.0 * k + alpha
    diag = -(alpha**2) / (t * (t + 2.0))
    off = 2.0 * k[1:] * (k[1:] + alpha) / (t[1:] * np.sqrt(t[1:] ** 2 - 1.0))

    def recurrence(x):
        p_prev, p, dp_prev, dp, squares = 0.0, np.ones_like(x), 0.0, 0.0, 0.0
        for j in range(n):
            squares = squares + p * p
            back = off[j - 1] if j else 0.0
            p_prev, p, dp_prev, dp = (
                p,
                ((x - diag[j]) * p - back * p_prev) / off[j],
                dp,
                ((x - diag[j]) * dp + p - back * dp_prev) / off[j],
            )
        return p, dp, squares

    x = np.linalg.eigvalsh(np.diag(diag[:-1]) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    p, dp, _ = recurrence(x)
    x = x - p / dp
    return 0.5 * (x + 1.0), 1.0 / ((alpha + 1.0) * recurrence(x)[2])


def numpy_rule(n, alpha, lobatto):
    if lobatto:
        return numpy_gauss_lobatto_rule(n)
    if alpha == 0.0:
        x, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * (x + 1.0), 0.5 * w
    return golub_welsch_jacobi_rule(n, alpha)


RULES = (
    [(n, 0.0, False) for n in range(1, 11)]
    + [(n, alpha, False) for alpha in (1.0, 2.0) for n in range(1, 11)]
    + [(n, 0.0, True) for n in range(2, 11)]
)


@pytest.mark.parametrize("n,alpha,lobatto", RULES)
def test_gauss_rules_within_four_ulp_of_numpy_rules(n, alpha, lobatto):
    points, weights = gauss_lobatto_rule(n) if lobatto else gauss_jacobi_rule(n, alpha)
    want_points, want_weights = numpy_rule(n, alpha, lobatto)
    # A rule on [0, 1] taken from [-1, 1] holds each point to the spacing
    # at its farther end, and each weight to that of the rule's total:
    # numpy's own weights are up to 58 ulp of themselves off near the ends.
    point_ulp = np.spacing(np.maximum(want_points, 1.0 - want_points))
    assert np.all(np.abs(points - want_points) <= 4 * point_ulp)
    assert np.all(np.abs(weights - want_weights) <= 4 * np.spacing(want_weights.sum()))
    assert np.all(np.diff(points) > 0.0) and np.all(weights > 0.0)


@pytest.mark.parametrize("n,alpha,lobatto", RULES)
def test_gauss_rules_exact_on_monomials(n, alpha, lobatto):
    points, weights = gauss_lobatto_rule(n) if lobatto else gauss_jacobi_rule(n, alpha)
    a = int(alpha)
    for k in range(2 * n - (3 if lobatto else 1) + 1):
        # int_0^1 t**k (1 - t)**a dt
        exact = factorial(k) * factorial(a) / factorial(k + a + 1)
        assert abs(weights @ points**k - exact) <= 10 * np.finfo(float).eps * exact


def test_gauss_lobatto_two_and_three_points():
    assert np.allclose(gauss_lobatto_nodes(2), [0.0, 1.0])
    assert np.allclose(gauss_lobatto_nodes(3), [0.0, 0.5, 1.0])


def test_gauss_lobatto_four_points_against_root_finding():
    # Interior points are roots of P3'(x) = (15 x^2 - 3)/2 on (-1, 1).
    root = brentq(lambda x: 7.5 * x**2 - 1.5, 0.0, 1.0, xtol=1e-15)
    expected = np.array([0.0, 0.5 * (1 - root), 0.5 * (1 + root), 1.0])
    got = gauss_lobatto_nodes(4)
    assert np.abs(got - expected).max() < 1e-14
    assert abs(got[1] - (5 - np.sqrt(5)) / 10) < 1e-14


def test_gauss_lobatto_rule_degree_five_exact():
    pts, wts = gauss_lobatto_rule(4)  # exact to degree 2*4 - 3 = 5
    for m in range(6):
        assert abs(wts @ pts**m - 1.0 / (m + 1)) < 1e-14


@pytest.mark.parametrize("n", range(2, 11))
def test_gauss_lobatto_structure(n):
    pts, wts = gauss_lobatto_rule(n)
    assert np.array_equal(gauss_lobatto_nodes(n), pts)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)
    # Exactly symmetric about 0.5, so the blended simplex edge nodes'
    # barycentrics sum to 1.
    assert np.array_equal(1.0 - pts[::-1], pts) and np.array_equal(wts[::-1], wts)


def test_gauss_lobatto_rejects_short_rules():
    with pytest.raises(ValueError):
        gauss_lobatto_nodes(1)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("order", ORDERS)
def test_basis_interpolatory(geometry, order):
    basis = NodalBasis(geometry, order)
    values = basis.eval(basis.nodes)
    assert np.abs(values - np.eye(basis.num_nodes)).max() < 1e-13


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("order", ORDERS)
def test_partition_of_unity_and_gradient_sum(geometry, order):
    basis = NodalBasis(geometry, order)
    rng = np.random.default_rng(7)
    pts = rng.random((100, basis.dim))
    if geometry in ("triangle", "tet"):
        pts *= 0.95 / np.maximum(1.0, pts.sum(axis=1))[:, None]
    values, grads = basis.eval_with_grad(pts)
    assert np.abs(values.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(grads.sum(axis=1)).max() < 1e-12


def test_node_count_matches_polynomial_space():
    for order in ORDERS:
        assert NodalBasis("quad", order).num_nodes == (order + 1) ** 2
        assert NodalBasis("hex", order).num_nodes == (order + 1) ** 3
        assert (
            NodalBasis("triangle", order).num_nodes
            == (order + 1) * (order + 2) // 2
        )
        assert (
            NodalBasis("tet", order).num_nodes
            == (order + 1) * (order + 2) * (order + 3) // 6
        )


def test_eval_basis_order1_quad_at_first_node():
    basis = NodalBasis("quad", 1)
    values, _ = basis.eval_with_grad(basis.nodes[:1])
    assert np.allclose(values, [[1.0, 0.0, 0.0, 0.0]], atol=1e-14)


def test_eval_basis_segment_values_and_gradients():
    basis = NodalBasis("segment", 1)
    values, grads = basis.eval_with_grad([[0.25]])
    assert np.allclose(values, [[0.75, 0.25]], atol=1e-14)
    assert np.allclose(grads.ravel(), [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("order", ORDERS)
def test_quadrature_weights_sum_to_measure(geometry, order):
    rule = quadrature_for(geometry, order)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - REFERENCE_MEASURE[geometry]) < 1e-13


def test_quad_rule_weights_sum_to_one():
    assert abs(quadrature_for("quad", 2).weights.sum() - 1.0) < 1e-13


def test_triangle_rule_weights_sum_to_half():
    assert abs(quadrature_for("triangle", 3).weights.sum() - 0.5) < 1e-13


def test_segment_rule_exact_to_degree_four():
    rule = quadrature_for("segment", 1)
    assert rule.exactness >= 4
    for m in range(5):
        got = rule.weights @ rule.points[:, 0] ** m
        assert abs(got - 1.0 / (m + 1)) < 1e-13


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("order", ORDERS)
def test_quadrature_exactness_on_random_polynomial(geometry, order):
    rule = quadrature_for(geometry, order)
    assert rule.exactness >= 2 * order + 2
    dim = GEOMETRY_DIM[geometry]
    rng = np.random.default_rng(order * 17 + dim)
    # Random polynomial of the stated exactness degree.
    if geometry in ("segment", "quad", "hex"):
        exps = [e for e in np.ndindex(*([rule.exactness + 1] * dim))]
    else:
        exps = [
            e
            for e in np.ndindex(*([rule.exactness + 1] * dim))
            if sum(e) <= rule.exactness
        ]
    coeffs = rng.uniform(-1.0, 1.0, len(exps))
    exact = sum(
        c * exact_monomial_integral(geometry, e) for c, e in zip(coeffs, exps)
    )
    vals = np.zeros(rule.num_points)
    for c, e in zip(coeffs, exps):
        term = np.full(rule.num_points, c)
        for a in range(dim):
            term = term * rule.points[:, a] ** e[a]
        vals += term
    assert abs(rule.weights @ vals - exact) < 1e-12


def test_nodal_basis_cache_and_fields():
    basis = nodal_basis("triangle", 2)
    assert basis is nodal_basis("triangle", 2)
    assert basis.dim == 2 and basis.order == 2 and basis.num_nodes == 6
    assert REFERENCE_MEASURE[basis.geometry] == 0.5


def test_simplex_edge_nodes_are_gauss_lobatto():
    # Edge traces must match the 1D layout so neighboring elements share
    # face nodes exactly.
    basis = NodalBasis("triangle", 3)
    g = gauss_lobatto_nodes(4)
    on_bottom = basis.nodes[np.abs(basis.nodes[:, 1]) < 1e-14][:, 0]
    assert np.allclose(np.sort(on_bottom), g, atol=1e-14)
    tet = NodalBasis("tet", 3)
    edge = tet.nodes[
        (np.abs(tet.nodes[:, 1]) < 1e-14) & (np.abs(tet.nodes[:, 2]) < 1e-14)
    ][:, 0]
    assert np.allclose(np.sort(edge), g, atol=1e-14)


def clamp_one_point(basis, point):
    """One-point projection onto the reference element (reference loop)."""
    p = np.clip(np.asarray(point, dtype=float), 0.0, 1.0)
    if basis.geometry in ("triangle", "tet"):
        s = p.sum()
        if s > 1.0:
            p -= (s - 1.0) / basis.dim
            p = np.clip(p, 0.0, 1.0)
            s = p.sum()
            if s > 1.0:
                p /= s
    return p


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_clamp_batch_matches_one_point_clamp(geometry):
    basis = NodalBasis(geometry, 2)
    rng = np.random.default_rng(41)
    points = rng.uniform(-1.0, 2.0, (500, basis.dim))
    expected = np.array([clamp_one_point(basis, p) for p in points])
    assert np.array_equal(basis.clamp(points), expected)
    assert np.array_equal(basis.clamp(points[7]), expected[7])


def tensor_basis_per_node(basis, points):
    """Values and gradients of a tensor-product basis, node by node, each
    factor multiplied in axis order (reference loop)."""
    tabs = [_lagrange_table(basis._nodes_1d, points[:, a]) for a in range(basis.dim)]
    k1, npts = basis.order + 1, len(points)
    vals = np.ones((npts, basis.num_nodes))
    grads = np.zeros((npts, basis.num_nodes, basis.dim))
    for local in range(basis.num_nodes):
        ijk = [(local // k1**a) % k1 for a in range(basis.dim)]
        v = np.ones(npts)
        for a in range(basis.dim):
            v = v * tabs[a][0][:, ijk[a]]
        vals[:, local] = v
        for a in range(basis.dim):
            g = tabs[a][1][:, ijk[a]].copy()
            for b in range(basis.dim):
                if b != a:
                    g *= tabs[b][0][:, ijk[b]]
            grads[:, local, a] = g
    return vals, grads


@pytest.mark.parametrize("geometry", ["segment", "quad", "hex"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_tensor_basis_matches_per_node_products_exactly(geometry, order):
    basis = NodalBasis(geometry, order)
    rng = np.random.default_rng(order)
    for points in (rng.random((300, basis.dim)), basis.nodes):
        vals, grads = basis.eval_with_grad(points)
        expected_vals, expected_grads = tensor_basis_per_node(basis, points)
        assert np.array_equal(vals, expected_vals)
        assert np.array_equal(grads, expected_grads)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_values_only_eval_matches_eval_with_grad_exactly(geometry, order):
    basis = NodalBasis(geometry, order)
    rng = np.random.default_rng(order + 10)
    for points in (rng.random((300, basis.dim)), basis.nodes, basis.nodes[:1]):
        values = basis.eval(points)
        assert values.flags.c_contiguous
        assert np.array_equal(values, basis.eval_with_grad(points)[0])


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_values_of_a_point_do_not_depend_on_its_batch(geometry):
    basis = NodalBasis(geometry, 3)
    points = np.random.default_rng(5).random((50, basis.dim))
    vals, grads = basis.eval_with_grad(points)
    for i in (0, 17):
        one = points[i : i + 1]
        assert np.array_equal(basis.eval(one), vals[i : i + 1])
        assert np.array_equal(basis.eval_with_grad(one)[0], vals[i : i + 1])
        assert np.array_equal(basis.eval_with_grad(one)[1], grads[i : i + 1])


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_target_frame_table_folds_in_the_ideal_map(geometry):
    vals, grads, target = quadrature_tables(geometry, 2)
    points = quadrature_for(geometry, 2).points
    want_vals, want_grads = nodal_basis(geometry, 2).eval_with_grad(points)
    assert np.array_equal(vals, want_vals) and np.array_equal(grads, want_grads)
    # G W_ideal = grad phi; where W_ideal = I, G is grad phi to the bit.
    w_ideal = IDEAL_TARGETS[geometry]
    assert np.abs(target @ w_ideal - grads).max() < 1e-13
    if np.array_equal(w_ideal, np.eye(len(w_ideal))):
        assert np.array_equal(target, grads)
    assert not any(table.flags.writeable for table in (vals, grads, target))


# Supporting hyperplane (normal, offset) of each reference face, in
# REFERENCE_FACES order, written out: points p on the face satisfy
# normal . p == offset.
FACE_PLANES = {
    "segment": (((1.0,), 0.0), ((1.0,), 1.0)),
    "quad": (((0.0, 1.0), 0.0), ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((1.0, 0.0), 0.0)),
    "triangle": (((0.0, 1.0), 0.0), ((1.0, 1.0), 1.0), ((1.0, 0.0), 0.0)),
    "hex": (
        ((0.0, 0.0, 1.0), 0.0),
        ((0.0, 0.0, 1.0), 1.0),
        ((0.0, 1.0, 0.0), 0.0),
        ((1.0, 0.0, 0.0), 1.0),
        ((0.0, 1.0, 0.0), 1.0),
        ((1.0, 0.0, 0.0), 0.0),
    ),
    "tet": (
        ((0.0, 0.0, 1.0), 0.0),
        ((0.0, 1.0, 0.0), 0.0),
        ((1.0, 1.0, 1.0), 1.0),
        ((1.0, 0.0, 0.0), 0.0),
    ),
}


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_face_nodes_from_face_vertices_match_the_face_planes(geometry, order):
    nodes = nodal_basis(geometry, order).nodes
    want = [
        np.flatnonzero(np.abs(nodes @ np.asarray(normal) - offset) <= 1e-12)
        for normal, offset in FACE_PLANES[geometry]
    ]
    got = face_node_indices(geometry, order)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


_LAPACK_OR_POLYNOMIAL = re.compile(
    r"linalg\.(det|slogdet|inv|pinv|solve|lstsq|eig\w*|svd)\b|polynomial\.|leggauss"
)


def test_source_calls_no_lapack_routine_and_no_numpy_polynomial():
    package = Path(tmopfit.__file__).resolve().parent
    hits = [
        (path.name, line.strip())
        for path in sorted(package.glob("*.py"))
        for line in path.read_text().splitlines()
        if _LAPACK_OR_POLYNOMIAL.search(line.split("#")[0])
    ]
    assert hits == []


@pytest.mark.parametrize("name, order", [("fit3d-hex", 2), ("fit2d-tri", 3)])
def test_run_calls_no_lapack_and_imports_no_numpy_polynomial(tmp_path, name, order):
    # A first call of a LAPACK routine, or the import of numpy.polynomial,
    # maps library code and heap into the run: 0.25-1.4 MiB of peak RSS.
    code = """
import json, sys
import numpy.linalg as la
calls = []
for name in ("det", "slogdet", "inv", "pinv", "solve", "lstsq", "eig", "eigh",
             "eigvals", "eigvalsh", "svd"):
    def wrapper(*args, _name=name, _f=getattr(la, name), **kwargs):
        calls.append(_name)
        return _f(*args, **kwargs)
    setattr(la, name, wrapper)
import tmopfit.cases as c
run = c.run_case(c.named_case(sys.argv[2], resolution=3), out_dir=sys.argv[1])
print(json.dumps([run.case.order, run.solve_report.reason, calls,
                  "numpy.polynomial" in sys.modules]))
"""
    src = str(Path(tmopfit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), name],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [order, "converged", [], False]


@pytest.mark.parametrize("geometry, order", [("triangle", 3), ("tet", 4)])
def test_simplex_vandermonde_inverse_without_lapack(geometry, order):
    # Gauss-Jordan elimination against LAPACK as the oracle.
    basis = NodalBasis(geometry, order)
    vand, _ = _eval_monomials(basis._exponents, basis.nodes, grad=False)
    eye = np.eye(basis.num_nodes)
    assert np.abs(basis._vinv @ vand - eye).max() <= 1e-12
    assert np.abs(vand @ basis._vinv - eye).max() <= 1e-12
    want = np.linalg.inv(vand)
    assert np.abs(basis._vinv - want).max() <= 1e-13 * np.abs(want).max()
