"""Scalar fields: projection, evaluation, gradients."""

import numpy as np
import pytest

from tmopfit.errors import SingularJacobianError
from tmopfit.fields import (
    AnalyticLevelSet,
    ScalarField,
    nodal_physical_gradients,
    project,
)
from tmopfit.levelsets import builtin_levelset
from tmopfit.mesh import NodeField, make_cartesian
from tmopfit.reference import GEOMETRY_DIM
from tmopfit.transfer import DiscreteLevelSet


def linear_level_set(coeffs, offset):
    coeffs = np.asarray(coeffs, dtype=float)

    def fn(p):
        return p @ coeffs + offset

    def grad(p):
        return np.tile(coeffs, (len(p), 1))

    return AnalyticLevelSet(len(coeffs), fn, grad, lambda p: None)


def test_projection_is_nodal_interpolation():
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    sphere = builtin_levelset("sphere2d")
    sigma = project(sphere, mesh, nodes)
    assert np.allclose(
        sigma.coefficients, sphere.values(nodes.as_matrix()), atol=0
    )


def test_projection_of_constant():
    mesh, nodes = make_cartesian(2, 3, 1, "quad")
    const = AnalyticLevelSet(
        2, lambda p: np.full(len(p), 2.5),
        lambda p: np.zeros_like(p), lambda p: None,
    )
    sigma = project(const, mesh, nodes)
    assert np.all(sigma.coefficients == 2.5)


def test_sphere_value_at_known_point():
    mesh, nodes = make_cartesian(2, 10, 1, "quad")
    sigma = project(builtin_levelset("sphere2d"), mesh, nodes)
    i = int(np.argmin(np.linalg.norm(nodes.as_matrix() - [0.5, 0.9], axis=1)))
    assert np.allclose(nodes.as_matrix()[i], [0.5, 0.9])
    assert abs(sigma.coefficients[i] - 0.1) < 1e-14


def test_node_on_zero_level_set_gets_zero_coefficient():
    mesh, nodes = make_cartesian(2, 10, 1, "quad")
    sigma = project(builtin_levelset("sphere2d"), mesh, nodes)
    i = int(np.argmin(np.linalg.norm(nodes.as_matrix() - [0.2, 0.5], axis=1)))
    assert abs(sigma.coefficients[i]) < 1e-14  # (0.2, 0.5) is on the circle


@pytest.mark.parametrize("geometry,order", [("quad", 2), ("triangle", 3), ("hex", 2)])
def test_polynomial_reproduction(geometry, order):
    dim = 3 if geometry == "hex" else 2
    mesh, nodes = make_cartesian(dim, 2, order, geometry)
    rng = np.random.default_rng(4)
    lin = rng.uniform(-1, 1, dim)
    quad_c = rng.uniform(-1, 1, dim) if order >= 2 else np.zeros(dim)

    def fn(p):
        return 0.3 + p @ lin + (p**2) @ quad_c

    ls = AnalyticLevelSet(dim, fn, lambda p: None, lambda p: None)
    sigma = project(ls, mesh, nodes)
    elements, refs = [], []
    for _ in range(100):
        elements.append(rng.integers(mesh.num_elements))
        ref = rng.random(dim)
        if geometry in ("triangle", "tet"):
            ref *= 0.9 / max(1.0, ref.sum())
        refs.append(ref)
    conn = mesh.connectivity[elements]
    vals = mesh.basis.eval(np.array(refs))
    phys = np.einsum("pk,pkd->pd", vals, nodes.as_matrix()[conn])
    got = np.einsum("pk,pk->p", vals, sigma.coefficients[conn])
    assert np.abs(got - fn(phys)).max() < 1e-12


def test_eval_at_node_returns_coefficient():
    mesh, nodes = make_cartesian(2, 2, 3, "quad")
    rng = np.random.default_rng(9)
    sigma = ScalarField(mesh, rng.standard_normal(mesh.num_nodes))
    coeff = sigma.coefficients[mesh.connectivity[2]]
    got = mesh.basis.eval(mesh.basis.nodes) @ coeff
    assert np.abs(got - coeff).max() < 1e-12


def test_gradient_of_linear_field():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    sigma = project(linear_level_set([1.0, 0.0], 0.0), mesh, nodes)
    # The image of reference point (0.3, 0.8) in element 4.
    point = mesh.basis.eval([[0.3, 0.8]]) @ nodes.as_matrix()[mesh.connectivity[4]]
    g = DiscreteLevelSet(sigma, nodes).gradients(point)
    assert np.allclose(g, [[1.0, 0.0]], atol=1e-12)


def test_quadratic_field_value_at_midpoint():
    mesh, nodes = make_cartesian(2, 1, 2, "quad")
    ls = AnalyticLevelSet(2, lambda p: p[:, 0] ** 2, lambda p: None, lambda p: None)
    sigma = project(ls, mesh, nodes)
    got = mesh.basis.eval([[0.5, 0.5]])[0] @ sigma.coefficients[mesh.connectivity[0]]
    assert abs(got - 0.25) < 1e-13


def test_nodal_physical_gradients_linear_exact():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    sigma = project(linear_level_set([2.0, -1.5], 0.7), mesh, nodes)
    grads = nodal_physical_gradients(sigma, nodes)
    assert np.abs(grads[:, 0] - 2.0).max() < 1e-12
    assert np.abs(grads[:, 1] + 1.5).max() < 1e-12


def test_nodal_physical_gradients_twice_on_linear_is_zero():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    sigma = project(linear_level_set([2.0, -1.5], 0.7), mesh, nodes)
    gx = ScalarField(mesh, nodal_physical_gradients(sigma, nodes)[:, 0])
    gxx, gxy = nodal_physical_gradients(gx, nodes).T
    assert np.abs(gxx).max() < 1e-11
    assert np.abs(gxy).max() < 1e-11


def test_repeated_nodal_physical_gradients_converge_to_hessian():
    # sigma = x^2 on order-1 meshes: second application approximates the
    # constant Hessian entry 2 within O(h).
    ls = AnalyticLevelSet(2, lambda p: p[:, 0] ** 2, lambda p: None, lambda p: None)
    errors = []
    for n in (4, 8, 16):
        mesh, nodes = make_cartesian(2, n, 1, "quad")
        sigma = project(ls, mesh, nodes)
        gx = ScalarField(mesh, nodal_physical_gradients(sigma, nodes)[:, 0])
        gxx = nodal_physical_gradients(gx, nodes)[:, 0]
        interior = np.setdiff1d(
            np.arange(mesh.num_nodes), mesh.boundary_node_ids()
        )
        errors.append(np.abs(gxx[interior] - 2.0).max())
    assert errors[0] < 1.0
    assert errors[2] <= errors[0]


@pytest.mark.parametrize(
    "name", ["sphere2d", "sphere3d", "tg2d", "tg3d", "rt2d", "rt3d"]
)
def test_analytic_gradients_match_finite_differences(name):
    ls = builtin_levelset(name)
    rng = np.random.default_rng(12)
    pts = 0.25 + 0.5 * rng.random((40, ls.dim))
    grads = ls.gradients(pts)
    step = 1e-7
    for a in range(ls.dim):
        shift = np.zeros(ls.dim)
        shift[a] = step
        fd = (ls.values(pts + shift) - ls.values(pts - shift)) / (2 * step)
        denom = np.maximum(np.abs(fd), 1.0)
        assert (np.abs(grads[:, a] - fd) / denom).max() < 1e-6
    # Hessians: central differences of the analytic gradient, and exact
    # symmetry.
    hess = ls.hessians(pts)
    assert hess.shape == (len(pts), ls.dim, ls.dim)
    assert np.array_equal(hess, hess.transpose(0, 2, 1))
    step = 1e-6
    for a in range(ls.dim):
        shift = np.zeros(ls.dim)
        shift[a] = step
        fd = (ls.gradients(pts + shift) - ls.gradients(pts - shift)) / (2 * step)
        denom = np.maximum(np.abs(fd), 1.0)
        assert (np.abs(hess[:, :, a] - fd) / denom).max() < 1e-6


def test_singular_jacobian_raises():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    mat = nodes.as_matrix().copy()
    mat[:] = mat[0]  # collapse the element to a point
    collapsed = NodeField.from_matrix(mat)
    sigma = ScalarField(mesh, np.ones(mesh.num_nodes))
    with pytest.raises(SingularJacobianError):
        nodal_physical_gradients(sigma, collapsed)


def test_singular_jacobian_names_the_first_singular_element():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    mat = nodes.as_matrix().copy()
    # Corners (1, 0) and (1, 1) belong to elements 2 and 3 only; moved onto
    # node (1, 0.5) they make both elements' Jacobians singular.
    for corner in ([1.0, 0.0], [1.0, 1.0]):
        mat[np.argmin(np.linalg.norm(mat - corner, axis=1))] = [1.0, 0.5]
    sigma = ScalarField(mesh, np.ones(mesh.num_nodes))
    with pytest.raises(SingularJacobianError, match="in element 2$"):
        nodal_physical_gradients(sigma, NodeField.from_matrix(mat))


def test_located_gradient_at_singular_source_jacobian_names_the_element():
    # As above, element 2's corner (1, 0) sits on (1, 0.5), so its
    # Jacobian vanishes on its edge through that point.  The point is
    # located there (at reference point (1, 0.5)), and its gradient
    # raises rather than solving a singular system.
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    mat = nodes.as_matrix().copy()
    for corner in ([1.0, 0.0], [1.0, 1.0]):
        mat[np.argmin(np.linalg.norm(mat - corner, axis=1))] = [1.0, 0.5]
    sigma = ScalarField(mesh, np.arange(mesh.num_nodes, dtype=float))
    source = DiscreteLevelSet(sigma, NodeField.from_matrix(mat))
    points = np.array([[0.25, 0.25], [1.0, 0.5]])
    source.values(points)  # both points are located
    with pytest.raises(SingularJacobianError, match="in element 2$"):
        source.gradients(points)


@pytest.mark.parametrize("geometry,order", [("quad", 3), ("triangle", 3), ("hex", 2), ("tet", 2)])
def test_nodal_physical_gradients_match_per_node_loop(geometry, order):
    dim = GEOMETRY_DIM[geometry]
    mesh, nodes = make_cartesian(dim, 2, order, geometry)
    mat = nodes.as_matrix().copy()
    mat[:, 0] += 0.03 * np.prod(np.sin(np.pi * mat), axis=1)  # curved elements
    moved = NodeField.from_matrix(mat)
    rng = np.random.default_rng(5)
    sigma = ScalarField(mesh, rng.standard_normal(mesh.num_nodes))
    _, ref_grads = mesh.basis.eval_with_grad(mesh.basis.nodes)
    want, counts = np.zeros((mesh.num_nodes, dim)), np.zeros(mesh.num_nodes)
    for conn in mesh.connectivity:
        for loc, node in enumerate(conn):
            a = mat[conn].T @ ref_grads[loc]
            want[node] += np.linalg.solve(a.T, ref_grads[loc].T @ sigma.coefficients[conn])
            counts[node] += 1
    want /= counts[:, None]
    got = nodal_physical_gradients(sigma, moved)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
