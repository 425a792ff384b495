"""Finite-difference verification of objective derivatives.

Builds small random valid configurations across element types and
orders, then compares analytic gradients of the quality and fitting
terms against central differences, and Hessians against differenced
gradients.  Used by the CLI and by the acceptance suite.
"""

import numpy as np

from .fields import AnalyticLevelSet, project
from .fitting import MarkedSet, make_penalty
from .mesh import NodeField, is_valid, make_cartesian
from .objective import ObjectiveConfig, gradient, hessian, value
from .quality import make_targets
from .transfer import DiscreteLevelSet

CONFIGS = (
    ("quad", 2, 1), ("quad", 2, 2), ("quad", 2, 3),
    ("triangle", 2, 1), ("triangle", 2, 2), ("triangle", 2, 3),
    ("hex", 2, 1), ("hex", 1, 2), ("hex", 1, 3),
    ("tet", 2, 1), ("tet", 1, 2), ("tet", 1, 3),
    ("quad", 3, 2), ("triangle", 3, 3), ("hex", 2, 2), ("tet", 2, 2),
    ("quad", 2, 3), ("triangle", 2, 2), ("hex", 1, 2), ("tet", 1, 2),
)


def perturbed_mesh(geometry, n_cells, order, rng, amplitude=0.12):
    """Cartesian mesh plus a random valid interior perturbation.

    Returns (mesh, initial_nodes, perturbed_nodes); discrete sigma
    sources belong on the unperturbed (affine) initial mesh, where
    polynomial fields are represented exactly.
    """
    mesh, nodes = make_cartesian(
        3 if geometry in ("hex", "tet") else 2, n_cells, order, geometry
    )
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    h = 1.0 / n_cells
    scale = amplitude * h / order
    while True:
        mat = nodes.as_matrix().copy()
        mat[interior] += scale * rng.uniform(-1.0, 1.0, (len(interior), mesh.dim))
        trial = NodeField.from_matrix(mat)
        if is_valid(mesh, trial)[0]:
            return mesh, nodes, trial
        scale *= 0.5


def _poly_level_set(dim, order, rng):
    """Polynomial level set of degree <= order (lies in the FE space, so
    the discrete representation is exact and kink-free)."""
    c0 = rng.uniform(-0.2, 0.2)
    lin = rng.uniform(-1.0, 1.0, dim)
    if order >= 2:
        quad = rng.uniform(-0.5, 0.5, dim)
    else:
        quad = np.zeros(dim)

    def fn(p):
        return c0 + p @ lin + (p**2) @ quad

    def grad(p):
        return lin[None, :] + 2.0 * p * quad[None, :]

    def hess(p):
        return np.tile(np.diag(2.0 * quad), (len(p), 1, 1))

    return AnalyticLevelSet(dim, fn, grad, hess)


def _config(mesh, initial_nodes, nodes, rng, source_kind):
    dim = mesh.dim
    metric = rng.choice(["mu2", "mu58", "mu77", "mu80"] if dim == 2 else
                        ["mu302", "mu316", "mu333"])
    kind = rng.choice(["ideal-shape-unit-size", "ideal-shape-initial-size"])
    targets = make_targets(mesh, nodes, kind)
    analytic = _poly_level_set(dim, mesh.order, rng)
    if source_kind == "discrete":
        source = DiscreteLevelSet(
            project(analytic, mesh, initial_nodes), initial_nodes
        )
    else:
        source = analytic
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    if len(interior) == 0:
        raise ValueError("check configuration has no interior nodes")
    n_marked = max(1, len(interior) // 3)
    marked = MarkedSet(rng.choice(interior, size=n_marked, replace=False))
    penalty = make_penalty(rng.uniform(0.5, 5.0), source, mesh, targets, marked)
    return ObjectiveConfig(str(metric), targets, penalty=penalty)


def fd_gradient(config, mesh, nodes, step=1e-6):
    """Central differences of (F_mu, F_sigma) in one pass over the dofs."""
    ndof = mesh.dim * mesh.num_nodes
    out_mu = np.zeros(ndof)
    out_sigma = np.zeros(ndof)
    work = nodes.copy()
    for dof in range(ndof):
        work.coords[dof] += step
        _, mu_p, sig_p = value(config, mesh, work)
        work.coords[dof] -= 2.0 * step
        _, mu_m, sig_m = value(config, mesh, work)
        work.coords[dof] += step
        out_mu[dof] = (mu_p - mu_m) / (2.0 * step)
        out_sigma[dof] = (sig_p - sig_m) / (2.0 * step)
    return out_mu, out_sigma


def fd_hessian(config, mesh, nodes, step=1e-6):
    """Columnwise central differences of the analytic gradient."""
    ndof = mesh.dim * mesh.num_nodes
    out = np.zeros((ndof, ndof))
    work = nodes.copy()
    for dof in range(ndof):
        work.coords[dof] += step
        gp = gradient(config, mesh, work)
        work.coords[dof] -= 2.0 * step
        gm = gradient(config, mesh, work)
        work.coords[dof] += step
        out[:, dof] = (gp - gm) / (2.0 * step)
    return 0.5 * (out + out.T)


def check_gradients(seed=0, verbose=False, hessian_dof_limit=0):
    """Run the battery; returns [(name, passed, relative_error)].

    Hessians are FD-verified on configurations with at most
    hessian_dof_limit degrees of freedom (0 disables them).
    """
    rng = np.random.default_rng(seed)
    results = []
    for i, (geometry, n_cells, order) in enumerate(CONFIGS):
        mesh, initial_nodes, nodes = perturbed_mesh(geometry, n_cells, order, rng)
        source_kind = "discrete" if i % 2 else "analytic"
        config = _config(mesh, initial_nodes, nodes, rng, source_kind)
        n_new = len(results)

        grad = gradient(config, mesh, nodes)
        fd_mu, fd_sig = fd_gradient(config, mesh, nodes)
        config_mu = ObjectiveConfig(config.metric_id, config.targets)
        grad_mu = gradient(config_mu, mesh, nodes)
        err_mu = _rel_err(grad_mu, fd_mu)
        results.append((f"{geometry}-k{order} F_mu gradient ({source_kind})",
                        err_mu < 1e-5, err_mu))
        err_sig = _rel_err(grad - grad_mu, fd_sig)
        results.append((f"{geometry}-k{order} F_sigma gradient ({source_kind})",
                        err_sig < 1e-5, err_sig))

        ndof = mesh.dim * mesh.num_nodes
        if ndof <= hessian_dof_limit:
            h = hessian(config, mesh, nodes).toarray()
            h_fd = fd_hessian(config, mesh, nodes)
            err_h = np.linalg.norm(h - h_fd) / max(np.linalg.norm(h_fd), 1e-30)
            results.append((f"{geometry}-k{order} Hessian ({source_kind})",
                            err_h < 1e-4, err_h))
        if verbose:
            for name, ok, err in results[n_new:]:
                print(f"{'PASS' if ok else 'FAIL'}  {name}: rel err {err:.3e}")
    return results


def _rel_err(a, b):
    scale = max(np.abs(b).max(), 1e-30)
    return float(np.abs(a - b).max() / scale)
