"""Quality metrics and target Jacobians."""

import numpy as np
import pytest

from tmopfit import quality
from tmopfit.errors import InvalidMeshError, NonpositiveDeterminantError
from tmopfit.mesh import NodeField, make_cartesian, quadrature_jacobians
from tmopfit.quality import (
    IDEAL_TARGETS,
    METRIC_DIM,
    METRIC_IDS,
    TargetJacobians,
    make_targets,
    metric,
    metric_batch,
    metric_values,
    mirror_pairs,
)

SHAPE_METRICS = ("mu2", "mu58", "mu302")


def random_valid_t(rng, dim):
    while True:
        t = np.eye(dim) + 0.6 * rng.standard_normal((dim, dim))
        tau = np.linalg.det(t)
        if 0.2 <= tau <= 5.0:
            return t


def rotation(rng, dim):
    theta = rng.uniform(0, 2 * np.pi)
    r2 = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    if dim == 2:
        return r2
    r = np.eye(3)
    r[:2, :2] = r2
    return r


def test_metric_values_at_identity():
    for mid in METRIC_IDS:
        d = METRIC_DIM[mid]
        assert abs(metric(mid, np.eye(d)).value) < 1e-13


def test_mu2_examples():
    assert abs(metric("mu2", np.eye(2)).value) < 1e-15
    assert abs(metric("mu2", 2.0 * np.eye(2)).value) < 1e-15


def test_mu77_example():
    assert abs(metric("mu77", np.diag([2.0, 1.0])).value - 1.125) < 1e-14


def test_mu80_example():
    assert abs(metric("mu80", np.diag([2.0, 1.0])).value - 0.6875) < 1e-14


def test_mu58_examples():
    assert abs(metric("mu58", np.eye(2)).value) < 1e-14
    assert abs(metric("mu58", np.diag([2.0, 1.0])).value - 1.25) < 1e-13


def test_3d_metrics_zero_at_identity():
    for mid in ("mu302", "mu316", "mu333"):
        assert abs(metric(mid, np.eye(3)).value) < 1e-14


@pytest.mark.parametrize("mid", METRIC_IDS)
def test_first_derivative_matches_finite_differences(mid):
    d = METRIC_DIM[mid]
    rng = np.random.default_rng(hash(mid) % 2**31)
    for _ in range(50):
        t = random_valid_t(rng, d)
        ev = metric(mid, t)
        step = 1e-6
        fd = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                dt = np.zeros((d, d))
                dt[a, b] = step
                fd[a, b] = (
                    metric(mid, t + dt).value - metric(mid, t - dt).value
                ) / (2 * step)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(ev.dmu - fd).max() / scale < 1e-5


@pytest.mark.parametrize("mid", METRIC_IDS)
def test_second_derivative_matches_finite_differences(mid):
    d = METRIC_DIM[mid]
    rng = np.random.default_rng(hash(mid) % 2**31 + 1)
    for _ in range(15):
        t = random_valid_t(rng, d)
        ev = metric(mid, t)
        step = 1e-6
        fd = np.zeros((d, d, d, d))
        for a in range(d):
            for b in range(d):
                dt = np.zeros((d, d))
                dt[a, b] = step
                fd[:, :, a, b] = (
                    metric(mid, t + dt).dmu - metric(mid, t - dt).dmu
                ) / (2 * step)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(ev.d2mu - fd).max() / scale < 1e-5
        # Each packed pair (a, c), a <= c, is d2mu[a, :, c, :].
        pairs = metric_batch(mid, t[None])[2][0]
        for p, (a, c) in enumerate(zip(*np.triu_indices(d))):
            assert np.abs(pairs[p] - fd[a, :, c, :]).max() / scale < 1e-5


@pytest.mark.parametrize("mid", SHAPE_METRICS)
def test_shape_metrics_scale_invariant(mid):
    d = METRIC_DIM[mid]
    rng = np.random.default_rng(21)
    for _ in range(10):
        t = random_valid_t(rng, d)
        c = rng.uniform(0.3, 4.0)
        assert abs(metric(mid, c * t).value - metric(mid, t).value) < 1e-12


@pytest.mark.parametrize("mid", METRIC_IDS)
def test_metrics_rotation_invariant(mid):
    d = METRIC_DIM[mid]
    rng = np.random.default_rng(22)
    for _ in range(10):
        t = random_valid_t(rng, d)
        q = rotation(rng, d)
        assert abs(metric(mid, q @ t).value - metric(mid, t).value) < 1e-12


def test_nonpositive_determinant_rejected():
    with pytest.raises(NonpositiveDeterminantError):
        metric("mu2", np.diag([1.0, -1.0]))
    with pytest.raises(NonpositiveDeterminantError):
        metric_values("mu77", np.zeros((1, 2, 2)) )


def test_2d_shape_metrics_nonnegative():
    # In 2D, mu2 = s / (2 tau) and mu58 = (s / tau)^2 + 2 s / tau with
    # s = (t00 - t11)^2 + (t01 + t10)^2, so neither rounds below 0, also at
    # near-conformal T, where |T|^2 and 2 tau cancel.
    rng = np.random.default_rng(50)
    conformal = np.stack([rng.uniform(0.1, 10.0) * rotation(rng, 2) for _ in range(200)])
    conformal += 1e-12 * rng.standard_normal(conformal.shape)
    t = np.concatenate([conformal, random_batch(rng, 2, (200,))])
    for mid in ("mu2", "mu58"):
        assert metric_values(mid, t).min() >= 0.0


def test_mu80_hessian_matches_fd_of_gradient():
    # Central differences of the analytic dmu, symmetrized in the pairing
    # of the two T entries.
    rng = np.random.default_rng(30)
    t = random_valid_t(rng, 2)
    ha = metric("mu80", t).d2mu
    step = 1e-7
    hf = np.zeros((2, 2, 2, 2))
    for c in range(2):
        for e in range(2):
            dt = np.zeros((2, 2))
            dt[c, e] = step
            hf[..., c, e] = (
                metric("mu80", t + dt).dmu - metric("mu80", t - dt).dmu
            ) / (2.0 * step)
    hf = 0.5 * (hf + hf.transpose(2, 3, 0, 1))
    assert np.abs(ha - hf).max() < 1e-6


def test_metric_values_matches_jet_values():
    # metric_values is the order-0 jet: the same arithmetic as the values
    # of metric_batch, in 2D and 3D alike.
    rng = np.random.default_rng(31)
    for mid in METRIC_IDS:
        for d in (2, 3):
            t = np.stack([random_valid_t(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
            vals, _, _ = metric_batch(mid, t, 0.3)
            fast = metric_values(mid, t, 0.3)
            assert fast.shape == (2, 3)
            assert np.array_equal(vals, fast)


def test_unit_size_targets_are_ideal_maps():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    tg = make_targets(mesh, nodes, "ideal-shape-unit-size")
    assert np.array_equal(tg.size, np.ones(mesh.num_elements))
    assert np.array_equal(tg.det("quad"), np.ones(mesh.num_elements))
    assert not tg.volumetric


def test_initial_size_targets_carry_cell_volume():
    mesh, nodes = make_cartesian(2, 8, 1, "quad")
    tg = make_targets(mesh, nodes, "ideal-shape-initial-size")
    assert np.abs(tg.det("quad") - 1.0 / 64.0).max() < 1e-13
    assert tg.volumetric


def test_equilateral_triangle_target_determinant():
    assert abs(np.linalg.det(IDEAL_TARGETS["triangle"]) - np.sqrt(3) / 2) < 1e-15


def test_regular_tet_target_shape():
    w = IDEAL_TARGETS["tet"]
    verts = np.vstack([np.zeros(3), w.T])  # images of the reference vertices
    # All edges of the image tetrahedron have unit length.
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(verts[i] - verts[j]) - 1.0) < 1e-14


def test_targets_reject_invalid_mesh():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    mat = nodes.as_matrix().copy()
    mat[[0, 1]] = mat[[1, 0]]
    with pytest.raises(InvalidMeshError):
        make_targets(mesh, NodeField.from_matrix(mat), "ideal-shape-unit-size")


def test_targets_reject_nonpositive_w():
    # det W_e = size_e det W_ideal, so det W > 0 holds when the size is
    # finite and positive.
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(InvalidMeshError):
            TargetJacobians("ideal-shape-unit-size", np.array([1.0, bad]))


def test_cartesian_quad_mesh_is_ideal_for_initial_size_targets():
    # T = A W^-1 is the identity when W carries the initial cell size,
    # so even the shape+size metric vanishes.
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    tg = make_targets(mesh, nodes, "ideal-shape-initial-size")
    w = np.sqrt(tg.size[0]) * IDEAL_TARGETS["quad"]
    t = quadrature_jacobians(mesh, nodes, [0])[:, 0] @ np.linalg.inv(w)
    assert np.abs(metric_values("mu80", t)).max() < 1e-12


def test_cartesian_triangle_mesh_not_ideal_for_equilateral_targets():
    # Right triangles against equilateral targets carry positive shape
    # deviation regardless of the size scaling.
    mesh, nodes = make_cartesian(2, 2, 1, "triangle")
    tg = make_targets(mesh, nodes, "ideal-shape-initial-size")
    w = np.sqrt(tg.size[0]) * IDEAL_TARGETS["triangle"]
    t = quadrature_jacobians(mesh, nodes, [0])[:, 0] @ np.linalg.inv(w)
    assert metric_values("mu58", t).min() > 0.1


# ---------------------------------------------------------------------------
# The points-last jets against the points-first jets they replaced


class PointsFirstJet:
    """Second-order jet with the points first: value (...,), d1
    (..., d, d), d2 (..., d, d, d, d) or None for order 1."""

    def __init__(self, value, d1, d2):
        self.value, self.d1, self.d2 = value, d1, d2

    def __add__(self, other):
        if np.isscalar(other):
            return PointsFirstJet(self.value + other, self.d1, self.d2)
        d2 = None if self.d2 is None else self.d2 + other.d2
        return PointsFirstJet(self.value + other.value, self.d1 + other.d1, d2)

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            return self + (-other)
        return self + (-1.0) * other

    def __mul__(self, other):
        if np.isscalar(other):
            d2 = None if self.d2 is None else self.d2 * other
            return PointsFirstJet(self.value * other, self.d1 * other, d2)
        u0, v0 = self.value[..., None, None], other.value[..., None, None]
        d2 = None
        if self.d2 is not None:
            cross = points_first_outer(self.d1, other.d1)
            d2 = (u0[..., None, None] * other.d2 + v0[..., None, None] * self.d2
                  + cross + np.moveaxis(cross, (-2, -1), (-4, -3)))
        return PointsFirstJet(self.value * other.value, u0 * other.d1 + v0 * self.d1, d2)

    __rmul__ = __mul__

    def reciprocal(self):
        inv = 1.0 / self.value
        inv2 = (inv**2)[..., None, None]
        d2 = None
        if self.d2 is not None:
            d2 = (-self.d2 * inv2[..., None, None]
                  + 2.0 * (inv**3)[..., None, None, None, None]
                  * points_first_outer(self.d1, self.d1))
        return PointsFirstJet(inv, -self.d1 * inv2, d2)

    def __truediv__(self, other):
        return self * other.reciprocal()


def points_first_outer(x, y):
    return x[..., :, :, None, None] * y[..., None, None, :, :]


def points_first_metric_batch(metric_id, t, gamma, order):
    """(values, dmu, d2mu) from invariant jets seeded with np.linalg."""
    d = t.shape[-1]
    eye = np.eye(d)
    tau, k = np.linalg.det(t), np.linalg.inv(t)
    kt = np.swapaxes(k, -1, -2)
    second = order >= 2
    ones = np.ones_like(tau)[..., None, None, None, None]
    frob2 = PointsFirstJet(
        np.einsum("...ab,...ab->...", t, t), 2.0 * t,
        2.0 * np.einsum("ac,bd->abcd", eye, eye) * ones if second else None,
    )
    det = PointsFirstJet(
        tau, tau[..., None, None] * kt,
        tau[..., None, None, None, None] * (
            np.einsum("...ab,...cd->...abcd", kt, kt)
            - np.einsum("...bc,...da->...abcd", k, k)
        ) if second else None,
    )
    m = kt @ k @ kt
    invfrob2 = PointsFirstJet(
        np.einsum("...ab,...ab->...", k, k), -2.0 * m,
        2.0 * (
            np.einsum("...fc,...ed->...cdef", k, m)
            + np.einsum("...ce,...fd->...cdef", kt @ k, k @ kt)
            + np.einsum("...de,...cf->...cdef", k, m)
        ) if second else None,
    )
    tt, ttt = np.swapaxes(t, -1, -2) @ t, t @ np.swapaxes(t, -1, -2)
    ttfrob2 = PointsFirstJet(
        np.einsum("...ab,...ab->...", tt, tt), 4.0 * t @ tt,
        4.0 * (
            np.einsum("ac,...db->...abcd", eye, tt)
            + np.einsum("...ad,...cb->...abcd", t, t)
            + np.einsum("bd,...ac->...abcd", eye, ttt)
        ) if second else None,
    )

    def compose(mid):
        if mid == "mu2":
            return 0.5 * (frob2 / det) + (-1.0)
        if mid == "mu58":
            inv_det = det.reciprocal()
            return ttfrob2 * (inv_det * inv_det) - 2.0 * (frob2 * inv_det) + 2.0
        if mid == "mu77":
            diff = det - det.reciprocal()
            return 0.5 * (diff * diff)
        if mid == "mu302":
            return (frob2 * invfrob2) * (1.0 / 9.0) + (-1.0)
        return 0.5 * (det + det.reciprocal()) + (-1.0)  # mu316

    blends = {"mu80": ("mu2", "mu77"), "mu333": ("mu302", "mu316")}
    if metric_id in blends:
        first, second_part = map(compose, blends[metric_id])
        jet = (1.0 - gamma) * first + gamma * second_part
    else:
        jet = compose(metric_id)
    return jet.value, jet.d1, jet.d2


def random_batch(rng, dim, shape):
    return np.stack([random_valid_t(rng, dim) for _ in range(np.prod(shape))]).reshape(
        shape + (dim, dim)
    )


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mid", METRIC_IDS)
def test_metric_batch_matches_points_first_jets(mid, dim):
    rng = np.random.default_rng(40 + dim)
    t = random_batch(rng, dim, (7, 5))
    for order in (1, 2):
        got = metric_batch(mid, t, 0.3, order)
        want = points_first_metric_batch(mid, t, 0.3, order)
        assert got[0].shape == (7, 5) and got[1].shape == (7, 5, dim, dim)
        if order == 1:
            assert got[2] is None
            got, want = got[:2], want[:2]
        else:
            assert got[2].shape == (7, 5, dim * (dim + 1) // 2, dim, dim)
            got = got[:2] + (mirror_pairs(got[2]),)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mid", METRIC_IDS)
def test_mirrored_pairs_equal_full_second_derivative(mid, dim):
    # metric_batch computes d2mu[a, :, c, :] for the pairs a <= c only;
    # mirror_pairs fills in a > c from d2mu[a, b, c, f] = d2mu[c, f, a, b].
    rng = np.random.default_rng(60 + dim)
    t = random_batch(rng, dim, (4, 3))
    pairs = metric_batch(mid, t, 0.3)[2]
    full = mirror_pairs(pairs)
    want = points_first_metric_batch(mid, t, 0.3, 2)[2]
    assert full.shape == want.shape == (4, 3) + (dim,) * 4
    assert np.abs(full - want).max() <= 1e-13 * np.abs(want).max()
    for p, (a, c) in enumerate(zip(*np.triu_indices(dim))):
        assert np.array_equal(full[..., a, :, c, :], pairs[..., p, :, :])
        if a != c:
            mirrored = np.swapaxes(pairs[..., p, :, :], -1, -2)
            assert np.array_equal(full[..., c, :, a, :], mirrored)



def merged_first_second_derivative(inv, f, f2, shape):
    """quality._second_derivative as it was when every merged X (x) sum c Y
    was built before the first term was written: the reference for
    building each sum only when its term is written."""
    d, n = shape[0], shape[-1]
    ia, ic = np.triu_indices(d)
    pairs = [("ab,cf", fkl, inv[i].d1, inv[j].d1) for (k, l), fkl in f2.items()
             for i, j in dict.fromkeys([(k, l), (l, k)])]
    pairs += [(pattern, c * f[k], x, y) for k in f for pattern, c, x, y in inv[k].pairs]
    terms = {}
    for pattern, c, x, y in pairs:
        key = (pattern, id(x))
        terms[key] = (pattern, x, c * y + terms[key][2] if key in terms else c * y)
    d2, scratch = np.empty((len(ia), d, d, n)), np.empty((len(ia), d, d, n))
    for i, (pattern, x, y) in enumerate(terms.values()):
        out = scratch if i else d2
        if pattern == "ab,cf":
            np.multiply(x.take(ia, 0)[:, :, None], y.take(ic, 0)[:, None], out=out)
        elif pattern == "ac,bf":
            np.multiply(x[ia, ic][:, None, None], y, out=out)
        else:
            np.multiply(y.take(ic, 0)[:, :, None], x.take(ia, 0)[:, None], out=out)
        if i:
            d2 += scratch
    flat = d2.reshape(-1, n)
    for k, fk in f.items():
        if inv[k].const is not None:
            const = inv[k].const[ia, :, ic].ravel()
            rows = np.flatnonzero(const)
            flat[rows] += const[rows, None] * fk
    return d2


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mid", METRIC_IDS)
def test_second_derivative_is_bit_identical_to_merging_all_terms_first(
    monkeypatch, mid, dim
):
    rng = np.random.default_rng(80 + dim)
    for shape in ((5, 3), (64,)):
        t = random_batch(rng, dim, shape)
        got = metric_batch(mid, t, 0.3)
        monkeypatch.setattr(quality, "_second_derivative", merged_first_second_derivative)
        want = metric_batch(mid, t, 0.3)
        monkeypatch.undo()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
