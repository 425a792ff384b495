"""Target Jacobians and TMOP quality metrics with derivatives.

Metrics are scalar functions of the weighted Jacobian T = A W^{-1}.
Values, first derivatives dmu/dT and second derivatives d2mu/dT2 are
computed analytically by composing a few matrix invariants (|T|^2, det T,
|T^{-1}|^2, |T^t T|^2), each carried as a jet of order 0, 1 or 2.  Jets
carry the points last: value (P,), d1 (d, d, P) and d2 (d, d, d, d, P),
so every jet operation runs over rows of length P and outer products are
plain broadcasts.  det T and T^{-1} come from the closed-form
mesh.det_inv.  The invariants a metric needs are seeded once per batch,
also for the blended metrics mu80 and mu333; metric_values is the
order-0 jet.  metric_batch hands the derivatives back points first, as
views of the points-last arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMeshError, NonpositiveDeterminantError
from .mesh import det_inv, element_volumes, is_valid
from .reference import REFERENCE_MEASURE

METRIC_IDS = ("mu2", "mu58", "mu77", "mu80", "mu302", "mu316", "mu333")

TARGET_KINDS = ("ideal-shape-unit-size", "ideal-shape-initial-size")

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


# ---------------------------------------------------------------------------
# Jets of scalar functions of T, points last


class _Jet:
    """Scalar function of T with its derivatives up to the jet's order.

    parts = (value, d1, d2)[: order + 1], points last.  A part may have
    length 1 in P (a constant second derivative).
    """

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = parts

    def __add__(self, other):
        if np.isscalar(other):
            return _Jet(self.parts[0] + other, *self.parts[1:])
        return _Jet(*(u + v for u, v in zip(self.parts, other.parts)))

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            return _Jet(self.parts[0] - other, *self.parts[1:])
        return _Jet(*(u - v for u, v in zip(self.parts, other.parts)))

    def __mul__(self, other):
        if np.isscalar(other):
            return _Jet(*(u * other for u in self.parts))
        (u0, *u), (v0, *v) = self.parts, other.parts
        parts = [u0 * v0]
        if u:
            parts.append(u0 * v[0] + v0 * u[0])
        if len(u) > 1:
            d2 = _outer(u[0], v[0])
            d2 = d2 + d2.transpose(2, 3, 0, 1, 4)
            d2 += u0 * v[1]
            d2 += v0 * u[1]
            parts.append(d2)
        return _Jet(*parts)

    __rmul__ = __mul__

    def reciprocal(self):
        (u0, *u) = self.parts
        inv = 1.0 / u0
        parts = [inv]
        if u:
            parts.append(-inv**2 * u[0])
        if len(u) > 1:
            d2 = _outer(u[0], u[0])
            d2 *= 2.0 * inv**3
            d2 -= inv**2 * u[1]
            parts.append(d2)
        return _Jet(*parts)

    def __truediv__(self, other):
        if np.isscalar(other):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def squared(self):
        return self * self


def _outer(x, y):
    """(a, b, P) x (c, d, P) -> (a, b, c, d, P)."""
    return x[:, :, None, None] * y[None, None]


def _matmul(x, y):
    """Per-point matrix product of (d, d, P) arrays."""
    return (x[:, :, None] * y[None]).sum(axis=1)


def _seed_invariants(t, tau, k, names, order):
    """Jets of |T|^2, det T, |T^{-1}|^2, |T^t T|^2 at points-last T
    (d, d, P) with determinants tau (P,) and inverses k (d, d, P).

    Returns {name: jet} for the requested names among "frob2", "det",
    "invfrob2" and "ttfrob2", up to the given order (0, 1 or 2).  Second
    derivatives are summed in place, so that few (d, d, d, d, P) arrays
    are alive at once.
    """
    eye = np.eye(len(t))
    kt, tt = k.transpose(1, 0, 2), t.transpose(1, 0, 2)
    second = order >= 2
    parts = {}
    if "frob2" in names:
        parts["frob2"] = [np.einsum("abp,abp->p", t, t), 2.0 * t]
        if second:
            parts["frob2"].append(2.0 * np.einsum("ac,bd->abcd", eye, eye)[..., None])
    if "det" in names:
        parts["det"] = [tau, tau * kt]
        if second:
            d2 = _outer(kt, kt)
            d2 -= kt[:, None, None, :] * k[None, :, :, None]
            d2 *= tau
            parts["det"].append(d2)
    if "invfrob2" in names:
        parts["invfrob2"] = [np.einsum("abp,abp->p", k, k)]
        if order:
            b = _matmul(kt, k)
            m = _matmul(b, kt)
            parts["invfrob2"].append(-2.0 * m)
        if second:
            d2 = kt[:, None, None, :] * m.transpose(1, 0, 2)[None, :, :, None]
            d2 += b[:, None, :, None] * _matmul(k, kt)[None, :, None, :]
            d2 += m[:, None, None, :] * k[None, :, :, None]
            d2 *= 2.0
            parts["invfrob2"].append(d2)
    if "ttfrob2" in names:
        gram = _matmul(tt, t)
        parts["ttfrob2"] = [np.einsum("abp,abp->p", gram, gram), 4.0 * _matmul(t, gram)]
        if second:
            d2 = eye[:, None, :, None, None] * gram[None, :, None, :]
            d2 += t[:, None, None, :] * tt[None, :, :, None]
            d2 += eye[None, :, None, :, None] * _matmul(t, tt)[:, None, :, None]
            d2 *= 4.0
            parts["ttfrob2"].append(d2)
    return {name: _Jet(*jet[: order + 1]) for name, jet in parts.items()}


# Invariants each unblended metric is composed of.
_INVARIANTS = {
    "mu2": ("frob2", "det"),
    "mu58": ("frob2", "det", "ttfrob2"),
    "mu77": ("det",),
    "mu302": ("frob2", "invfrob2"),
    "mu316": ("det",),
}

# Blended metrics: (1 - gamma) * first + gamma * second.
_BLENDS = {"mu80": ("mu2", "mu77"), "mu333": ("mu302", "mu316")}


def _compose(metric_id, inv):
    """Jet of an unblended metric from its seeded invariant jets."""
    if metric_id == "mu2":
        return 0.5 * (inv["frob2"] / inv["det"]) - 1.0
    if metric_id == "mu58":
        inv_det = inv["det"].reciprocal()
        frob2, ttfrob2 = inv["frob2"], inv["ttfrob2"]
        return ttfrob2 * inv_det.squared() - 2.0 * (frob2 * inv_det) + 2.0
    if metric_id == "mu77":
        det = inv["det"]
        return 0.5 * (det - det.reciprocal()).squared()
    if metric_id == "mu302":
        return (inv["frob2"] * inv["invfrob2"]) / 9.0 - 1.0
    det = inv["det"]  # mu316
    return 0.5 * (det + det.reciprocal()) - 1.0


def _metric_jet(metric_id, t, gamma, order):
    """Parts of the metric's jet at T of shape (..., d, d), points first:
    (...,), (..., d, d) and (..., d, d, d, d), up to the given order.

    The jet itself is computed points last; d1 and d2 come back as
    views.  Raises NonpositiveDeterminantError if any det T <= 0.
    """
    parts = _BLENDS.get(metric_id, (metric_id,))
    if not all(part in _INVARIANTS for part in parts):
        raise ValueError(f"unknown metric id {metric_id!r}")
    t = np.asarray(t, dtype=float)
    batch, d = t.shape[:-2], t.shape[-1]
    t = np.ascontiguousarray(np.moveaxis(t, (-2, -1), (0, 1)).reshape(d, d, -1))
    tau, k = det_inv(np.moveaxis(t, (0, 1), (-2, -1)))
    if np.any(tau <= 0.0):
        raise NonpositiveDeterminantError(None, float(tau.min()))
    names = {name for part in parts for name in _INVARIANTS[part]}
    inv = _seed_invariants(t, tau, np.moveaxis(k, (-2, -1), (0, 1)), names, order)
    if len(parts) == 1:
        jet = _compose(metric_id, inv)
    else:
        first, second = (_compose(part, inv) for part in parts)
        jet = (1.0 - gamma) * first + gamma * second
    return [np.moveaxis(u, -1, 0).reshape(batch + u.shape[:-1]) for u in jet.parts]


@dataclass
class MetricEval:
    """Metric value with first and second derivatives in T."""

    value: float
    dmu: np.ndarray
    d2mu: np.ndarray


def metric_batch(metric_id, t, gamma=0.5, order=2):
    """Evaluate a metric on batched T of shape (..., d, d).

    Returns (values, dmu, d2mu) with shapes (...,), (..., d, d) and
    (..., d, d, d, d); d2mu is None when order=1.  Raises
    NonpositiveDeterminantError if any det T <= 0.
    """
    values, dmu, *d2mu = _metric_jet(metric_id, t, gamma, order)
    return values, dmu, d2mu[0] if d2mu else None


def metric(metric_id, t, gamma=0.5):
    """Evaluate a single d x d weighted Jacobian; see metric_batch."""
    value, dmu, d2mu = metric_batch(
        metric_id, np.asarray(t, dtype=float)[None, ...], gamma
    )
    return MetricEval(float(value[0]), dmu[0], d2mu[0])


def metric_values(metric_id, t, gamma=0.5):
    """Metric values only (the order-0 jet) on batched T; the line
    search's objective evaluations take this path."""
    return _metric_jet(metric_id, t, gamma, 0)[0]


# ---------------------------------------------------------------------------
# Target Jacobians


@dataclass
class TargetJacobians:
    """Per-element target matrices W (constant within an element)."""

    kind: str
    w: np.ndarray  # (num_elements, d, d)

    def __post_init__(self):
        self.winv = np.linalg.inv(self.w)
        self.detw = np.linalg.det(self.w)
        if np.any(self.detw <= 0.0):
            raise InvalidMeshError("target Jacobian with nonpositive determinant")

    @property
    def volumetric(self):
        """True when W carries size information (det has volume units)."""
        return self.kind == "ideal-shape-initial-size"


def _canonical_kind(kind):
    aliases = {
        "unit": "ideal-shape-unit-size",
        "unit-size": "ideal-shape-unit-size",
        "initial-size": "ideal-shape-initial-size",
        "size": "ideal-shape-initial-size",
    }
    kind = aliases.get(kind, kind)
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}")
    return kind


def make_targets(mesh, node_field, kind="ideal-shape-unit-size"):
    """Build per-element targets W = s^(1/d) W_ideal.

    s = 1 for unit-size targets; s = element volume / reference measure
    for initial-size targets, so det W carries each element's initial
    volume fraction.
    """
    kind = _canonical_kind(kind)
    valid, min_det = is_valid(mesh, node_field)
    if not valid:
        raise InvalidMeshError(
            f"initial mesh is invalid (min det A = {min_det:.3e})"
        )
    w_ideal = IDEAL_TARGETS[mesh.geometry]
    if kind == "ideal-shape-unit-size":
        scales = np.ones(mesh.num_elements)
    else:
        vols = element_volumes(mesh, node_field)
        scales = vols / REFERENCE_MEASURE[mesh.geometry]
    w = scales[:, None, None] ** (1.0 / mesh.dim) * w_ideal[None, :, :]
    return TargetJacobians(kind, w)
