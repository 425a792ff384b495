"""Target Jacobians and TMOP quality metrics with derivatives.

Metrics are scalar functions of the weighted Jacobian T = A W^{-1}.
Values, first derivatives dmu/dT and second derivatives d2mu/dT2 are
computed analytically by composing a few matrix invariants (|T|^2, det T,
|T^{-1}|^2, |T^t T|^2), each carried as a second-order jet.  The
invariants a metric needs are seeded once per batch, also for the
blended metrics mu80 and mu333.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMeshError, NonpositiveDeterminantError
from .mesh import element_volumes, is_valid
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
# Second-order jets of scalar functions of T


class _Jet:
    """Scalar value with first and second derivatives with respect to T.

    value: (...,); d1: (..., d, d); d2: (..., d, d, d, d) or None for a
    first-order-only jet.  Supports the arithmetic needed to compose
    quality metrics from invariants.
    """

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1, d2):
        self.value = value
        self.d1 = d1
        self.d2 = d2

    def __add__(self, other):
        if np.isscalar(other):
            return _Jet(self.value + other, self.d1, self.d2)
        d2 = None if self.d2 is None else self.d2 + other.d2
        return _Jet(self.value + other.value, self.d1 + other.d1, d2)

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            return _Jet(self.value - other, self.d1, self.d2)
        d2 = None if self.d2 is None else self.d2 - other.d2
        return _Jet(self.value - other.value, self.d1 - other.d1, d2)

    def __rsub__(self, other):
        return _Jet(other - self.value, -self.d1, None if self.d2 is None else -self.d2)

    def __mul__(self, other):
        if np.isscalar(other):
            return _Jet(
                self.value * other,
                self.d1 * other,
                None if self.d2 is None else self.d2 * other,
            )
        u, v = self, other
        u0 = u.value[..., None, None]
        v0 = v.value[..., None, None]
        if u.d2 is None:
            d2 = None
        else:
            cross = _outer(u.d1, v.d1)
            d2 = (
                u0[..., None, None] * v.d2
                + v0[..., None, None] * u.d2
                + cross
                + cross.transpose(*range(cross.ndim - 4), -2, -1, -4, -3)
            )
        return _Jet(u.value * v.value, u0 * v.d1 + v0 * u.d1, d2)

    __rmul__ = __mul__

    def reciprocal(self):
        inv = 1.0 / self.value
        inv2 = (inv**2)[..., None, None]
        if self.d2 is None:
            d2 = None
        else:
            inv3 = (inv**3)[..., None, None, None, None]
            d2 = -self.d2 * inv2[..., None, None] + 2.0 * inv3 * _outer(
                self.d1, self.d1
            )
        return _Jet(inv, -self.d1 * inv2, d2)

    def __truediv__(self, other):
        if np.isscalar(other):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def squared(self):
        return self * self


def _outer(x, y):
    """(..., a, b) x (..., c, d) -> (..., a, b, c, d)."""
    return x[..., :, :, None, None] * y[..., None, None, :, :]


def _seed_invariants(t, tau, names, order):
    """Jets of |T|^2, det T, |T^{-1}|^2, |T^t T|^2 for batched T with
    determinants tau.

    Returns {name: jet} for the requested names among "frob2", "det",
    "invfrob2" and "ttfrob2"; order=1 skips the second-derivative tensors.
    """
    d = t.shape[-1]
    eye = np.eye(d)
    k = np.linalg.inv(t)
    kt = np.swapaxes(k, -1, -2)
    second = order >= 2
    out = {}

    if "frob2" in names:
        frob2_d2 = None
        if second:
            frob2_d2 = (
                2.0
                * np.einsum("ac,bd->abcd", eye, eye)
                * np.ones_like(tau)[..., None, None, None, None]
            )
        out["frob2"] = _Jet(np.einsum("...ab,...ab->...", t, t), 2.0 * t, frob2_d2)

    if "det" in names:
        det_d2 = None
        if second:
            det_d2 = tau[..., None, None, None, None] * (
                np.einsum("...ab,...cd->...abcd", kt, kt)
                - np.einsum("...bc,...da->...abcd", k, k)
            )
        out["det"] = _Jet(tau, tau[..., None, None] * kt, det_d2)

    if "invfrob2" in names:
        m = kt @ k @ kt
        inv_d2 = None
        if second:
            b = kt @ k
            g = k @ kt
            inv_d2 = 2.0 * (
                np.einsum("...fc,...ed->...cdef", k, m)
                + np.einsum("...ce,...fd->...cdef", b, g)
                + np.einsum("...de,...cf->...cdef", k, m)
            )
        out["invfrob2"] = _Jet(np.einsum("...ab,...ab->...", k, k), -2.0 * m, inv_d2)

    if "ttfrob2" in names:
        tt = np.swapaxes(t, -1, -2) @ t
        q_d2 = None
        if second:
            ttt = t @ np.swapaxes(t, -1, -2)
            q_d2 = 4.0 * (
                np.einsum("ac,...db->...abcd", eye, tt)
                + np.einsum("...ad,...cb->...abcd", t, t)
                + np.einsum("bd,...ac->...abcd", eye, ttt)
            )
        out["ttfrob2"] = _Jet(np.einsum("...ab,...ab->...", tt, tt), 4.0 * t @ tt, q_d2)

    return out


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


def _metric_jet(metric_id, t, tau, gamma, order):
    parts = _BLENDS.get(metric_id, (metric_id,))
    if not all(part in _INVARIANTS for part in parts):
        raise ValueError(f"unknown metric id {metric_id!r}")
    names = {name for part in parts for name in _INVARIANTS[part]}
    inv = _seed_invariants(t, tau, names, order)
    if len(parts) == 1:
        return _compose(metric_id, inv)
    first, second = (_compose(part, inv) for part in parts)
    return (1.0 - gamma) * first + gamma * second


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
    t = np.asarray(t, dtype=float)
    tau = np.linalg.det(t)
    if np.any(tau <= 0.0):
        raise NonpositiveDeterminantError(None, float(tau.min()))
    jet = _metric_jet(metric_id, t, tau, gamma, order)
    return jet.value, jet.d1, jet.d2


def metric(metric_id, t, gamma=0.5):
    """Evaluate a single d x d weighted Jacobian; see metric_batch."""
    value, dmu, d2mu = metric_batch(
        metric_id, np.asarray(t, dtype=float)[None, ...], gamma
    )
    return MetricEval(float(value[0]), dmu[0], d2mu[0])


def metric_values(metric_id, t, gamma=0.5):
    """Metric values only (no derivatives) on batched T; cheap path for
    line-search objective evaluations."""
    t = np.asarray(t, dtype=float)
    tau = np.linalg.det(t)
    if np.any(tau <= 0.0):
        raise NonpositiveDeterminantError(None, float(tau.min()))
    if metric_id == "mu2":
        return 0.5 * np.einsum("...ab,...ab->...", t, t) / tau - 1.0
    if metric_id == "mu58":
        tt = np.swapaxes(t, -1, -2) @ t
        q = np.einsum("...ab,...ab->...", tt, tt)
        f = np.einsum("...ab,...ab->...", t, t)
        return q / tau**2 - 2.0 * f / tau + 2.0
    if metric_id == "mu77":
        return 0.5 * (tau - 1.0 / tau) ** 2
    if metric_id == "mu80":
        return (1.0 - gamma) * metric_values("mu2", t) + gamma * metric_values(
            "mu77", t
        )
    if metric_id == "mu302":
        k = np.linalg.inv(t)
        f = np.einsum("...ab,...ab->...", t, t)
        fi = np.einsum("...ab,...ab->...", k, k)
        return f * fi / 9.0 - 1.0
    if metric_id == "mu316":
        return 0.5 * (tau + 1.0 / tau) - 1.0
    if metric_id == "mu333":
        return (1.0 - gamma) * metric_values("mu302", t) + gamma * metric_values(
            "mu316", t
        )
    raise ValueError(f"unknown metric id {metric_id!r}")


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
