"""Target Jacobians and TMOP quality metrics with derivatives.

Metrics are scalar functions of invariants I_k of the weighted Jacobian
T = A W^{-1}: |T|^2, det T, |T^{-1}|^2, |T^t T|^2 and, in 2D, the
cancellation-free s = |T|^2 - 2 det T = (t00 - t11)^2 + (t01 + t10)^2.
A metric gives its value and scalar partials f_k, f_kl (mu80 and mu333
blend those of their parts), and the chain rule gives dmu = sum f_k dI_k
and d2mu = sum f_kl dI_k (x) dI_l + sum f_k d2I_k.  All runs points last,
T as (d, d, P).  Each invariant is seeded once per batch with value (P,),
d1 (d, d, P), held unscaled (2 T as T), and d2 as factor pairs X (x) Y
in the index patterns X[a,b] Y[c,f], X[a,c] Y[b,f] and X[a,f] Y[c,b]
plus a constant part, never as a dense array.  As d2mu[a, b, c, f] =
d2mu[c, f, a, b], only the component pairs (a, c), a <= c, of PAIRS[d]
are computed, into one contiguous (pair, b, f, P) array, written in
place pair by pair from views of the rows a and c of each factor pair
(see _second_derivative): besides the result, d2mu holds two (d, d, P)
temporaries.  Where the full (d, d, d, d) d2mu is needed, mirror_pairs
copies pair (a, c) to rows c, a transposed.  metric_values and metric_d2
are the order-0 and order-2 paths, with the same arithmetic as those
parts of metric_batch.  A target W_e = s_e^(1/d) W_ideal is one size
s_e per element.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMeshError, NonpositiveDeterminantError
from .mesh import element_volumes, is_valid
from .reference import IDEAL_TARGETS, REFERENCE_MEASURE, det, det_inv

# The mesh dimension each metric is defined for.
METRIC_DIM = {
    "mu2": 2, "mu58": 2, "mu77": 2, "mu80": 2,
    "mu302": 3, "mu316": 3, "mu333": 3,
}
METRIC_IDS = tuple(METRIC_DIM)

TARGET_KINDS = ("ideal-shape-unit-size", "ideal-shape-initial-size")

# ---------------------------------------------------------------------------
# Invariants and the chain rule, points last


class _Invariant(NamedTuple):
    """Value (P,), d1 = scale grad with grad (d, d, P), and d2 of an
    invariant: factor pairs (pattern, c, X, Y), each c X (x) Y, plus a
    constant (d, d, d, d) part.  scale is a power of two, which the chain
    rule folds into its coefficients exactly: 2 T of |T|^2 is held as T."""

    value: np.ndarray
    grad: np.ndarray = None
    scale: float = 1.0
    pairs: tuple = ()
    const: np.ndarray = None

    @property
    def d1(self):
        return self.grad if self.scale == 1.0 else self.scale * self.grad


def _sq(x):
    """|X|^2 per point of a (d, d, P) array."""
    return np.einsum("abp,abp->p", x, x)


def _matmul(x, y):
    """Per-point matrix product of (d, d, P) arrays, summed in j order."""
    out = x[:, 0, None] * y[0]
    for j in range(1, len(y)):
        out += x[:, j, None] * y[j]
    return out


def _seed_invariants(t, tau, k, names, order):
    """{name: _Invariant} at T (d, d, P) with det tau (P,) and inverse k
    (d, d, P): "det" and the names among "frob2" (|T|^2), "invfrob2"
    (|T^{-1}|^2), "ttfrob2" (|T^t T|^2) and "s"; d2 pairs at order 2."""
    d, second = len(t), order >= 2
    kt = k.transpose(1, 0, 2)
    d2frob2 = 2.0 * np.eye(d * d).reshape((d,) * 4)  # 2 delta_ac delta_bf
    # d2 det = tau (K^t[a,b] K^t[c,f] - K^t[a,f] K^t[c,b])
    dtau = tau * kt if order else None
    det_pairs = (("ab,cf", 1.0, dtau, kt), ("af,cb", -tau, kt, kt)) if second else ()
    inv = {"det": _Invariant(tau, dtau, pairs=det_pairs)}
    if "frob2" in names:
        inv["frob2"] = _Invariant(_sq(t), t if order else None, 2.0, const=d2frob2)
    if "s" in names:  # s = |T|^2 - 2 det T: d2s = d2|T|^2 - 2 d2 det
        u, v = t[0, 0] - t[1, 1], t[0, 1] + t[1, 0]
        d1 = 2.0 * np.array([[u, v], [v, -u]]) if order else None
        pairs = tuple((p, -2.0 * c, x, y) for p, c, x, y in det_pairs)
        inv["s"] = _Invariant(u * u + v * v, d1, pairs=pairs, const=d2frob2)
    if "invfrob2" in names:
        b = _matmul(kt, k) if order else None
        m = _matmul(b, kt) if order else None  # K^t K K^t
        pairs = (("af,cb", 2.0, kt, m), ("ac,bf", 2.0, b, _matmul(k, kt)),
                 ("af,cb", 2.0, m, kt)) if second else ()
        inv["invfrob2"] = _Invariant(_sq(k), m, -2.0, pairs)
    if "ttfrob2" in names:
        tt = t.transpose(1, 0, 2)
        gram = _matmul(tt, t)
        eye = np.eye(d)[:, :, None]
        pairs = (("ac,bf", 4.0, eye, gram), ("af,cb", 4.0, t, t),
                 ("ac,bf", 4.0, _matmul(t, tt), eye)) if second else ()
        inv["ttfrob2"] = _Invariant(_sq(gram), _matmul(t, gram) if order else None, 4.0, pairs)
    return inv


def _ratio(mu, x, r, tau, phi1, phi2):
    """mu = phi(r), r = x / tau, with partials from phi'(r) and phi''(r)."""
    inv2 = 1.0 / (tau * tau)
    f = {x: phi1 / tau, "det": -phi1 * r / tau}
    f2 = {(x, x): phi2 * inv2, (x, "det"): -(phi2 * r + phi1) * inv2,
          ("det", "det"): (phi2 * r + 2.0 * phi1) * r * inv2}
    return mu, f, f2


def _mu2(v):
    """|T|^2 / (2 tau) - 1; in 2D s / (2 tau), free of cancellation."""
    x = "s" if "s" in v else "frob2"
    r = v[x] / v["det"]
    return _ratio(0.5 * r if x == "s" else 0.5 * r - 1.0, x, r, v["det"], 0.5, 0.0)


def _mu58(v):
    """|T^t T|^2 / tau^2 - 2 |T|^2 / tau + 2; in 2D (s / tau)^2 + 2 s / tau."""
    tau = v["det"]
    if "s" in v:
        r = v["s"] / tau
        return _ratio(r * (r + 2.0), "s", r, tau, 2.0 * r + 2.0, 2.0)
    i4, i1, inv = v["ttfrob2"], v["frob2"], 1.0 / tau
    inv2 = inv * inv
    f = {"ttfrob2": inv2, "frob2": -2.0 * inv, "det": (2.0 * i1 - 2.0 * i4 * inv) * inv2}
    f2 = {("ttfrob2", "det"): -2.0 * inv2 * inv, ("frob2", "det"): 2.0 * inv2,
          ("det", "det"): (6.0 * i4 * inv - 4.0 * i1) * inv2 * inv}
    return i4 * inv * inv - 2.0 * (i1 * inv) + 2.0, f, f2


def _mu77(v):
    """(tau - 1/tau)^2 / 2."""
    inv = 1.0 / v["det"]
    u, du = v["det"] - inv, 1.0 + inv * inv
    return 0.5 * (u * u), {"det": u * du}, {("det", "det"): du * du - 2.0 * u * inv**3}


def _mu302(v):
    """|T|^2 |T^{-1}|^2 / 9 - 1."""
    i1, i3 = v["frob2"], v["invfrob2"]
    f = {"frob2": i3 / 9.0, "invfrob2": i1 / 9.0}
    return i1 * i3 / 9.0 - 1.0, f, {("frob2", "invfrob2"): 1.0 / 9.0}


def _mu316(v):
    """(tau + 1/tau) / 2 - 1."""
    inv = 1.0 / v["det"]
    return 0.5 * (v["det"] + inv) - 1.0, {"det": 0.5 - 0.5 * inv * inv}, {("det", "det"): inv**3}


# Each metric maps the invariant values {name: (P,)} to its value and its
# partials: (mu, {k: f_k}, {(k, l): f_kl}), each unordered pair k, l once.
_METRICS = {"mu2": _mu2, "mu58": _mu58, "mu77": _mu77, "mu302": _mu302, "mu316": _mu316}

# Invariants of each unblended metric; in 2D s replaces |T|^2 and |T^t T|^2.
_INVARIANTS = {"mu2": ("frob2", "det"), "mu58": ("frob2", "det", "ttfrob2"),
               "mu77": ("det",), "mu302": ("frob2", "invfrob2"), "mu316": ("det",)}
_INVARIANTS_2D = {**_INVARIANTS, "mu2": ("s", "det"), "mu58": ("s", "det")}

# Blended metrics: (1 - gamma) * first + gamma * second.
_BLENDS = {"mu80": ("mu2", "mu77"), "mu333": ("mu302", "mu316")}

# The component pairs (a, c), a <= c, in which d2mu is stored, per d.
PAIRS = {d: np.triu_indices(d) for d in (1, 2, 3)}


def _second_derivative(inv, f, f2, shape):
    """d2mu at T of shape (d, d, P) as its symmetric component pairs
    (pair, b, f, P): entry [p, b, f] is d2mu[a, b, c, f] for the p-th pair
    (a, c) of PAIRS[d].  The outer products enter as dI_k (x) h_k,
    h_k = sum_l f_kl dI_l, and the terms of a pattern that share X are
    merged into X (x) sum c Y.  Each merged term is written pair by pair,
    as one product of views of the rows a of X and c of Y: the first term
    into d2, the others into one (d, d, P) temporary added to d2, so that
    besides d2 only sum c Y and that temporary are alive; constant parts
    are added on their nonzeros only."""
    d, n = shape[0], shape[-1]
    ia, ic = PAIRS[d]
    pairs = [("ab,cf", fkl * inv[i].scale * inv[j].scale, inv[i].grad, inv[j].grad)
             for (k, l), fkl in f2.items() for i, j in dict.fromkeys([(k, l), (l, k)])]
    pairs += [(pattern, c * f[k], x, y) for k in f for pattern, c, x, y in inv[k].pairs]
    terms = {}  # (pattern, id(X)) -> (pattern, X, [(c, Y), ...])
    for pattern, c, x, y in pairs:
        terms.setdefault((pattern, id(x)), (pattern, x, []))[2].append((c, y))
    d2 = np.empty((len(ia), d, d, n))
    y, product = np.empty((d, d, n)), np.empty((d, d, n))
    for i, (pattern, x, cys) in enumerate(terms.values()):
        np.multiply(*cys[0], out=y)
        for c, yk in cys[1:]:
            np.multiply(c, yk, out=product)
            y += product  # c Y_k + y: the sum commutes bit for bit
        for p, (a, c) in enumerate(zip(ia, ic)):
            out = product if i else d2[p]
            if pattern == "ab,cf":  # X[a, b] Y[c, f]
                np.multiply(x[a][:, None], y[c], out=out)
            elif pattern == "ac,bf":  # X[a, c] Y[b, f]
                np.multiply(x[a, c], y, out=out)
            else:  # "af,cb": X[a, f] Y[c, b]
                np.multiply(y[c][:, None], x[a], out=out)
            if i:
                d2[p] += product
    flat = d2.reshape(-1, n)
    for k, fk in f.items():
        if inv[k].const is not None:
            const = inv[k].const[ia, :, ic].ravel()
            for row in np.flatnonzero(const):
                flat[row] += const[row] * fk
    return d2


def mirror_pairs(pairs):
    """The full d2mu (..., d, d, d, d) of its pairs (..., pair, d, d) as
    metric_batch returns them: d2mu[a, b, c, f] is pair (a, c) at [b, f]
    for a <= c and, by the symmetry of d2mu, pair (c, a) at [f, b] for
    a > c."""
    d = pairs.shape[-1]
    ia, ic = PAIRS[d]
    full = np.empty(pairs.shape[:-3] + (d,) * 4)
    p = np.moveaxis(pairs, -3, 0)
    full[..., ic, :, ia, :] = np.swapaxes(p, -1, -2)
    full[..., ia, :, ic, :] = p
    return full


def _metric_derivatives(metric_id, t, gamma, orders):
    """Value, dmu and the pairs of d2mu at T (..., d, d), those of the given
    orders, as points-first views (...,), (..., d, d), (..., pair, d, d) of
    the points-last arrays.  Raises NonpositiveDeterminantError if det T <= 0."""
    parts = _BLENDS.get(metric_id, (metric_id,))
    if not all(part in _METRICS for part in parts):
        raise ValueError(f"unknown metric id {metric_id!r}")
    t = np.asarray(t, dtype=float)
    batch, d = t.shape[:-2], t.shape[-1]
    t = np.ascontiguousarray(np.moveaxis(t, (-2, -1), (0, 1)).reshape(d, d, -1))
    tau, k = det_inv(np.moveaxis(t, (0, 1), (-2, -1)))
    if np.any(tau <= 0.0):
        raise NonpositiveDeterminantError(None, float(tau.min()))
    names = {n for p in parts for n in (_INVARIANTS_2D if d == 2 else _INVARIANTS)[p]}
    inv = _seed_invariants(t, tau, np.moveaxis(k, (-2, -1), (0, 1)), names, max(orders))
    values = {name: i.value for name, i in inv.items()}
    mu, f, f2 = 0.0, {}, {}
    for part, weight in zip(parts, (1.0 - gamma, gamma) if len(parts) > 1 else (1.0,)):
        part_mu, *partials = _METRICS[part](values)
        mu = mu + weight * part_mu
        for total, part_f in zip((f, f2), partials):
            total.update({k: total.get(k, 0.0) + weight * v for k, v in part_f.items()})
    out = [mu] if 0 in orders else []
    if 1 in orders:
        dmu = np.zeros_like(t)  # from 0 as a sum: -0.0 terms read +0.0
        for k, fk in f.items():
            dmu += fk * inv[k].scale * inv[k].grad
        out.append(dmu)
    if 2 in orders:
        out.append(_second_derivative(inv, f, f2, t.shape))
    return [np.moveaxis(u, -1, 0).reshape(batch + u.shape[:-1]) for u in out]


@dataclass
class MetricEval:
    """Metric value with first and second derivatives in T."""

    value: float
    dmu: np.ndarray
    d2mu: np.ndarray


def metric_batch(metric_id, t, gamma=0.5, order=2):
    """Evaluate a metric on batched T of shape (..., d, d).

    Returns (values, dmu, d2) with shapes (...,), (..., d, d) and
    (..., d (d + 1) / 2, d, d): d2 holds d2mu by its symmetric component
    pairs (see _second_derivative; mirror_pairs gives the full
    (..., d, d, d, d) array), and is None when order=1.  Raises
    NonpositiveDeterminantError if any det T <= 0.
    """
    values, dmu, *d2mu = _metric_derivatives(metric_id, t, gamma, range(order + 1))
    return values, dmu, d2mu[0] if d2mu else None


def metric(metric_id, t, gamma=0.5):
    """Evaluate a single d x d weighted Jacobian; see metric_batch."""
    value, dmu, d2 = metric_batch(metric_id, np.asarray(t, dtype=float)[None, ...], gamma)
    return MetricEval(float(value[0]), dmu[0], mirror_pairs(d2[0]))


def metric_values(metric_id, t, gamma=0.5):
    """Metric values only (the order-0 path) on batched T; the line
    search's objective evaluations take this path."""
    return _metric_derivatives(metric_id, t, gamma, (0,))[0]


def metric_d2(metric_id, t, gamma=0.5):
    """metric_batch's d2 alone, with no values or dmu: the Hessian's path."""
    return _metric_derivatives(metric_id, t, gamma, (2,))[0]


# ---------------------------------------------------------------------------
# Target Jacobians

_IDEAL_DET = {geometry: float(det(w)) for geometry, w in IDEAL_TARGETS.items()}


@dataclass
class TargetJacobians:
    """Per-element targets W_e = size_e^(1/d) W_ideal, constant within an
    element: size_e = det W_e / det W_ideal is 1 for unit-size targets and
    the initial volume over the reference measure for initial-size ones."""

    kind: str
    size: np.ndarray  # (num_elements,)

    def __post_init__(self):
        if not np.all((self.size > 0.0) & (self.size < np.inf)):
            raise InvalidMeshError("target size must be finite and positive")

    @property
    def volumetric(self):
        """True when W carries size information (det has volume units)."""
        return self.kind == "ideal-shape-initial-size"

    def det(self, geometry):
        """det W_e = size_e det W_ideal, shape (num_elements,)."""
        return self.size * _IDEAL_DET[geometry]


def make_targets(mesh, node_field, kind="ideal-shape-unit-size"):
    """Build per-element targets W = s^(1/d) W_ideal.

    s = 1 for unit-size targets; s = element volume / reference measure
    for initial-size targets, so det W carries each element's initial
    volume fraction.
    """
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}")
    valid, min_det = is_valid(mesh, node_field)
    if not valid:
        raise InvalidMeshError(
            f"initial mesh is invalid (min det A = {min_det:.3e})"
        )
    if kind == "ideal-shape-unit-size":
        return TargetJacobians(kind, np.ones(mesh.num_elements))
    size = element_volumes(mesh, node_field) / REFERENCE_MEASURE[mesh.geometry]
    return TargetJacobians(kind, size)
