"""Built-in analytic level sets for the bundled test cases.

All functions are negative inside the enclosed region (below the layer)
and zero on the surface of interest.  Values, gradients and Hessians
are closed-form; each Hessian is exactly symmetric.
"""

import numpy as np

from .fields import AnalyticLevelSet

_WAVE_RADIUS, _WAVE_AMPLITUDE = 0.3, 0.08
_LAYER_BASE = 0.5
# (amplitude, wavenumber / pi) of each layer mode; the second is a
# fine-scale feature on top of the smooth first one.
_LAYER_MODES = ((0.1, 2.0), (0.02, 10.0))


def sphere(center, radius=0.3):
    """Distance to a sphere/circle: |x - c| - r.

    The distance has no derivative at the center, which can be a mesh
    node; the derivatives there are 0, as for radial_wave.
    """
    c = np.asarray(center, dtype=float)
    dim = len(c)
    eye = np.eye(dim)

    def _over_rho(p, x):
        # x / |p - c| with the last axes of x broadcast, 0 at the center.
        rho = np.linalg.norm(p - c, axis=1).reshape((-1,) + (1,) * (x.ndim - 1))
        return np.divide(x, rho, out=np.zeros_like(x), where=rho > 0)

    def fn(p):
        return np.linalg.norm(p - c, axis=1) - radius

    def grad(p):
        return _over_rho(p, p - c)

    def hess(p):
        uhat = grad(p)
        return _over_rho(p, eye - uhat[:, :, None] * uhat[:, None, :])

    return AnalyticLevelSet(dim, fn, grad, hess)


def radial_wave(center):
    """Closed curve or surface |u| - (r0 + amp cos(4 theta) sin(phi)^4),
    u = x - c, with sin(phi) = 1 in 2D.

    In both dimensions amp cos(4 theta) sin(phi)^4 = amp P(u) / |u|^4
    with the harmonic quartic P(u) = Re((u0 + i u1)^4), so no angle is
    formed and the surface is smooth at the poles.  The wave has no
    limit at the center, which is a mesh node; the value there is -r0
    and the derivatives are 0.
    """
    c = np.asarray(center, dtype=float)
    dim = len(c)
    eye = np.eye(dim)

    def _parts(p):
        u = p - c
        rho = np.linalg.norm(u, axis=1)
        inv = np.divide(1.0, rho, out=np.zeros_like(rho), where=rho > 0)
        return u, rho, inv, u[:, 0] + 1j * u[:, 1]

    def _quartic_gradient(z):
        dp = np.zeros((len(z), dim))  # (4 Re z^3, -4 Im z^3, 0)
        dp[:, 0], dp[:, 1] = 4.0 * (z**3).real, -4.0 * (z**3).imag
        return dp

    def fn(p):
        _, rho, inv, z = _parts(p)
        return rho - _WAVE_RADIUS - _WAVE_AMPLITUDE * (z**4).real * inv**4

    def grad(p):
        u, _, inv, z = _parts(p)
        dq = -4.0 * (inv**6)[:, None] * u  # gradient of |u|^-4
        wave = _quartic_gradient(z) * (inv**4)[:, None] + (z**4).real[:, None] * dq
        return u * inv[:, None] - _WAVE_AMPLITUDE * wave

    def hess(p):
        u, _, inv, z = _parts(p)
        inv2, inv4 = (inv**2)[:, None, None], (inv**4)[:, None, None]
        uu = u[:, :, None] * u[:, None, :]
        hp = np.zeros((len(u), dim, dim))  # 12 [[Re, -Im], [-Im, -Re]] of z^2
        hp[:, 0, 0], hp[:, 1, 1] = 12.0 * (z**2).real, -12.0 * (z**2).real
        hp[:, 0, 1] = hp[:, 1, 0] = -12.0 * (z**2).imag
        dp, dq = _quartic_gradient(z), -4.0 * (inv**6)[:, None] * u
        hq = (24.0 * uu * inv2 - 4.0 * eye) * inv4 * inv2  # Hessian of |u|^-4
        wave = (
            hp * inv4
            + (dp[:, :, None] * dq[:, None, :] + dq[:, :, None] * dp[:, None, :])
            + (z**4).real[:, None, None] * hq
        )
        return (eye - uu * inv2) * inv[:, None, None] - _WAVE_AMPLITUDE * wave

    return AnalyticLevelSet(dim, fn, grad, hess)


def _layer_factors(p, k, cols=()):
    """Product over i < d of sin(pi k x_i) for i in cols and of
    cos(pi k x_i) for the other i."""
    arg = np.pi * k * p[:, :-1]
    f = np.cos(arg)
    f[:, list(cols)] = np.sin(arg[:, list(cols)])
    return np.prod(f, axis=1)


def layer_wave(dim):
    """Layer x_d = base + sum_j a_j prod_(i<d) cos(pi k_j x_i)."""

    def fn(p):
        height = _LAYER_BASE
        for a, k in _LAYER_MODES:
            height = height + a * _layer_factors(p, k)
        return p[:, -1] - height

    def grad(p):
        g = np.zeros_like(p)
        g[:, -1] = 1.0
        for a, k in _LAYER_MODES:
            for m in range(dim - 1):
                g[:, m] += a * np.pi * k * _layer_factors(p, k, [m])
        return g

    def hess(p):
        h = np.zeros((len(p), dim, dim))
        for a, k in _LAYER_MODES:
            scale = a * (np.pi * k) ** 2
            diagonal = scale * _layer_factors(p, k)
            for m in range(dim - 1):
                h[:, m, m] += diagonal
                for n in range(m + 1, dim - 1):
                    h[:, m, n] -= scale * _layer_factors(p, k, [m, n])
                    h[:, n, m] = h[:, m, n]
        return h

    return AnalyticLevelSet(dim, fn, grad, hess)


BUILTIN_LEVELSETS = {
    "sphere2d": lambda: sphere((0.5, 0.5)),
    "sphere3d": lambda: sphere((0.5, 0.5, 0.5)),
    "tg2d": lambda: radial_wave((0.5, 0.5)),
    "tg3d": lambda: radial_wave((0.5, 0.5, 0.5)),
    "rt2d": lambda: layer_wave(2),
    "rt3d": lambda: layer_wave(3),
}


def builtin_levelset(name):
    """Named level sets used by the bundled cases."""
    try:
        return BUILTIN_LEVELSETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown level set {name!r}; available: {sorted(BUILTIN_LEVELSETS)}"
        ) from None
