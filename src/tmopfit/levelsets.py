"""Built-in analytic level sets for the bundled test cases.

All functions are negative inside the enclosed region and zero on the
surface of interest.  Gradients are closed-form; the sphere also
carries a closed-form Hessian, the others use the finite-difference
fallback of AnalyticLevelSet.
"""

import numpy as np

from .fields import AnalyticLevelSet


def sphere(center, radius=0.3):
    """Distance to a sphere/circle: |x - c| - r."""
    c = np.asarray(center, dtype=float)
    dim = len(c)

    def fn(p):
        return np.linalg.norm(p - c, axis=1) - radius

    def grad(p):
        u = p - c
        rho = np.linalg.norm(u, axis=1)
        return u / rho[:, None]

    def hess(p):
        u = p - c
        rho = np.linalg.norm(u, axis=1)
        uhat = u / rho[:, None]
        eye = np.eye(dim)
        return (eye[None, :, :] - uhat[:, :, None] * uhat[:, None, :]) / rho[
            :, None, None
        ]

    return AnalyticLevelSet("sphere", dim, fn, grad, hess)


def radial_wave_2d(center=(0.5, 0.5), r0=0.3, amp=0.08, modes=4):
    """Smooth closed curve |x - c| - (r0 + amp cos(modes * theta))."""
    c = np.asarray(center, dtype=float)

    def fn(p):
        u = p - c
        theta = np.arctan2(u[:, 1], u[:, 0])
        return np.linalg.norm(u, axis=1) - (r0 + amp * np.cos(modes * theta))

    def grad(p):
        u = p - c
        rho2 = np.einsum("na,na->n", u, u)
        rho = np.sqrt(rho2)
        theta = np.arctan2(u[:, 1], u[:, 0])
        dtheta = np.zeros_like(u)
        np.divide(-u[:, 1], rho2, out=dtheta[:, 0], where=rho2 > 0)
        np.divide(u[:, 0], rho2, out=dtheta[:, 1], where=rho2 > 0)
        rprime = -amp * modes * np.sin(modes * theta)
        return u / rho[:, None] - rprime[:, None] * dtheta

    return AnalyticLevelSet("sinusoid-interface", 2, fn, grad)


def radial_wave_3d(center=(0.5, 0.5, 0.5), r0=0.3, amp=0.08, modes=4):
    """Closed 3D surface |x - c| - (r0 + amp cos(modes*theta) sin(phi)^4).

    The sin(phi)^4 factor keeps the radius function smooth at the poles.
    """
    c = np.asarray(center, dtype=float)

    def _parts(p):
        u = p - c
        rho = np.linalg.norm(u, axis=1)
        rho2d = np.linalg.norm(u[:, :2], axis=1)
        theta = np.arctan2(u[:, 1], u[:, 0])
        # sin of the polar angle; 0 at the (never marked) center point
        s = np.divide(rho2d, rho, out=np.zeros_like(rho), where=rho > 0)
        return u, rho, rho2d, theta, s

    def fn(p):
        _, rho, _, theta, s = _parts(p)
        return rho - (r0 + amp * np.cos(modes * theta) * s**4)

    def grad(p):
        u, rho, rho2d, theta, s = _parts(p)
        g = u / rho[:, None]
        # Angular terms vanish like s^2 at the poles; guard the 0/0 there.
        offaxis = rho2d > 0
        dtheta = np.zeros_like(u)
        np.divide(-u[:, 1], rho2d**2, out=dtheta[:, 0], where=offaxis)
        np.divide(u[:, 0], rho2d**2, out=dtheta[:, 1], where=offaxis)
        ds = np.zeros_like(u)
        np.divide(u[:, 0], rho2d * rho, out=ds[:, 0], where=offaxis)
        np.divide(u[:, 1], rho2d * rho, out=ds[:, 1], where=offaxis)
        ds[:, 0] -= rho2d * u[:, 0] / rho**3
        ds[:, 1] -= rho2d * u[:, 1] / rho**3
        ds[:, 2] = -rho2d * u[:, 2] / rho**3
        dr = amp * (
            -modes * np.sin(modes * theta)[:, None] * dtheta * (s**4)[:, None]
            + np.cos(modes * theta)[:, None] * 4.0 * (s**3)[:, None] * ds
        )
        return g - dr

    return AnalyticLevelSet("sinusoid-interface", 3, fn, grad)


def layer_wave_2d(base=0.5, amp1=0.1, amp2=0.02, k1=2.0, k2=10.0):
    """Horizontal layer x2 = base + amp1 cos(pi k1 x1) + amp2 cos(pi k2 x1).

    The k2 term is a fine-scale feature on top of the smooth k1 mode.
    """

    def height(x):
        return base + amp1 * np.cos(np.pi * k1 * x) + amp2 * np.cos(np.pi * k2 * x)

    def dheight(x):
        return -amp1 * np.pi * k1 * np.sin(np.pi * k1 * x) - amp2 * np.pi * k2 * np.sin(
            np.pi * k2 * x
        )

    def fn(p):
        return p[:, 1] - height(p[:, 0])

    def grad(p):
        g = np.zeros_like(p)
        g[:, 0] = -dheight(p[:, 0])
        g[:, 1] = 1.0
        return g

    return AnalyticLevelSet("sinusoid-interface", 2, fn, grad)


def layer_wave_3d(base=0.5, amp1=0.1, amp2=0.02, k1=2.0, k2=10.0):
    """3D layer x3 = base + amp1 cos(pi k1 x1) cos(pi k1 x2) + fine mode."""

    def height(x, y):
        return (
            base
            + amp1 * np.cos(np.pi * k1 * x) * np.cos(np.pi * k1 * y)
            + amp2 * np.cos(np.pi * k2 * x) * np.cos(np.pi * k2 * y)
        )

    def fn(p):
        return p[:, 2] - height(p[:, 0], p[:, 1])

    def grad(p):
        x, y = p[:, 0], p[:, 1]
        g = np.zeros_like(p)
        g[:, 0] = amp1 * np.pi * k1 * np.sin(np.pi * k1 * x) * np.cos(
            np.pi * k1 * y
        ) + amp2 * np.pi * k2 * np.sin(np.pi * k2 * x) * np.cos(np.pi * k2 * y)
        g[:, 1] = amp1 * np.pi * k1 * np.cos(np.pi * k1 * x) * np.sin(
            np.pi * k1 * y
        ) + amp2 * np.pi * k2 * np.cos(np.pi * k2 * x) * np.sin(np.pi * k2 * y)
        g[:, 2] = 1.0
        return g

    return AnalyticLevelSet("sinusoid-interface", 3, fn, grad)


_BUILTINS = {
    "sphere2d": lambda: sphere((0.5, 0.5)),
    "sphere3d": lambda: sphere((0.5, 0.5, 0.5)),
    "tg2d": radial_wave_2d,
    "tg3d": radial_wave_3d,
    "rt2d": layer_wave_2d,
    "rt3d": layer_wave_3d,
}


def builtin_levelset(name):
    """Named level sets used by the bundled cases."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown level set {name!r}; available: {sorted(_BUILTINS)}"
        ) from None
