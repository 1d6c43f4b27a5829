import math

import numpy as np
import pytest

from blowup_lab.auxiliary import sphere_area


def _sphere_quadrature(n, rho):
    """Phi_n(rho) = |S^(n-2)| int_0^pi e^(rho cos theta) sin^(n-2) theta dtheta
    by Gauss-Legendre quadrature, the node count growing with max |rho|: an
    evaluation independent of the closed forms, for n >= 2."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    x, w = np.polynomial.legendre.leggauss(max(64, int(0.8 * np.max(np.abs(rho))) + 32))
    theta, w = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w
    weight = w * np.sin(theta) ** (n - 2)
    return sphere_area(n - 2) * (np.exp(np.outer(rho, np.cos(theta))) @ weight)


@pytest.fixture
def sphere_quadrature():
    return _sphere_quadrature
