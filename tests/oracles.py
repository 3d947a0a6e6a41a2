"""Oracles shared by the test modules: fixed, fine Gauss-Legendre rules
written out here, independent of the production quadrature."""

import math

import numpy as np

from specpoint.arith import divisors
from specpoint.besselintegral import weight_h
from specpoint.specfun import eisenstein_density


def eisenstein_gauss_oracle(values, ns, sw, panels=1000, order=32):
    """(2/pi) int_0^{t_upper} omega(t) h(t) |sum_n a_n sigma_{2it}(n)|^2 dt
    on panels equal panels with an order-point Gauss-Legendre rule each,
    sigma_{2it}(n) summed over the divisors d as e^{2it log d}."""
    x, w = np.polynomial.legendre.leggauss(order)
    h = sw.t_upper / (2 * panels)
    mids = h * (2 * np.arange(panels) + 1)
    ts, ws = (mids[:, None] + h * x).ravel(), np.tile(h * w, panels)
    sums = np.zeros(ts.size, dtype=complex)
    for a, n in zip(values, ns):
        for d in divisors(int(n)):
            sums += a * np.exp(2j * ts * math.log(d))
    integrand = eisenstein_density(ts) * weight_h(ts, sw) * np.abs(sums) ** 2
    return 2.0 / math.pi * float(ws @ integrand)
