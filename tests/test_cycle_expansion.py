"""Cycle-expansion oracle for the leading eigenvalue of the transfer operator.

The Fredholm determinant det(1 - z L_s) = exp(-sum_n z^n/n tr L_s^n) of the
weight |F'|^{-s} is built from the periodic points alone (Ruelle 1976):
tr L_s^n = sum over F^n x = x of |(F^n)'(x)|^{-s} / (1 - 1/(F^n)'(x)). Its
coefficients follow from the traces by Newton's identities, and lambda(s)
is the reciprocal of the smallest root. The collocation eigenvalue of
`transfer` must agree with it away from s = 1 too.
"""

import numpy as np
import numpy.polynomial.polynomial as npp
from hypothesis import example, given, settings, strategies as st

from innerdyn.blaschke import BlaschkeMap
from innerdyn.spectral import leading_spectral_data
from innerdyn.transfer import assemble_operator
from periodic_oracle import periodic_points

PERIODS = 11   # truncation of the determinant; its error grows fast with |a|


def cycle_eigenvalue(F, s, periods=PERIODS):
    traces = []
    for n in range(1, periods + 1):
        mult = np.array([m for _, m in periodic_points(F, n)])
        traces.append(np.sum(mult ** (-s) / (1.0 - 1.0 / mult)))
    # k c_k = -sum_{j=1..k} tr(L^j) c_{k-j}, c_0 = 1
    coeffs = [1.0 + 0j]
    for k in range(1, periods + 1):
        coeffs.append(-sum(traces[j - 1] * coeffs[k - j] for j in range(1, k + 1)) / k)
    # the coefficients decay like |a|^(k^2/2); trailing ones below the
    # rounding of the largest only add huge spurious roots, and at a nearly
    # real s their tiny imaginary parts overflow the companion matrix
    coeffs = np.array(coeffs)
    top = np.flatnonzero(np.abs(coeffs) > 1e-16 * np.max(np.abs(coeffs)))[-1]
    roots = npp.polyroots(coeffs[:top + 1])
    return 1.0 / roots[np.argmin(np.abs(roots))]


def test_cycle_expansion_monomial():
    # z^2: every period-n point has multiplier 2^n, and lambda(s) = 2^(1-s)
    s = 1.5 + 0.5j
    assert abs(cycle_eigenvalue(BlaschkeMap.monomial(2), s) - 2.0 ** (1 - s)) < 1e-14


# The truncation error peaks at a = -|a| and s = 2 +- i. At period 11 it is
# 5.4e-10 for |a| = 0.4, 1.0e-5 for 0.5 and 1.7e-2 for 0.6 (period 10 gives
# 5.6e-8 already at 0.4), while N = 512 collocation is exact to 1e-14 here.
@given(st.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False),
       st.floats(0.5, 2.0), st.floats(-1.0, 1.0))
@example(-0.4, 2.0, -1.0)
@example(0.4, 0.5, 1.0)
@example(0.4j, 1.0, 0.0)
@settings(max_examples=7)
def test_cycle_expansion_matches_collocation(a, re_s, im_s):
    F = BlaschkeMap((0j, a))
    s = complex(re_s, im_s)
    lam = leading_spectral_data(assemble_operator(F, s, None, 512).matrix).lam
    assert abs(np.log(cycle_eigenvalue(F, s) / lam)) <= 1e-8
