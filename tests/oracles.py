"""An oracle independent of the contour engine: mpmath's Meijer G.

For an integer a, Gauss's multiplication formula gives
Gamma(an + b) = (2 pi)^{(1-a)/2} a^{an+b-1/2} prod_{i<a} Gamma(n + (b+i)/a),
so rho(n) = prod_j Gamma(a_j n + b_j) = K c^n prod_i Gamma(n + beta_i) with
c = prod_j a_j^{a_j}, beta_i = (b_j + i)/a_j and
K = prod_j (2 pi)^{(1-a_j)/2} a_j^{b_j-1/2}.  The density whose Mellin
transform is rho(s - 1) is then W(x) = (K/c) G^{M,0}_{0,M}(x/c | beta_i - 1),
M = sum_j a_j, which mpmath sums from its hypergeometric series, raising
its working precision where the series cancel.
"""

import mpmath

# decimal digits of mpmath's working precision: on every point the tests
# use, ln W rounds to the same double at 20 digits as at 40
_DPS = 20


def meijer_log_density(seq, log_x, angle=0.0):
    """ln W at x e^{-i angle}, for a sequence whose multipliers are integers.

    With angle 0 this is the float ln W(x).  Otherwise it is the complex
    ln W on W's Riemann surface, continued from the positive axis, so
    omega3(r, k, x) = sec^{r-1}(theta) Im W3(r, x sec^r(theta) e^{-i k pi})
    with theta = k pi / r takes angle = k pi.  An angle of 2 pi or more is
    a different branch than its remainder, so the argument z goes in as
    w = z^{1/8} with meijerg's r = 1/8, which sums the series in w^8 = z on
    the branch ln z = 8 ln w.
    """
    with mpmath.workdps(_DPS):
        log_k = log_c = mpmath.mpf(0)
        params = []
        for a, b in seq.factors:
            if not float(a).is_integer():
                raise ValueError(f"multiplier {a} is not an integer")
            a, b = int(a), mpmath.mpf(b)
            log_k += ((1 - a) * mpmath.log(2 * mpmath.pi) / 2
                      + (b - mpmath.mpf(1) / 2) * mpmath.log(a))
            log_c += a * mpmath.log(a)
            params += [(b + i) / a - 1 for i in range(a)]
        log_z = mpmath.mpf(log_x) - log_c - 1j * mpmath.mpf(angle)
        g = mpmath.meijerg([[], []], [params, []], mpmath.exp(log_z / 8),
                           r=mpmath.mpf(1) / 8)
        log_w = log_k - log_c + mpmath.log(g)
        return complex(log_w) if angle else float(mpmath.re(log_w))
