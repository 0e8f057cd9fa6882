"""A 30-digit reference for the Weierstrass functions, shared by the tests."""

import mpmath


class MpWeierstrass:
    """wp, zeta and the quasi-periods of the lattice {b1, b2} from
    mpmath.jtheta at 30 digits and nome exp(i*pi*b2/b1), evaluated at the
    point u - a, taken in mpmath from the doubles given, with no argument
    reduction."""

    def __init__(self, b1, b2):
        with mpmath.workdps(30):
            self.b1, self.b2 = mpmath.mpc(b1), mpmath.mpc(b2)
            self.q = mpmath.exp(1j * mpmath.pi * self.b2 / self.b1)
            self.c = mpmath.pi / self.b1
            d1 = mpmath.jtheta(1, 0, self.q, 1)
            d3 = mpmath.jtheta(1, 0, self.q, 3)
            # quasi-periods of b1/2 and b2/2, the second by the Legendre relation
            self.eta_b1 = -(mpmath.pi**2 / (6 * self.b1)) * d3 / d1
            self.eta_b2 = (self.eta_b1 * self.b2 - 1j * mpmath.pi) / self.b1

    def _theta(self, u):
        z = self.c * u
        return [mpmath.jtheta(1, z, self.q, k) for k in range(3)]

    def wp_mpc(self, u, a=0):
        """wp(u - a) as an mpc, for a difference taken before rounding;
        call it within mpmath.workdps(30)."""
        t0, t1, t2 = self._theta(mpmath.mpc(u) - mpmath.mpc(a))
        return -2 * self.eta_b1 / self.b1 + self.c**2 * ((t1 / t0) ** 2 - t2 / t0)

    def wp(self, u, a=0):
        with mpmath.workdps(30):
            return complex(self.wp_mpc(u, a))

    def zeta(self, u, a=0):
        with mpmath.workdps(30):
            v = mpmath.mpc(u) - mpmath.mpc(a)
            t0, t1, _ = self._theta(v)
            return complex(2 * self.eta_b1 * v / self.b1 + self.c * t1 / t0)
