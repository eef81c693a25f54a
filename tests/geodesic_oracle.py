"""Geodesic-shooting reference for model-plane time separations.

Independent of the quadric bilinear form that `lorentzgh.curvature` uses:
the tests compare `model_ell` and the closed-form comparison placements
against it.
"""

import math

from lorentzgh.curvature import ModelPoint
from lorentzgh.errors import SolverDiverged


def geodesic_tau_oracle(K: float, p: ModelPoint, q: ModelPoint) -> float:
    """Proper time along the connecting timelike geodesic, by shooting.

    Independent of the bilinear-form path: the expanding models (K < 0)
    integrate the reduced quadrature in the time coordinate, the refocusing
    models (K > 0) shoot the full geodesic ODE over the initial rapidity.
    """
    from scipy.integrate import quad, solve_ivp
    from scipy.optimize import brentq

    if K == 0:
        dt = q.coords[0] - p.coords[0]
        dx = q.coords[1] - p.coords[1]
        return math.sqrt(dt * dt - dx * dx)

    if K < 0:
        r = 1.0 / math.sqrt(-K)
        a1, a2 = p.coords[0] / r, q.coords[0] / r
        dth = q.coords[1] - p.coords[1]
        if a2 <= a1 and dth == 0:
            return 0.0

        def theta_gain(J):
            val, _ = quad(lambda u: (J / math.cosh(u) ** 2)
                          / math.sqrt(1 + J * J / math.cosh(u) ** 2), a1, a2,
                          limit=200)
            return val - dth

        hi = 1.0
        while theta_gain(hi) < 0:
            hi *= 2
            if hi > 1e8:
                raise SolverDiverged("oracle shooting failed (expanding model)")
        lo = -1.0
        while theta_gain(lo) > 0:
            lo *= 2
            if lo < -1e8:
                raise SolverDiverged("oracle shooting failed (expanding model)")
        J = brentq(theta_gain, lo, hi, xtol=1e-14)
        val, _ = quad(lambda u: 1.0 / math.sqrt(1 + J * J / math.cosh(u) ** 2),
                      a1, a2, limit=200)
        return r * val

    r = 1.0 / math.sqrt(K)
    T1, r1 = p.coords
    T2, r2 = q.coords

    def shoot(chi):
        # unit timelike initial velocity: T' = cosh(chi)/cosh(rho), rho' = sinh(chi)
        def rhs(_, state):
            T, rho, Tp, rp = state
            return [Tp, rp,
                    -2 * math.tanh(rho) * Tp * rp,
                    -math.cosh(rho) * math.sinh(rho) * Tp * Tp]

        def hit(_, state):
            return state[0] - T2
        hit.terminal = True
        hit.direction = 1
        v0 = [T1, r1, math.cosh(chi) / math.cosh(r1), math.sinh(chi)]
        sol = solve_ivp(rhs, (0.0, 4.0 * math.pi), v0, events=hit,
                        rtol=1e-11, atol=1e-12, dense_output=True)
        if not sol.t_events[0].size:
            return None, None
        s_hit = float(sol.t_events[0][0])
        rho_hit = float(sol.y_events[0][0][1])
        return s_hit, rho_hit

    def miss(chi):
        _, rho_hit = shoot(chi)
        if rho_hit is None:
            raise SolverDiverged("oracle shooting failed (K < 0)")
        return rho_hit - r2

    lo, hi = -5.0, 5.0
    flo, fhi = miss(lo), miss(hi)
    if flo * fhi > 0:
        raise SolverDiverged("oracle bracketing failed (K < 0)")
    chi = brentq(miss, lo, hi, xtol=1e-13)
    s_hit, _ = shoot(chi)
    return r * s_hit
