"""Independent numerical oracles used by the test suite.

Every derived expectation in the tests is pinned by one of these oracles
rather than by the code under test: periods come from an energy quadrature,
divisor roots from exact-rational bisection, derivatives from centered
differences, and orbits and monodromy from DOP853 integrations of the
limit oscillator, from SciPy's Cephes Jacobi elliptic functions, and
from 50-digit `mpmath` (the package sums the closed form's nome series).
None of the functions below import from the package's numerical core
except where a plain trajectory integration is unavoidable (orbit and
flow-map oracles), and there only through the planar ODE right-hand side
written in place.
The exceptions are the dense references for the Newton solve:
`assemble_L` reuses the package's multiplier samples (`collocate`) and
symbol but
assembles every matrix entry by its own route on the full grid, and
`oracle_newton_solve` runs undamped Newton over every coefficient (both
parities of j and of k) on the full-grid residual `oracle_assemble_F`
with a finite-difference Jacobian; the full-grid forms
`oracle_assemble_F`, `oracle_multiplier_coeffs` and `oracle_galerkin_v`
of the package's quarter-wave `assemble_F`, multiplier coefficients and
`galerkin_v`, which collocate on uniform grids over whole periods with
the package's `collocate` and tables; and the dense Hill reference
`oracle_hill_eigs`, which reuses the package's cosine analysis of the
potential but assembles and diagonalizes the full Galerkin matrix; the
collocated Hill potential `oracle_averaged_potential`, which averages the
package's `collocate` multiplier over an x grid; and `dop853_slow_flow`,
which integrates the slow equation's collocated forcing one tau at a time
with SciPy's DOP853 instead of the package's Chebyshev-Picard segments;
and `tail_oracle`, which projects the package's `u_values` onto the fast
time modes by its own sine sums; and `out_of_place_eval` and
`out_of_place_collocate`, which evaluate a model's series over the terms
the package's `_leading` keeps, by out-of-place expressions in the
operation order of the package's in-place evaluation.
Six helpers are not oracles: `limit_rhs`, the limit oscillator's
right-hand side; `v_at` and `v_tau_at`, which evaluate a trajectory and
its derivative through the package's `cos_series`; `ZERO_MODEL`, the
linear case f = 0, a stand-in a test passes wherever the package takes a
`Nonlinearity`; `decaying_field`, a random field of the symmetry class;
and `class_indices`, which restricts `assemble_L` to that class.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh
from scipy.special import ellipe, ellipj, ellipk
from scipy.stats import linregress

from kgperiodic.fourier import (SpaceTimeField, cos_analyze, cos_series,
                                cos_synthesis_matrix, project_P,
                                sin_synthesis_matrix)
from kgperiodic.nonlinearity import _leading, collocate
from kgperiodic.normalform import _linear_symbol
from kgperiodic.planar import PlanarState
from kgperiodic.solver import NonConvergenceError


def limit_rhs(state, f3: float):
    """Right-hand side (p_tau, -p - (f3/8) p^3) of the limit oscillator, as
    a `PlanarState` for one and as an array for a (p, p_tau) pair."""
    if isinstance(state, PlanarState):
        p, p_tau = state.p, state.p_tau
        return PlanarState(p_tau, -p - (f3 / 8.0) * p**3)
    p, p_tau = state
    return np.array([p_tau, -p - (f3 / 8.0) * p**3])


def v_at(traj, taus):
    """The slow variable of a `VTrajectory` at ``taus``, by its cosine series."""
    return cos_series(traj.cos_coeffs, traj.period, taus)


def v_tau_at(traj, taus):
    """Its tau-derivative at ``taus``, by the same series."""
    return cos_series(traj.cos_coeffs, traj.period, taus, order=1)


def decaying_field(seed, period, N_tau, N_x, scale=1e-3):
    """A random class field whose coefficients fall by 10 per odd step in
    j and in k, as a solution's do (faster, at the canonical point), so
    the full grids' aliasing stays at round-off."""
    coeffs = np.zeros((N_tau + 1, N_x + 1))
    j, k = np.arange(1, N_tau + 1, 2), np.arange(3, N_x + 1, 2)
    coeffs[1::2, 3::2] = (scale * 0.1 ** np.add.outer(j // 2, k // 2 - 1)
                          * np.random.default_rng(seed).standard_normal(
                              (j.size, k.size)))
    return SpaceTimeField(period, coeffs)


class _ZeroModel:
    """f = 0: every evaluation a `Nonlinearity` offers gives zeros."""

    name = "zero"

    def eval(self, u):
        return np.zeros(np.shape(u))

    def scaled_eval(self, y, eps):
        return np.zeros(np.shape(y))

    scaled_deriv = scaled_deriv_x_mean = scaled_antideriv = scaled_eval


ZERO_MODEL = _ZeroModel()


def duffing_period(amplitude: float, f3: float) -> float:
    """Period of p'' = -p - (f3/8) p^3 through (a, 0) by energy quadrature.

    With U(p) = p^2/2 + f3 p^4/32 and the substitution p = a sin(theta),
    the quarter-period integral becomes smooth:
        T = 4 * int_0^{pi/2} dtheta / sqrt(1 + f3 a^2 (1 + sin^2 theta)/16).
    """
    a2 = amplitude * amplitude

    def integrand(theta):
        return 1.0 / np.sqrt(1.0 + f3 * a2 * (1.0 + np.sin(theta) ** 2) / 16.0)

    value, err = quad(integrand, 0.0, np.pi / 2.0, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return 4.0 * value


def duffing_period_slope(amplitude: float, f3: float) -> float:
    """dT/da of `duffing_period`, differentiating its integrand in a:
        dT/da = -(f3 a / 4) int_0^{pi/2} (1 + sin^2 theta)
                  / (1 + f3 a^2 (1 + sin^2 theta)/16)^(3/2) dtheta.
    """
    a2 = amplitude * amplitude

    def integrand(theta):
        s2 = 1.0 + np.sin(theta) ** 2
        return s2 / (1.0 + f3 * a2 * s2 / 16.0) ** 1.5

    value, err = quad(integrand, 0.0, np.pi / 2.0, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return -0.25 * f3 * amplitude * value


def oracle_orbit(f3: float, amplitude: float,
                 n_samples: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Period and (p, p_tau) samples of the orbit through (a, 0) by DOP853.

    Integrates p'' = -p - (f3/8) p^3 to the first upward crossing of
    p_tau = 0, which is the half period (the orbit is even in tau), and
    samples the dense output on the uniform ``n_samples``-point grid of the
    first half, reflecting it into the second: p(T - t) = p(t),
    p_tau(T - t) = -p_tau(t).  Independent of the package's closed form.
    """
    def rhs(_t, y):
        return [y[1], -y[0] - (f3 / 8.0) * y[0] ** 3]

    def half_section(_t, y):
        return y[1]

    half_section.terminal = True
    half_section.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 1e4), [amplitude, 0.0], events=half_section,
                    dense_output=True, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.t_events[0].size == 1, "no half-period return detected"
    period = 2.0 * float(sol.t_events[0][0])
    assert n_samples % 2 == 0
    half = n_samples // 2
    direct = sol.sol(period * np.arange(half + 1) / n_samples)
    p = np.concatenate([direct[0], direct[0, 1:half][::-1]])
    p_tau = np.concatenate([direct[1], -direct[1, 1:half][::-1]])
    return period, p, p_tau


def ellipj_orbit(f3: float, amplitude: float,
                 taus) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Period, dT/da and (p, p_tau) at ``taus`` from Cephes ellipj/ellipk/ellipe.

    With beta = f3/8, Omega^2 = 1 + beta a^2 and m = beta a^2 / (2 Omega^2)
    the orbit is a cn(Omega tau | m) of period 4 K(m) / Omega (DLMF
    22.19(ii)), and for m < 0 cn(u | m) = cd(u s | mu) with s = sqrt(1 - m),
    mu = -m / (1 - m) (DLMF 22.17).  dT/da = 4 beta a (K'(m) / Omega^5 -
    K(m) / Omega^3) with K'(m) = (E - (1 - m) K) / (2 m (1 - m)) (DLMF
    19.4.1), or its Maclaurin series for |m| < 1e-3.  Every parameter is
    rounded as a double, which limits it next to the separatrix.
    """
    beta = f3 / 8.0
    omega2 = 1.0 + beta * amplitude**2
    omega, m = float(np.sqrt(omega2)), beta * amplitude**2 / (2.0 * omega2)
    taus = np.asarray(taus, dtype=float)
    if m >= 0.0:
        sn, cn, dn, _ = ellipj(omega * taus, m)
        p, p_tau = amplitude * cn, -amplitude * omega * sn * dn
    else:   # d/du cd(u | mu) = -(1 - mu) sn / dn^2
        mu, s = -m / (1.0 - m), float(np.sqrt(1.0 - m))
        sn, cn, dn, _ = ellipj(omega * s * taus, mu)
        p = amplitude * cn / dn
        p_tau = -amplitude * omega * s * (1.0 - mu) * sn / dn**2
    K = float(ellipk(m))
    if abs(m) < 1e-3:
        dK = 0.5 * np.pi * (0.25 + m * (9.0 / 32.0 + m * (75.0 / 256.0
                                                          + m * 1225.0 / 4096.0)))
    else:
        dK = (float(ellipe(m)) - (1.0 - m) * K) / (2.0 * m * (1.0 - m))
    slope = 4.0 * beta * amplitude / omega**3 * (dK / omega2 - K)
    return 4.0 * K / omega, slope, p, p_tau


def mpmath_orbit(f3: float, amplitude: float, taus,
                 dps: int = 50) -> tuple[float, float, np.ndarray]:
    """Period, dT/da and p at ``taus`` of the orbit through the double
    ``amplitude``, all in ``dps``-digit arithmetic: a cn(Omega tau | m) for
    f3 >= 0, and a cd(nu tau | mu), mu = -b / (2 + b), nu^2 = 1 + b/2 with
    b = f3 a^2 / 8 for f3 < 0 (DLMF 22.19(ii), 22.17); dT/da by mpmath's
    numerical differentiation of the period."""
    with mpmath.workdps(dps):
        def orbit(a):
            b = mpmath.mpf(f3) / 8 * a * a
            if f3 >= 0:
                return b / (2 + 2 * b), mpmath.sqrt(1 + b), "cn"
            return -b / (2 + b), mpmath.sqrt(1 + b / 2), "cd"

        def period(a):
            m, nu, _ = orbit(a)
            return 4 * mpmath.ellipk(m) / nu

        a = mpmath.mpf(amplitude)
        m, nu, kind = orbit(a)
        p = [amplitude * mpmath.ellipfun(kind, nu * mpmath.mpf(float(t)), m=m)
             for t in np.asarray(taus, dtype=float)]
        return (float(period(a)), float(mpmath.diff(period, a)),
                np.array([float(v) for v in p]))


def divisor_root_exact(k: int, lam_num: int, lam_den: int = 1,
                       iters: int = 200) -> float:
    """Positive root of -k^2 + 1/(1+e^2) + e^2 lam = 0 by rational bisection.

    Exact arithmetic on y = e^2 removes any round-off question from the
    oracle itself; the returned float is the correctly rounded square root
    of the final bracket midpoint.
    """
    lam = Fraction(lam_num, lam_den)
    k2 = Fraction(k * k)

    def value(y: Fraction) -> Fraction:
        return -k2 + Fraction(1, 1) / (1 + y) + lam * y

    lo, hi = Fraction(0), Fraction(1)
    assert value(lo) < 0 and value(hi) > 0, "root not bracketed in y in (0, 1)"
    for _ in range(iters):
        mid = (lo + hi) / 2
        if value(mid) > 0:
            hi = mid
        else:
            lo = mid
    return float(np.sqrt(float((lo + hi) / 2)))


def divisor_root_float(k: int, lam: float) -> float:
    """Float bisection of the same defining equation for real eigenvalues."""
    def value(y: float) -> float:
        return -k * k + 1.0 / (1.0 + y) + lam * y

    lo, hi = 0.0, 1.0
    if not (value(lo) < 0 < value(hi)):
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value(mid) > 0:
            hi = mid
        else:
            lo = mid
    return float(np.sqrt(0.5 * (lo + hi)))


def fd_monodromy(amplitude: float, f3: float, period: float,
                 h: float = 1e-7) -> np.ndarray:
    """Monodromy by finite differences of the nonlinear flow map.

    Integrates the planar ODE from perturbed initial conditions and
    differences the time-T states; independent of the variational-equation
    route used by the package.
    """
    def rhs(_t, y):
        return [y[1], -y[0] - (f3 / 8.0) * y[0] ** 3]

    def flow(p0, q0):
        sol = solve_ivp(rhs, (0.0, period), [p0, q0], method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=False)
        return sol.y[:, -1]

    cols = []
    for dp, dq in ((h, 0.0), (0.0, h)):
        plus = flow(amplitude + dp, dq)
        minus = flow(amplitude - dp, -dq)
        cols.append((plus - minus) / (2.0 * h))
    return np.column_stack(cols)


def dop853_slow_flow(starts, w, eps: float, model, period: float,
                     M_x: int = 64) -> np.ndarray:
    """End states (v, v_tau)(period), shape (len(starts), 2), of the slow
    equation v_tautau = -v/omega^2 + P[collocate(v sin x + w)].

    One stacked DOP853 pass at rtol 1e-13 and atol 1e-15, with w summed
    from its coefficients at each step's own tau.
    """
    m = len(starts)
    A = omega = None
    if w is not None:
        A = w.coeffs @ sin_synthesis_matrix(M_x, w.band_x).T
        omega = 2.0 * np.pi * np.arange(w.band_tau + 1) / period

    def rhs(tau, y):
        v, v_tau = y[:m], y[m:]
        w_slice = None if A is None else np.cos(omega * tau) @ A
        forcing = project_P(collocate(model, eps, v, w_slice, M_x))
        return np.concatenate([v_tau, -v / (1.0 + eps**2) + forcing])

    y0 = [s.p for s in starts] + [s.p_tau for s in starts]
    sol = solve_ivp(rhs, (0.0, period), y0, method="DOP853", rtol=1e-13,
                    atol=1e-15)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(2, m).T


def tail_oracle(sol, limit_orbit) -> float:
    """The theorem's tail sup|Q_t[u/eps - p(eps omega x)]| by its definition.

    u/eps is synthesized by ``sol.u_values`` on 128 x samples of one
    x-period and M_t = max(64, 4(K + 2)) t samples of one t-period, the
    limit profile p is subtracted, and each column is projected onto
    sin(k omega t), k >= 2, and resynthesized.
    """
    K = sol.w.band_x
    M_t = max(64, 4 * (K + 2))
    ts = np.arange(M_t) * sol.t_period / M_t
    xs = np.linspace(0.0, sol.x_period, 128, endpoint=False)
    y = sol.eps * sol.omega * xs
    u = (sol.u_values(xs, ts) / sol.eps
         - cos_series(limit_orbit.cos_coeffs, limit_orbit.period, y))
    S = np.sin(np.outer(sol.omega * ts, np.arange(K + 1)))
    coef = (2.0 / M_t) * (S.T @ u)
    coef[:2] = 0.0
    return float(np.abs(S @ coef).max())


def log_fit(x, y) -> tuple[float, float]:
    """Least-squares slope and R^2 (thin wrapper, kept for test readability)."""
    fit = linregress(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return float(fit.slope), float(fit.rvalue ** 2)


def richardson_slope(eps_values, errors) -> float:
    """Convergence order from a log-log fit of |error| against eps."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    assert np.all(errors > 0), "errors must be positive for a log fit"
    slope, _ = log_fit(np.log(eps_values), np.log(errors))
    return slope


def horner_oracle(coeffs, x) -> tuple[np.ndarray, np.ndarray]:
    """Full-series Horner value of sum_p coeffs[p] x^p and its error scale.

    The second result is sum_p |coeffs[p]| |x|^p: Horner's rule of degree D
    has rounding error at most about 2 D 2^-53 times it (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, section 5.1).
    """
    x = np.asarray(x, dtype=float)
    value = np.zeros_like(x)
    scale = np.zeros_like(x)
    for c in reversed(coeffs):
        value = value * x + c
        scale = scale * np.abs(x) + abs(c)
    return value, scale


# The power factor each evaluation multiplies its series by, as one
# out-of-place expression (``scaled_antideriv``'s y**4 is the C pow).
_POWER_FACTORS = {
    "eval": lambda acc, u: acc * (u * u) * u,
    "scaled_eval": lambda acc, y: acc * (y * y * y),
    "scaled_deriv": lambda acc, y: acc * y**2,
    "scaled_deriv_x_mean": lambda acc, y: acc * y**2,
    "scaled_antideriv": lambda acc, y: acc * y**4,
}
_SERIES = {
    "eval": "odd_coeffs",
    "scaled_eval": "odd_coeffs",
    "scaled_deriv": "_scaled_deriv_coeffs",
    "scaled_deriv_x_mean": "_deriv_x_mean_coeffs",
    "scaled_antideriv": "_antideriv_coeffs",
}


def out_of_place_eval(model, method: str, y, eps: float = 1.0):
    """``model.<method>(y, eps)`` (``eval`` ignores eps) by out-of-place
    expressions: Horner's rule ``acc = acc * z + c`` in z = (eps y)^2 over
    the terms `_leading` keeps at max|eps y|, then the power factor of
    `_POWER_FACTORS`.  Every operation is the one the in-place evaluation
    performs, in the same order, so the two agree bit for bit
    (``scaled_antideriv`` aside, whose y^4 differs from the product
    (y y)^2 in the last bit)."""
    y = np.asarray(y, dtype=float)
    ey = (1.0 if method == "eval" else eps) * y
    z = ey * ey
    r = float(np.abs(ey).max())
    coeffs = _leading(getattr(model, _SERIES[method]), r * r)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    out = _POWER_FACTORS[method](acc, y)
    return float(out) if out.ndim == 0 else out


def out_of_place_collocate(model, eps: float, v, w_values, M_x: int,
                           order: int = 0):
    """`collocate` by out-of-place expressions: xi = v sin x + w, then
    -(1/omega^2) times `out_of_place_eval` of the forcing or multiplier."""
    xi = np.multiply.outer(v, sin_synthesis_matrix(M_x, 1)[:, 1])
    if w_values is not None:
        xi = xi + w_values
    method = "scaled_eval" if order == 0 else "scaled_deriv"
    return (-1.0 / (1.0 + eps**2)) * out_of_place_eval(model, method, xi, eps)


def truncation_oracle(coeffs, z: float) -> int:
    """The fewest leading terms of sum_n c_n z^n whose dropped tail
    sum_{n>=K} |c_n| z^n is at most 2^-64 of the kept sum, both sums exact
    (`math.fsum`) over the powers z**n."""
    terms = [abs(c) * z**n for n, c in enumerate(coeffs)]
    return next((K for K in range(1, len(terms))
                 if math.fsum(terms[K:]) <= 2.0**-64 * math.fsum(terms[:K])),
                len(terms))


def quadrature_P(func, n: int = 4096) -> float:
    """(1/pi) * int_{-pi}^{pi} func(x) sin(x) dx by the trapezoid rule.

    Periodic trapezoid converges spectrally, so n = 4096 is far beyond
    round-off saturation for smooth integrands.
    """
    x = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return float(np.mean(func(x) * np.sin(x)) * 2.0)


def full_grids(N_x: int, N_tau: int) -> tuple[int, int]:
    """The uniform full-period grid (4 N_tau + 8, max(4 N_x + 8, 32)) that
    the package's default quarter-wave nodes are equivalent to."""
    return 4 * N_tau + 8, max(4 * N_x + 8, 32)


def oracle_assemble_F(V_traj, w, eps: float, model, M_tau: int | None = None,
                      M_x: int | None = None, shifted: bool = False):
    """F(w) = (J_eps - eps^2 d_tautau) w + eps^2 g(V, w) collocated on the
    uniform (M_tau, M_x) grid over a whole period in tau and in x (by
    default `full_grids`), analyzed at every j and k >= 2.  ``shifted``
    moves both grids by half a step, to the odd points of the doubled
    grids.  Reference for the quarter-wave `assemble_F`, which equals the
    shifted grid for class fields and, where the grid's aliasing is below
    round-off, the unshifted one too."""
    N_tau, K = w.band_tau, w.band_x
    dM_tau, dM_x = full_grids(K, N_tau)
    M_tau, M_x = M_tau or dM_tau, M_x or dM_x
    r = 1 + shifted
    C = cos_synthesis_matrix(r * M_tau, N_tau)[shifted::r]
    S = sin_synthesis_matrix(r * M_x, K)[shifted::r]
    vals = collocate(model, eps, V_traj.resample(r * M_tau)[shifted::r],
                     C @ w.coeffs @ S.T, S[:, 1])
    b = (2.0 / M_x) * (vals @ S)
    b[:, :2] = 0.0
    g = (2.0 / M_tau) * (C.T @ b)
    g[0] *= 0.5
    return SpaceTimeField(w.period, w.coeffs * _linear_symbol(
        w.period, eps, N_tau, K) + eps**2 * g)


def oracle_multiplier_coeffs(V_traj, w, eps: float, model, N: int):
    """2-d cosine coefficients c[n, p], n <= 2 N_tau and p <= 2N, of eps^2
    times the multiplier, by real FFTs of its samples on the full grid
    (times (-1)^p for the x grid's start at -pi).  Reference for
    `LinearizedOperator.cos_coeffs`, which holds c[2h, 2q]."""
    N_tau = w.band_tau
    M_tau, M_x = full_grids(N, N_tau)
    m = collocate(model, eps, V_traj.resample(M_tau),
                  w.values_grid(M_tau, M_x), M_x, order=1)
    m_x = (np.fft.rfft(m, axis=1).real[:, :2 * N + 1]
           * (-1.0) ** np.arange(2 * N + 1))
    return (eps**2 / (M_tau * M_x)) * np.fft.rfft(m_x, axis=0).real[:2 * N_tau + 1]


def oracle_galerkin_v(a0, w, eps: float, model, period: float,
                      M_x: int = 64):
    """Every cosine a[0..J] of the even periodic slow solution at frozen w,
    by Newton on the uniform 2(J + 1)-point tau grid and M_x-point x grid
    with the dense Jacobian.  Reference for the odd-cosine quarter-wave
    `galerkin_v`; returns a and the final max|R|."""
    J = a0.shape[0] - 1
    n = 2 * (J + 1)
    C = cos_synthesis_matrix(n, J)
    w_values = w.values_grid(n, M_x)
    sin_x = sin_synthesis_matrix(M_x, 1)[:, 1]
    lam = 1.0 / (1.0 + eps**2) - (2.0 * np.pi * np.arange(J + 1) / period) ** 2

    def residual(a):
        forcing = project_P(collocate(model, eps, C @ a, w_values, M_x))
        return lam * a - cos_analyze(forcing, J)

    a = np.array(a0, dtype=float)
    for _ in range(16):
        R = residual(a)
        if np.abs(R).max() <= 64.0 * np.finfo(float).eps * np.abs(lam * a).max():
            break
        q = project_P(collocate(model, eps, C @ a, w_values, M_x, order=1) * sin_x)
        a = a - np.linalg.solve(np.diag(lam) - cos_analyze((q[:, None] * C).T, J).T, R)
    return a, float(np.abs(residual(a)).max())


def class_indices(N: int, N_tau: int) -> np.ndarray:
    """Positions of the class coefficients (odd j, odd k) in `assemble_L`'s
    layout j (N - 1) + (k - 2), in the package's `_pack` order."""
    j, k = np.arange(1, N_tau + 1, 2), np.arange(3, N + 1, 2)
    return (j[:, None] * (N - 1) + (k[None, :] - 2)).ravel()


def assemble_L(V_traj, w, eps, model, N, N_tau=None,
               M_tau=None, M_x=None) -> np.ndarray:
    """Dense symmetric matrix of L = J_eps + eps^2(-d_tautau + D_w g).

    Rows/columns run over (j = 0..N_tau, k = 2..N) in the orthonormal
    temporal basis.  The multiplication part is assembled per tau-slice in
    the sine basis and coupled in j by exact cosine convolution, so the
    result is symmetric to machine precision.  Reference for the
    matrix-free `LinearizedOperator`.
    """
    N_tau = w.band_tau if N_tau is None else N_tau
    if N > w.band_x:
        raise ValueError("truncation N exceeds the field band")
    dM_tau, dM_x = full_grids(N, N_tau)
    M_tau = M_tau or dM_tau
    M_x = M_x or dM_x
    if M_tau < 4 * N_tau + 2:
        raise ValueError("M_tau too small to alias-free couple 2*N_tau cosines")

    sym = _linear_symbol(w.period, eps, N_tau, N)[:, 2:]   # (N_tau+1, N-1)
    n = (N_tau + 1) * (N - 1)
    L = np.zeros((n, n))
    idx = np.arange(n)
    L[idx, idx] = sym.ravel()

    if model is None:
        return L

    m_vals = collocate(model, eps, V_traj.resample(M_tau),
                       w.values_grid(M_tau, M_x), M_x, order=1)

    X = sin_synthesis_matrix(M_x, N)[:, 2:]                # (M_x, N-1)
    B = np.einsum("mi,ik,il->mkl", m_vals, X, X, optimize=True) * (2.0 / M_x)
    n_max = 2 * N_tau
    theta = 2.0 * np.pi * np.arange(M_tau) / M_tau
    cosM = np.cos(np.outer(np.arange(n_max + 1), theta))   # (n_max+1, M_tau)
    c = np.einsum("nm,mkl->nkl", cosM, B, optimize=True) / M_tau

    jj = np.arange(N_tau + 1)
    blocks = c[jj[:, None] + jj[None, :]] + c[np.abs(jj[:, None] - jj[None, :])]
    blocks[0, :] /= np.sqrt(2.0)
    blocks[:, 0] /= np.sqrt(2.0)
    mult = blocks.transpose(0, 2, 1, 3).reshape(n, n)
    L += (eps**2) * mult
    return L


def oracle_averaged_potential(traj, eps: float, model, M_tau: int = 256,
                              M_x: int = 128) -> np.ndarray:
    """x-mean of the collocated derivative multiplier at w = 0.

    Samples ``-(1/omega^2) f'(eps v sin x)/eps^2`` on the M_tau x M_x grid
    with `collocate` and averages over x, 64 tau rows at a time.
    Reference for the closed-form moments of `averaged_potential`.
    """
    v = traj.resample(M_tau)
    return np.concatenate([collocate(model, eps, v[i:i + 64], None, M_x,
                                     order=1).mean(axis=1)
                           for i in range(0, v.shape[0], 64)])


def oracle_hill_eigs(q_samples, period: float, J_max: int) -> np.ndarray:
    """Dense cosine-Galerkin eigenvalues of -d_tautau + q, j = 0..J_max.

    Every entry of the (J_max+1)^2 matrix is assembled from the cosine
    coefficients of q (entry (j, j') couples through q_hat[|j-j'|] and
    q_hat[j+j']), checked for symmetry, and handed to a dense `eigh`.
    Reference for `hill_eigs`.
    """
    q_samples = np.asarray(q_samples, dtype=float)
    n_q = min(2 * J_max, q_samples.shape[0] // 2 - 1)
    q_hat = np.zeros(2 * J_max + 1)
    q_hat[: n_q + 1] = cos_analyze(q_samples, n_q)

    # e(n) = (1/p) integral q cos_n = q_hat[n]/2 for n >= 1, q_hat[0] for n = 0
    e = 0.5 * q_hat
    e[0] = q_hat[0]
    j = np.arange(J_max + 1)
    A = e[j[:, None] + j[None, :]] + e[np.abs(j[:, None] - j[None, :])]
    A[0, :] /= np.sqrt(2.0)
    A[:, 0] /= np.sqrt(2.0)
    A += np.diag((2.0 * np.pi * j / period) ** 2)
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(A)))):
        raise AssertionError("Hill matrix assembly lost symmetry")
    return eigh(A, eigvals_only=True)


def mpmath_low_hill_eigs(q_samples, period: float, n_low: int,
                         n_modes: int = 40, dps: int = 40) -> np.ndarray:
    """Lowest ``n_low`` Hill eigenvalues in ``dps``-digit `mpmath`.

    The leading ``n_modes`` cosines of the Galerkin matrix of
    `oracle_hill_eigs` (the same cosine coefficients of q), solved by
    `mpmath.eigsy`.  Dropping the higher cosines moves the lowest
    eigenvalues by far less than a double's round-off when the couplings
    decay away from the diagonal, so this is a reference for the
    low end of the spectrum well below the error of a dense solve.
    Reference for the Kato-Temple radius of `hill_eigs`.
    """
    q_samples = np.asarray(q_samples, dtype=float)
    n_q = min(2 * n_modes, q_samples.shape[0] // 2 - 1)
    q_hat = np.zeros(2 * n_modes + 1)
    q_hat[: n_q + 1] = cos_analyze(q_samples, n_q)
    with mpmath.workdps(dps):
        e = [mpmath.mpf(float(c)) / 2 for c in q_hat]
        e[0] = mpmath.mpf(float(q_hat[0]))
        A = mpmath.matrix(n_modes, n_modes)
        for j in range(n_modes):
            for k in range(n_modes):
                A[j, k] = e[abs(j - k)] + e[j + k]
                if j == 0:
                    A[j, k] /= mpmath.sqrt(2)
                if k == 0:
                    A[j, k] /= mpmath.sqrt(2)
            A[j, j] += (2 * mpmath.pi * j / mpmath.mpf(period)) ** 2
        lam = sorted(mpmath.eigsy(A, eigvals_only=True))
        return np.array([float(x) for x in lam[:n_low]])


def oracle_is_resonant(eps: float, params, table):
    """Window membership of eps read off the full K x J divisor table.

    Every tabulated center and halfwidth is compared with eps; the coverage
    floor is the j = J_max column plus its halfwidth.  Reference for the
    per-k window search in `is_resonant`.
    """
    from kgperiodic.divisors import CoverageError, ResonanceReport

    if not eps > 0:
        raise ValueError("eps must be positive")
    ks = table.k_values
    last = table.eps[:, -1]
    width = ks.astype(float) ** params.alpha / float(table.J_max) ** params.l
    floor = np.where(np.isfinite(last), last + width, 0.0)
    if np.any(eps <= floor):
        k_bad = ks[eps <= floor]
        raise CoverageError(
            f"eps = {eps:.6g} at or below certified floor for k in {k_bad.tolist()}; "
            f"extend J_max beyond {table.J_max}")

    K, J, centers, halfw = table.windows(params)
    dist = np.abs(eps - centers)
    inside = dist < halfw
    if np.any(inside):
        # report the deepest violation (smallest distance/halfwidth)
        idx = np.argmin(np.where(inside, dist / halfw, np.inf))
        res = True
    else:
        idx = int(np.argmin(dist))
        res = False
    return ResonanceReport(resonant=bool(res), eps=float(eps),
                           nearest_k=int(K[idx]), nearest_j=int(J[idx]),
                           center=float(centers[idx]), halfwidth=float(halfw[idx]),
                           distance=float(dist[idx]))


def oracle_newton_solve(V_traj, eps: float, N: int, J_max: int, model,
                        tol: float = 1e-12, max_iters: int = 40,
                        fd_step: float = 1e-6):
    """Brute-force reference solve of the fully truncated system.

    Undamped Newton from zero over every coefficient j <= J_max, 2 <= k <= N
    (no symmetry class assumed) on `oracle_assemble_F`, with an explicit
    finite-difference Jacobian; restricted to small truncations and used
    only for cross-checks.
    """
    n = (J_max + 1) * (N - 1)
    if n > 1000:
        raise ValueError("oracle restricted to <= 1000 unknowns")
    period = V_traj.period

    def field(u: np.ndarray):
        coeffs = np.zeros((J_max + 1, N + 1))
        coeffs[:, 2:] = u.reshape(J_max + 1, N - 1)
        return SpaceTimeField(period, coeffs)

    def F_vec(u: np.ndarray) -> np.ndarray:
        return oracle_assemble_F(V_traj, field(u), eps, model).coeffs[:, 2:].ravel()

    u = np.zeros(n)
    for _ in range(max_iters):
        Fu = F_vec(u)
        if np.linalg.norm(Fu) <= tol:
            return field(u)
        J = oracle_jacobian(F_vec, u, fd_step)
        u = u - np.linalg.solve(J, Fu)
    raise NonConvergenceError("oracle Newton did not converge "
                              f"(|F| = {np.linalg.norm(F_vec(u)):.3e})")


def oracle_jacobian(F_vec, u: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Centered finite-difference Jacobian of a vector map."""
    n = u.shape[0]
    J = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        J[:, i] = (F_vec(u + e) - F_vec(u - e)) / (2.0 * h)
    return J
