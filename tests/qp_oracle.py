"""Per-branch phase-domain quadratic program and two independent solvers.

Matching one delay element's subarray to the ideal per-subcarrier phases
reduces, per (chain, element) branch, to a convex QP in the phase-shifter
values plus the element's dimensionless delay:

    minimize  a^T C a - 2 d^T a
    subject to  0 <= a[-1] <= theta_max

with a = [x_1 .. x_N, theta] in units of pi radians. ``solve_kkt`` enumerates
the multiplier cases analytically; ``solve_projected`` is a plain fixed-step
projected-gradient method kept as an independent cross-check. Both operate in
extended precision: for narrow fractional bandwidths the curvature eta along
the delay coordinate is tiny and float64 cancellation would dominate the
1e-8-level agreement checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from delayphase.model import SystemConfig, _directions, freq_ratios

LONG = np.longdouble
KKT_CHECK_TOL = 1e-9  # largest first-order residual solve_kkt accepts


@dataclass(frozen=True)
class BranchQP:
    """Quadratic data for one (chain, element) branch.

    C is [[I_N, -1], [-1^T, N + eta]] with eta > 0 whenever bandwidth > 0 and
    K > 1; d collects the ideal-phase targets averaged over the subcarrier grid.
    targets holds those ideal phases gamma_n = ((m-1)N + n - 1) psi, n = 1..N,
    and theta_max the delay budget 2 f_c t_max, both in units of pi.
    """

    C: np.ndarray
    d: np.ndarray
    targets: np.ndarray
    theta_max: float
    eta: float

    @property
    def n_ps(self) -> int:
        return self.d.shape[0] - 1

    def objective(self, a: np.ndarray) -> float:
        a = np.asarray(a, dtype=LONG)
        return float(a @ self.C @ a - 2.0 * (self.d @ a))

    def inverse_closed_form(self) -> np.ndarray:
        """Closed-form C^{-1}: [[I + (1/eta) 1 1^T, (1/eta) 1], [(1/eta) 1^T, 1/eta]]."""
        n = self.n_ps
        inv = np.full((n + 1, n + 1), LONG(1.0) / LONG(self.eta), dtype=LONG)
        inv[:n, :n] += np.eye(n, dtype=LONG)
        return inv


def branch_eta(cfg: SystemConfig) -> float:
    """Curvature of the delay coordinate: N * (B/f_c)^2 * (K^2 - 1) / (12 K^2)."""
    K = cfg.n_subcarriers
    ratio = cfg.bandwidth / cfg.f_c
    return cfg.ps_per_ttd * ratio * ratio * (K * K - 1) / (12.0 * K * K)


def branch_qp(cfg: SystemConfig, psi: float, element: int = 1) -> BranchQP:
    """Assemble the branch QP for direction psi and delay element ``element`` (1-based).

    Every RF chain with direction psi has the same QP, so no chain is named.
    Raises ValueError for zero bandwidth (or a single subcarrier): eta = 0
    makes C singular, and a narrowband system needs no delay elements at all.
    """
    (psi,) = _directions(psi)
    if not 1 <= element <= cfg.ttds_per_rf:
        raise ValueError("element index outside 1..ttds_per_rf")
    eta = branch_eta(cfg)
    if eta <= 0.0:
        raise ValueError(
            "degenerate branch QP: eta = 0 (zero bandwidth or single subcarrier) "
            "makes the quadratic singular"
        )
    n = cfg.ps_per_ttd
    C = np.eye(n + 1, dtype=LONG)
    C[:n, n] = -1.0
    C[n, :n] = -1.0
    C[n, n] = LONG(n) + LONG(eta)

    ratios = freq_ratios(cfg).astype(LONG)
    idx = np.arange(1, n + 1, dtype=LONG)
    gamma = ((element - 1) * n + idx - 1) * LONG(psi)
    # d = (1/K) sum_k C_k^T b_k with b_k = -ratio_k * gamma
    d = np.empty(n + 1, dtype=LONG)
    d[:n] = -gamma * ratios.mean()
    d[n] = (ratios * ratios).mean() * gamma.sum()
    return BranchQP(C=C, d=d, targets=gamma, theta_max=float(cfg.theta_max), eta=float(eta))


@dataclass(frozen=True)
class KKTSolution:
    """Optimum of a branch QP with its multipliers and active-set tag."""

    a: np.ndarray
    lam_upper: float
    lam_lower: float
    case: str  # "interior" | "upper" | "lower"


def solve_kkt(branch: BranchQP) -> KKTSolution:
    """Optimal branch solution from the multiplier case analysis.

    The unconstrained delay coordinate is e^T C^{-1} d; depending on where it
    falls relative to [0, theta_max], the box constraint is inactive, active
    above, or active below, and the stationarity system has a closed solution
    in each case. The result is verified against the first-order conditions
    before being returned; a violation means the case analysis itself is
    broken, hence the hard error.
    """
    n = branch.n_ps
    d = branch.d
    eta = LONG(branch.eta)
    theta_max = LONG(branch.theta_max)
    theta_unc = (d[:n].sum() + d[n]) / eta

    lam_upper = LONG(0.0)
    lam_lower = LONG(0.0)
    if theta_unc > theta_max:
        case = "upper"
        lam_upper = 2.0 * eta * (theta_unc - theta_max)
        theta = theta_max
    elif theta_unc < 0.0:
        case = "lower"
        lam_lower = -2.0 * eta * theta_unc
        theta = LONG(0.0)
    else:
        case = "interior"
        theta = theta_unc
    a = np.empty(n + 1, dtype=LONG)
    a[:n] = d[:n] + theta
    a[n] = theta

    # first-order conditions; unreachable unless the analysis above is wrong
    e = np.zeros(n + 1, dtype=LONG)
    e[n] = 1.0
    stat = 2.0 * (branch.C @ a - d) + (lam_upper - lam_lower) * e
    slack = abs(lam_upper * (a[n] - theta_max)) + abs(lam_lower * a[n])
    if (np.max(np.abs(stat)) > KKT_CHECK_TOL or slack > KKT_CHECK_TOL
            or lam_upper < 0 or lam_lower < 0 or not 0 <= a[n] <= theta_max):
        raise ArithmeticError(
            f"KKT case analysis inconsistent: case={case}, "
            f"stationarity={float(np.max(np.abs(stat))):.3e}, slack={float(slack):.3e}"
        )
    return KKTSolution(a=a, lam_upper=float(lam_upper), lam_lower=float(lam_lower), case=case)


def solve_projected(branch: BranchQP, tol: float = 1e-10, max_iter: int = 500_000,
                    x0: np.ndarray | None = None) -> np.ndarray:
    """Fixed-step projected gradient descent on the branch objective.

    The step is 1 / lambda_max with lambda_max bounded by Gamma + N
    (Gershgorin); no line search. Projection clamps the final coordinate to
    [0, theta_max]. By default the iteration is warm-started at the projected
    solution C^{-1} d of the normal equations, from inverse_closed_form(): with
    the box inactive that point is already stationary, and with the box active
    the remaining descent is over the well-conditioned phase block, so the
    iteration contracts geometrically instead of crawling along the near-flat
    delay direction (curvature eta can be ~1e-5 at 1% fractional bandwidth).
    Only the iteration's own step test decides convergence.

    ``tol`` is the target accuracy of the returned coordinates under the
    default warm start. With an explicit ``x0`` on a badly conditioned branch
    the achieved accuracy degrades toward tol / lambda_min(C); tighten tol
    accordingly. Raises RuntimeError with the residual if max_iter is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = branch.n_ps
    theta_max = LONG(branch.theta_max)
    lip = branch.C[-1, -1] + n  # Gershgorin bound on lambda_max(C)
    if x0 is None:
        a = branch.inverse_closed_form() @ branch.d
    else:
        a = np.asarray(x0, dtype=LONG).copy()
        if a.shape != (n + 1,):
            raise ValueError("x0 has wrong shape")
    a[n] = min(max(a[n], LONG(0.0)), theta_max)

    step = LONG(1.0) / lip
    stop = LONG(tol) / lip
    delta = None
    for _ in range(max_iter):
        grad_half = branch.C @ a - branch.d
        nxt = a - step * grad_half
        nxt[n] = min(max(nxt[n], LONG(0.0)), theta_max)
        delta = np.max(np.abs(nxt - a))
        a = nxt
        if delta <= stop:
            return a
    raise RuntimeError(
        f"projected gradient did not converge in {max_iter} iterations; "
        f"last step size {float(delta):.3e} (target {float(stop):.3e})"
    )
