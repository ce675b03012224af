"""Dense semidefinite feasibility solver with a min-eigenvalue objective.

Solves  max t  s.t.  <A_k, G> = b_k,  G - t*I >= 0  (PSD order)
by an infeasible-start primal-dual path-following method on the splitting
X = G - t*I:

    max t   s.t.  <A_k, X> + t*tr(A_k) = b_k,  X >= 0,  t free.

Scaling is Nesterov-Todd (the scaled primal and dual variables coincide in
a diagonal matrix), search directions are Mehrotra predictor-corrector, and
all linear algebra is dense numpy.  Each iteration factors each matrix once:
X and S keep the Cholesky factors of the step that accepted them, and the
inverses of those factors give the scaling and the step lengths; the Schur
matrix is the symmetric product B B^T, row k of B holding the scaled
constraint g^T A_k g, and its Cholesky factor is inverted once, so every
Schur solve is two matrix-vector products.  The adjoint sum_k y_k A_k is
one product with the flat stack of the A_k, formed once per direction.
The constraints arrive as that float stack and a float right-hand side,
built by the caller (sos.solve_maxeig).  The solver is deterministic: fixed
initialization X = I, S = I, y = 0, t = 0 (so the matrix variable starts at
G = I) and no randomized pivoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIVERGENCE_THRESHOLD = 1.0e8
DEFAULT_TOL = 1.0e-8
DEFAULT_MAX_ITER = 200
# A solve whose merit has not improved for this many iterations after its
# best iterate returns that iterate: on stalled levels the best one comes at
# iteration 10-12 and the cap would run on to 200.
STALL_WINDOW = 30
_STEP_FRACTION = 0.98

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
MAX_ITERATIONS = "MaxIterations"


@dataclass
class SdpSolution:
    """The iterate a solve returns, with its margin t and residual.

    iterations is the 0-based index of that iterate, not the number of
    iterations run: a solve that stalls or runs out of iterations returns
    its best iterate, which may have come many iterations before the end.
    """

    G: np.ndarray
    t: float
    residual: float
    status: str
    iterations: int = 0
    detail: str = ""


def _max_violation(a_flat: np.ndarray, b: np.ndarray, g: np.ndarray) -> float:
    return float(np.max(np.abs(a_flat @ g.ravel() - b))) if len(b) else 0.0


def _max_step(inv_chol: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with mat + alpha*delta still PSD, given inv(cholesky(mat)).

    With mat = L L^T and F = L^-1, mat + alpha*delta = L (I + alpha F delta F^T) L^T.
    """
    inner = inv_chol @ delta @ inv_chol.T
    lam_min = float(np.linalg.eigvalsh(0.5 * (inner + inner.T))[0])
    if lam_min >= -1e-14:
        return math.inf
    return -1.0 / lam_min


def _apply_step(current: np.ndarray, chol: np.ndarray, delta: np.ndarray,
                alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Step with Cholesky-guarded backtracking so the iterate stays PD.

    Returns the new iterate, its Cholesky factor (chol, that of current, if
    no step is taken) and the step length.
    """
    for _ in range(30):
        candidate = current + alpha * delta
        candidate = 0.5 * (candidate + candidate.T)
        try:
            return candidate, np.linalg.cholesky(candidate), alpha
        except np.linalg.LinAlgError:
            alpha *= 0.8
    return current.copy(), chol, 0.0


def _schur_matrix(a_stack: np.ndarray, g_sc: np.ndarray) -> np.ndarray:
    """S_kl = <A_k, W A_l W> for W = g_sc g_sc^T, as B B^T with B_k = g_sc^T A_k g_sc.

    One symmetric product, so S is exactly symmetric.
    """
    p, m, _ = a_stack.shape
    b_rows = np.matmul(np.matmul(g_sc.T, a_stack), g_sc).reshape(p, m * m)
    return b_rows @ b_rows.T


def _inverse_cholesky(mat: np.ndarray) -> np.ndarray:
    """F = inv(cholesky(mat)), so that mat^-1 @ rhs is F.T @ (F @ rhs)."""
    return np.linalg.inv(np.linalg.cholesky(mat))


def solve_maxeig(a_stack: np.ndarray, b: np.ndarray) -> SdpSolution:
    """Maximize the minimum eigenvalue of G subject to <A_k, G> = b_k.

    a_stack is the (p, m, m) float stack of the symmetric A_k, p >= 1, and b
    the float right-hand side; both are read as given, with no check.
    Returns the best iterate found; the solve stops early, with a detail
    naming the stall, once STALL_WINDOW iterations pass without a better
    merit, and after DEFAULT_MAX_ITER iterations at most.  Status Optimal
    guarantees the maximum constraint violation is at most DEFAULT_TOL and
    lambda_min(G) >= t - DEFAULT_TOL.
    Infeasibility is reported heuristically on dual objective divergence;
    callers should treat it as "escalate", not as a certificate.
    """
    p, m, _ = a_stack.shape
    a_flat = a_stack.reshape(p, m * m)
    b_raw = np.asarray(b, dtype=float)
    # Power-of-two scaling of the right-hand side keeps the iteration well
    # conditioned for large-coefficient problems and is exactly undone on
    # the returned solution (convergence is always measured unscaled).
    b_mag = float(np.max(np.abs(b_raw)))
    beta = 2.0 ** math.ceil(math.log2(b_mag)) if b_mag > 1.0 else 1.0
    b = b_raw / beta
    tau = np.einsum("kii->k", a_stack)
    a_scale = 1.0 + float(np.max(np.abs(a_stack)))

    if float(np.max(np.abs(tau))) == 0.0:
        return SdpSolution(np.eye(m), math.inf, _max_violation(a_flat, b, np.eye(m)),
                           MAX_ITERATIONS, 0, "objective unbounded: all constraints are traceless")

    def adjoint(y: np.ndarray) -> np.ndarray:
        return np.dot(y, a_flat).reshape(m, m)

    # Gram matrix of the constraint operator, used to polish primal
    # feasibility: the projection X += A*(lam), A A* lam = rp restores
    # A(X) + tau*t = b to solver precision without moving t.
    gram_ops = a_flat @ a_flat.T
    try:
        gram_inv = _inverse_cholesky(gram_ops + 1e-13 * np.trace(gram_ops) / p * np.eye(p))

        def gram_solve(rhs: np.ndarray) -> np.ndarray:
            return gram_inv.T @ (gram_inv @ rhs)
    except np.linalg.LinAlgError:
        def gram_solve(rhs: np.ndarray) -> np.ndarray:
            return np.linalg.lstsq(gram_ops, rhs, rcond=None)[0]

    def polish(x_mat: np.ndarray, t_val: float) -> np.ndarray:
        rp_cur = b - a_flat @ x_mat.ravel() - tau * t_val
        for _ in range(2):
            lam = gram_solve(rp_cur)
            x_mat = x_mat + adjoint(lam)
            x_mat = 0.5 * (x_mat + x_mat.T)
            rp_cur = b - a_flat @ x_mat.ravel() - tau * t_val
        return x_mat

    x = np.eye(m)
    s = np.eye(m)
    lx = np.eye(m)  # Cholesky factors of x and s
    ls = np.eye(m)
    eye_m, eye_p = np.eye(m), np.eye(p)
    y = np.zeros(p)
    t = 0.0

    best = SdpSolution(beta * eye_m, 0.0, _max_violation(a_flat, b_raw, beta * eye_m),
                       MAX_ITERATIONS, 0)
    best_merit = math.inf

    for iteration in range(DEFAULT_MAX_ITER):
        g_unscaled = beta * (x + t * eye_m)
        t_unscaled = beta * t
        pinf = _max_violation(a_flat, b_raw, g_unscaled)
        dual_defect = s + adjoint(y)
        dinf = float(np.max(np.abs(dual_defect))) / a_scale
        rf = -1.0 - float(tau @ y)
        mu = float(np.sum(x * s)) / m
        gap = beta * mu

        merit = max(pinf, dinf, abs(rf), gap)
        if merit < best_merit:
            best_merit = merit
            best = SdpSolution(g_unscaled.copy(), t_unscaled, pinf, MAX_ITERATIONS, iteration)

        if (dinf <= DEFAULT_TOL and abs(rf) <= DEFAULT_TOL
                and gap <= DEFAULT_TOL * max(1.0, abs(t_unscaled))):
            if pinf <= DEFAULT_TOL:
                return SdpSolution(g_unscaled, t_unscaled, pinf, OPTIMAL, iteration)
            # Gap and dual feasibility are converged; restore primal
            # feasibility by exact-projection polish and accept if the
            # eigenvalue bound survives.
            g_pol = beta * (polish(x, t) + t * eye_m)
            pinf_pol = _max_violation(a_flat, b_raw, g_pol)
            lam_min = float(np.linalg.eigvalsh(g_pol)[0])
            if pinf_pol <= DEFAULT_TOL and lam_min >= t_unscaled - DEFAULT_TOL:
                return SdpSolution(g_pol, t_unscaled, pinf_pol, OPTIMAL, iteration)

        dual_obj = beta * float(b @ y)
        if dual_obj > DIVERGENCE_THRESHOLD or t_unscaled < -DIVERGENCE_THRESHOLD:
            return SdpSolution(g_unscaled, t_unscaled, pinf, INFEASIBLE, iteration,
                               "dual objective diverged; no PSD solution with the requested margin")
        if t_unscaled > DIVERGENCE_THRESHOLD:
            return SdpSolution(g_unscaled, t_unscaled, pinf, MAX_ITERATIONS, iteration,
                               "objective appears unbounded above")
        if iteration - best.iterations >= STALL_WINDOW:
            best.detail = (f"stalled: no better merit in the {STALL_WINDOW} iterations "
                           f"after the best iterate")
            return best

        # Nesterov-Todd scaling point: scaled X and S coincide in diag(sigma).
        fx = np.linalg.inv(lx)
        fs = np.linalg.inv(ls)
        u_svd, sigma, vt_svd = np.linalg.svd(ls.T @ lx)
        sigma = np.maximum(sigma, 1e-300)
        g_sc = lx @ vt_svd.T @ np.diag(sigma**-0.5)
        g_inv = np.diag(sigma**0.5) @ vt_svd @ fx
        w = g_sc @ g_sc.T

        schur = _schur_matrix(a_stack, g_sc)
        rp = b - a_flat @ x.ravel() - tau * t
        wdw = w @ dual_defect @ w

        try:
            schur_inv = _inverse_cholesky(schur + 1e-14 * np.trace(schur) / p * eye_p)

            def schur_solve(rhs: np.ndarray) -> np.ndarray:
                z = schur_inv.T @ (schur_inv @ rhs)
                # One round of iterative refinement against the unregularized
                # matrix: it gets ill-conditioned as the barrier parameter
                # shrinks, and solving through the inverse factor loses more
                # digits than triangular solves would.
                correction = rhs - schur @ z
                return z + schur_inv.T @ (schur_inv @ correction)
        except np.linalg.LinAlgError:
            def schur_solve(rhs: np.ndarray) -> np.ndarray:
                return np.linalg.lstsq(schur, rhs, rcond=None)[0]

        z_tau = schur_solve(tau)
        tau_mz = float(tau @ z_tau)

        def directions(u_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
            core = g_sc @ u_hat @ g_sc.T
            rhs = rp - a_flat @ core.ravel() - a_flat @ wdw.ravel()
            z = schur_solve(rhs)
            dt = (float(tau @ z) - rf) / tau_mz
            dy = z - dt * z_tau
            ady = adjoint(dy)
            ds = -dual_defect - ady
            dx = core + wdw + w @ ady @ w
            return 0.5 * (dx + dx.T), dy, 0.5 * (ds + ds.T), dt

        # Predictor (affine scaling): target complementarity zero.
        dx_a, dy_a, ds_a, dt_a = directions(np.diag(-sigma))
        alpha_p = min(1.0, _max_step(fx, dx_a))
        alpha_d = min(1.0, _max_step(fs, ds_a))
        mu_aff = float(np.sum((x + alpha_p * dx_a) * (s + alpha_d * ds_a))) / m
        center = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # Corrector with Mehrotra second-order term in the scaled space.
        dxh = g_inv @ dx_a @ g_inv.T
        dsh = g_sc.T @ ds_a @ g_sc
        cross = 0.5 * (dxh @ dsh + dsh @ dxh)
        rc = center * mu * eye_m - np.diag(sigma**2) - cross
        denom = sigma[:, None] + sigma[None, :]
        u_hat = 2.0 * rc / denom

        dx, dy, ds, dt = directions(u_hat)
        alpha_p = min(1.0, _STEP_FRACTION * _max_step(fx, dx))
        alpha_d = min(1.0, _STEP_FRACTION * _max_step(fs, ds))
        x, lx, alpha_p = _apply_step(x, lx, dx, alpha_p)
        s, ls, alpha_d = _apply_step(s, ls, ds, alpha_d)
        y = y + alpha_d * dy
        t = t + alpha_p * dt
        if alpha_p == 0.0 and alpha_d == 0.0:
            break

    best.detail = best.detail or "no convergence within the iteration budget"
    return best
