"""Brute-force H-eigenpair oracles and the nonnegative spectral radius.

These routines are deliberately independent of the dominance and region
machinery so they can serve as ground truth in tests: an exact companion
matrix solve for dimension 2, a multistart damped Newton iteration for
small dimensions (no completeness guarantee), and a ratio-bounded power
iteration for the spectral radius of a nonnegative tensor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import NegativeEntry, WrongDimension

__all__ = ["EigenPair", "h_eigen_exact_2d", "h_eigen_newton", "nqz_spectral_radius"]


@dataclass(frozen=True)
class EigenPair:
    """A real H-eigenpair: contract(t, x) = value * x^[m-1], with ||x||_inf = 1."""

    value: float
    vector: np.ndarray
    residual: float


def _finish_pair(t: tz.DenseTensor, lam: float, x: np.ndarray):
    """Normalise to max-norm one, fix the sign, and re-measure the residual."""
    k = int(np.argmax(np.abs(x)))
    if x[k] == 0.0:
        return None
    x = x / x[k]
    res = tz.contract(t, x) - lam * x ** (t.order - 1)
    resn = float(np.max(np.abs(res)))
    if resn > 1e-8 * max(1.0, abs(lam)):
        return None
    return EigenPair(float(lam), x, resn)


def _dedupe(pairs, tol):
    pairs = sorted(pairs, key=lambda p: (p.value, p.residual))
    out = []
    for p in pairs:
        if out and abs(p.value - out[-1].value) <= tol:
            if p.residual < out[-1].residual:
                out[-1] = p
            continue
        out.append(p)
    return out


def _branch_coeffs(t: tz.DenseTensor, row: int) -> np.ndarray:
    """Coefficients (ascending in s) of (A (1, s)^{m-1})_row for n = 2."""
    m = t.order
    coeffs = np.zeros(m)
    arr = t.entries[row]
    for tup in np.ndindex(*([2] * (m - 1))):
        coeffs[sum(tup)] += arr[tup]
    return coeffs


def h_eigen_exact_2d(t: tz.DenseTensor) -> list[EigenPair]:
    """All real H-eigenpairs of a dimension-2 tensor.

    Substituting x = (1, s) eliminates the eigenvalue and leaves the single
    polynomial p(s) = (A(1,s)^{m-1})_2 - (A(1,s)^{m-1})_1 * s^{m-1}, whose
    real roots are taken from the companion matrix and polished by Newton;
    the branch x = (0, 1) is handled separately.  Eigenvalues are
    deduplicated within 1e-7.
    """
    if t.dim != 2:
        raise WrongDimension("exact oracle is limited to dimension 2")
    m = t.order
    scale = max(1.0, float(np.max(np.abs(t.entries))))
    c1 = _branch_coeffs(t, 0)
    c2 = _branch_coeffs(t, 1)
    # p = c2(s) - s^{m-1} c1(s), ascending coefficients
    p = np.zeros(2 * m - 1)
    p[: m] += c2
    p[m - 1 :] -= c1
    pairs = []
    if np.max(np.abs(p)) <= 1e-14 * scale:
        # degenerate pencil: every direction solves; sample s in {0, 1, -1}
        for s in (0.0, 1.0, -1.0):
            lam = float(np.polyval(c1[::-1], s))
            pair = _finish_pair(t, lam, np.array([1.0, s]))
            if pair:
                pairs.append(pair)
    else:
        dp = np.polyder(p[::-1])
        roots = np.roots(np.trim_zeros(p[::-1], "f"))
        for r in roots:
            if abs(r.imag) > 1e-7 * max(1.0, abs(r)):
                continue
            s = float(r.real)
            for _ in range(6):  # Newton polish on the real line
                deriv = np.polyval(dp, s)
                if deriv == 0.0:
                    break
                s -= np.polyval(p[::-1], s) / deriv
            lam = float(np.polyval(c1[::-1], s))
            pair = _finish_pair(t, lam, np.array([1.0, s]))
            if pair:
                pairs.append(pair)
    # the x = (0, 1) branch is an eigenpair iff the first component vanishes
    e2 = np.array([0.0, 1.0])
    w = tz.contract(t, e2)
    if abs(w[0]) <= 1e-12 * scale:
        pair = _finish_pair(t, float(w[1]), e2)
        if pair:
            pairs.append(pair)
    return _dedupe(pairs, 1e-7)


# Newton caps shared by every start: 80 steps, the full step then the
# halvings 0.5^1 .. 0.5^29, and convergence at a max-norm residual of 1e-10
_MAX_ITER = 80
_HALVINGS = 0.5 ** np.arange(1, 30)
_TOL = 1e-10
# undamped steps that polish each converged pair before the dedupe
_POLISH_STEPS = 8
# numbers held by the contraction of one chunk's halving round, which
# evaluates len(_HALVINGS) trial points of n^(m-1) products per start
_CHUNK_ELEMENTS = 2 ** 18


def _contract_rows(E: np.ndarray, X: np.ndarray, q: int) -> np.ndarray:
    """Contract the q trailing length-n axes of E (shape (R, n^q)) with each row of X.

    Returns shape (k, R).  The last axis goes first, as in ``tz.contract``.
    """
    k, n = X.shape
    if q == 0:
        return np.broadcast_to(E[:, 0], (k, E.shape[0]))
    W = X @ E.reshape(-1, n).T
    for _ in range(q - 1):
        W = np.matmul(W.reshape(k, W.shape[1] // n, n), X[:, :, None])[:, :, 0]
    return W


def _operators(t: tz.DenseTensor):
    """The entries as (n, n^(m-1)), and the Jacobian's tensor as (n*n, n^(m-2)).

    d/dx of A x^{m-1} contracts all but one trailing axis; summing the
    entries with each trailing axis in turn moved next to the row axis does
    this for every axis at once.
    """
    m, n = t.order, t.dim
    B = sum(np.moveaxis(t.entries, k, 1) for k in range(1, m))
    return t.entries.reshape(n, -1), B.reshape(n * n, -1)


def _system(A: np.ndarray, m: int, X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """F(x, lam) = (A x^{m-1} - lam x^[m-1], |x|^2 - 1), one row per start."""
    k, n = X.shape
    F = np.empty((k, n + 1))
    F[:, :n] = _contract_rows(A, X, m - 1) - L[:, None] * X ** (m - 1)
    F[:, n] = np.einsum("ij,ij->i", X, X) - 1.0
    return F


def _newton_steps(A, B, m, X, L, F):
    """The Newton step solving J d = -F for each start, and which starts have one.

    ``B`` holds the Jacobian's tensor (see ``_operators``).  A singular
    J fails only its own start.
    """
    k, n = X.shape
    d = np.arange(n)
    J = np.zeros((k, n + 1, n + 1))
    J[:, :n, :n] = _contract_rows(B, X, m - 2).reshape(k, n, n)
    J[:, d, d] -= (L * (m - 1))[:, None] * X ** (m - 2)
    J[:, :n, n] = -(X ** (m - 1))
    J[:, n, :n] = 2.0 * X
    ok = np.ones(k, dtype=bool)
    try:
        return np.linalg.solve(J, -F[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:
        step = np.zeros((k, n + 1))
        for i in range(k):
            try:
                step[i] = np.linalg.solve(J[i], -F[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return step, ok


def _newton(A, B, m, X, L):
    """Damped Newton from every row of (X, L) at once.

    Each start first tries the full step; a start that rejects it takes the
    first of the halvings 0.5^1 .. 0.5^29 that lowers its residual, all of
    them evaluated in one stacked call.  Scaling by a power of two is exact,
    so this is the halving a one-at-a-time search would take.  A start stops
    when it converges, when no halving helps or when its Jacobian is
    singular.  Returns the final X, L and the mask of converged starts.
    """
    n = X.shape[1]
    F = _system(A, m, X, L)
    norm = np.max(np.abs(F), axis=1)
    live = np.ones(len(X), dtype=bool)
    for _ in range(_MAX_ITER):
        live &= norm > _TOL
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        step, ok = _newton_steps(A, B, m, X[idx], L[idx], F[idx])
        live[idx[~ok]] = False
        idx, step = idx[ok], step[ok]
        Xt, Lt = X[idx] + step[:, :n], L[idx] + step[:, n]
        Ft = _system(A, m, Xt, Lt)
        nt = np.max(np.abs(Ft), axis=1)
        full = nt < norm[idx]
        a = idx[full]
        X[a], L[a], F[a], norm[a] = Xt[full], Lt[full], Ft[full], nt[full]
        r, step = idx[~full], step[~full]
        if not r.size:
            continue
        Xh = X[r][:, None, :] + _HALVINGS[:, None] * step[:, None, :n]
        Lh = L[r][:, None] + _HALVINGS * step[:, n:]
        Fh = _system(A, m, Xh.reshape(-1, n), Lh.ravel()).reshape(len(r), len(_HALVINGS), n + 1)
        lower = np.max(np.abs(Fh), axis=2) < norm[r][:, None]
        first = np.argmax(lower, axis=1)
        took = lower[np.arange(len(r)), first]
        live[r[~took]] = False
        r, first = r[took], first[took]
        X[r], L[r], F[r] = Xh[took, first], Lh[took, first], Fh[took, first]
        norm[r] = np.max(np.abs(F[r]), axis=1)
    return X, L, norm <= _TOL


def _polish(A, B, m, X, L):
    """Undamped Newton steps on every row, each kept only where it lowers the residual."""
    n = X.shape[1]
    F = _system(A, m, X, L)
    norm = np.max(np.abs(F), axis=1)
    for _ in range(_POLISH_STEPS):
        step, ok = _newton_steps(A, B, m, X, L, F)
        Xt, Lt = X + step[:, :n], L + step[:, n]
        Ft = _system(A, m, Xt, Lt)
        nt = np.max(np.abs(Ft), axis=1)
        keep = ok & (nt < norm)
        if not keep.any():
            break
        X[keep], L[keep], F[keep], norm[keep] = Xt[keep], Lt[keep], Ft[keep], nt[keep]
    return X, L


def h_eigen_newton(t: tz.DenseTensor, starts: int = 2000, seed: int = 1) -> list[EigenPair]:
    """Multistart Newton search for real H-eigenpairs.

    Start vectors are drawn uniformly from the sphere with a fixed seed, the
    initial eigenvalue guess is the Rayleigh-like quotient when it is usable,
    and converged pairs are polished by a few undamped Newton steps, then
    deduplicated by eigenvalue within 1e-6.  The starts are taken from the
    seed's stream in chunks of a fixed size, and all starts of a chunk take
    each damped step together.  The returned set is whatever the starts
    found; completeness is not claimed.
    """
    rng = np.random.default_rng(seed)
    m, n = t.order, t.dim
    A, B = _operators(t)
    chunk = max(1, _CHUNK_ELEMENTS // (len(_HALVINGS) * n ** (m - 1)))
    pairs = []
    for done in range(0, starts, chunk):
        V = rng.standard_normal((min(chunk, starts - done), n))
        nv = np.linalg.norm(V, axis=1)
        X = V[nv != 0.0] / nv[nv != 0.0, None]
        denom = np.sum(X ** m, axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            L = np.einsum("ij,ij->i", X, _contract_rows(A, X, m - 1)) / denom
        L = np.where((np.abs(denom) > 1e-8) & np.isfinite(L), L, 0.0)
        X, L, ok = _newton(A, B, m, X, L)
        for x, lam in zip(*_polish(A, B, m, X[ok], L[ok])):
            pair = _finish_pair(t, float(lam), x)
            if pair:
                pairs.append(pair)
    return _dedupe(pairs, 1e-6)


def nqz_spectral_radius(t: tz.DenseTensor, tol: float = 1e-9, max_iter: int = 10000) -> float:
    """Spectral radius of a nonnegative tensor by ratio-bounded power iteration.

    The iteration runs on t + eps*I (eps = 1e-9) so the positive start vector
    stays positive even for reducible inputs; the exact diagonal shift is
    subtracted at the end.  Converged when the Collatz-Wielandt bounds
    min_i/max_i of (contract x)_i / x_i^{m-1} agree to relative gap ``tol``;
    the geometric mean of the final bounds is returned.
    """
    if np.any(t.entries < 0.0):
        raise NegativeEntry("spectral radius iteration needs a nonnegative tensor")
    eps = 1e-9
    m, n = t.order, t.dim
    arr = t.entries.copy()
    arr.flat[tz._diagonal_positions(m, n)] += eps
    reg = tz.DenseTensor(arr)
    x = np.ones(n)
    lo = hi = None
    for _ in range(max_iter):
        y = tz.contract(reg, x)
        ratios = y / x ** (m - 1)
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if hi - lo <= tol * max(1.0, hi):
            break
        x = y ** (1.0 / (m - 1))
        x = x / np.max(x)
    else:
        warnings.warn("nqz_spectral_radius: ratio bounds did not converge", RuntimeWarning)
    return max(float(np.sqrt(lo * hi)) - eps, 0.0)
