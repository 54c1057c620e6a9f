"""Brute-force H-eigenpair oracles.

These routines are deliberately independent of the dominance and region
machinery so they can serve as ground truth in tests: an exact companion
matrix solve for dimension 2 and a multistart damped Newton iteration for
small dimensions (no completeness guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import NonFiniteValue, WrongDimension

__all__ = ["EigenPair", "h_eigen_exact_2d", "h_eigen_newton"]


@dataclass(frozen=True)
class EigenPair:
    """A real H-eigenpair: contract(t, x) = value * x^[m-1], with ||x||_inf = 1."""

    value: float
    vector: np.ndarray
    residual: float


def _finish_pair(t: tz.DenseTensor, lam: float, x: np.ndarray, amax: float):
    """Normalise to max-norm one, fix the sign, and re-measure the residual.

    The pair is kept when its residual is within 1e-8 max(|lam|, amax),
    where ``amax`` is the largest |a| of ``t``.
    """
    k = int(np.argmax(np.abs(x)))
    if x[k] == 0.0:
        return None
    x = x / x[k]
    res = tz.contract(t, x) - lam * x ** (t.order - 1)
    resn = float(np.max(np.abs(res)))
    if not (np.isfinite(resn) and resn <= 1e-8 * max(abs(lam), amax)):
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


def h_eigen_exact_2d(t: tz.DenseTensor) -> list[EigenPair]:
    """All real H-eigenpairs of a dimension-2 tensor.

    Substituting x = (1, s) eliminates the eigenvalue and leaves the single
    polynomial p(s) = (A(1,s)^{m-1})_2 - (A(1,s)^{m-1})_1 * s^{m-1}, whose
    real roots are taken from the companion matrix and polished by Newton,
    all roots together; the branch x = (0, 1), where A x^{m-1} is
    (a_{12...2}, a_{22...2}), is read off the top coefficients.  Coefficient
    k of (A(1,s)^{m-1})_i sums the entries a_{i...} with k trailing 2s, the 1
    bits of the flat trailing index, in index order.  All of it runs in the
    unit 2^e that brings the largest |a| into [1/2, 1) (e = 0 for the zero
    tensor): the polynomial is built from the entries times 2^-e, its
    degenerate-pencil and (0, 1) tests are 1e-14 and 1e-12, and eigenvalues
    within 1e-7 are merged.  So on 2^k A it returns 2^k times the values
    and residuals, bit for bit, with the same vectors.  A companion matrix
    or an eigenvalue beyond the float range raises NonFiniteValue.
    """
    if t.dim != 2:
        raise WrongDimension("exact oracle is limited to dimension 2")
    m = t.order
    amax = float(np.max(np.abs(t.entries)))
    e = int(np.frexp(amax)[1])
    bits = tz._bit_weights(m - 1)
    c1, c2 = (tz._sum_by(bits, row, m) for row in np.ldexp(t.entries.reshape(2, -1), -e))
    # p = c2(s) - s^{m-1} c1(s), ascending coefficients
    p = np.zeros(2 * m - 1)
    p[: m] += c2
    p[m - 1 :] -= c1
    if np.max(np.abs(p)) <= 1e-14:
        # degenerate pencil: every direction solves; sample s in {0, 1, -1}
        s = np.array([0.0, 1.0, -1.0])
    else:
        q = p[::-1]
        dq = np.polyder(q)
        top = np.trim_zeros(q, "f")
        with np.errstate(over="ignore"):
            if not np.isfinite(top[1:] / top[0]).all():
                raise NonFiniteValue("the companion matrix is beyond the float range")
        roots = np.roots(top)
        s = roots.real[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))]
        # Newton polish on the real line; a root stops for good where the derivative vanishes
        live = np.arange(len(s))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(6):
                deriv = np.polyval(dq, s[live])
                live, deriv = live[deriv != 0.0], deriv[deriv != 0.0]
                s[live] -= np.polyval(q, s[live]) / deriv
    # scaled eigenvalues and their vectors
    lams, X = np.polyval(c1[::-1], s), np.column_stack([np.ones_like(s), s])
    # A (0, 1)^{m-1} = (a_{12...2}, a_{22...2}), the top coefficients: an eigenpair iff the first vanishes
    if abs(c1[-1]) <= 1e-12:
        lams, X = np.append(lams, c2[-1]), np.vstack([X, [0.0, 1.0]])
    with np.errstate(over="ignore"):
        lams = np.ldexp(lams, e)
    if not np.isfinite(lams).all():
        raise NonFiniteValue("an H-eigenvalue is beyond the float range")
    pairs = [_finish_pair(t, float(lam), x, amax) for lam, x in zip(lams, X)]
    return _dedupe([pair for pair in pairs if pair], np.ldexp(1e-7, e))


# Newton caps shared by every start: 80 steps, the full step then the
# halvings 0.5^1 .. 0.5^29, and convergence at a max-norm residual of 1e-10
_MAX_ITER = 80
_HALVINGS = 0.5 ** np.arange(1, 30)
_TOL = 1e-10
# full steps that polish each converged pair before the dedupe
_POLISH_STEPS = 8
# numbers held by the contraction of one chunk's halving round, which
# evaluates len(_HALVINGS) trial points of n^(m-1) products per start
_CHUNK_ELEMENTS = 2 ** 18


def _operators(t: tz.DenseTensor):
    """The entries as (n, n^(m-1)), and the Jacobian's tensor as (n*n, n^(m-2)).

    d/dx of A x^{m-1} contracts all but one trailing axis; summing the
    entries with each trailing axis in turn moved next to the row axis does
    this for every axis at once.  Raises ``NonFiniteValue`` when a sum is
    beyond the float range.
    """
    m, n = t.order, t.dim
    with np.errstate(over="ignore"):
        B = sum(np.moveaxis(t.entries, k, 1) for k in range(1, m))
    if not np.isfinite(B).all():
        raise NonFiniteValue("the Newton Jacobian's tensor is beyond the float range")
    return t.entries.reshape(n, -1), B.reshape(n * n, -1)


def _system(A: np.ndarray, m: int, X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """F(x, lam) = (A x^{m-1} - lam x^[m-1], |x|^2 - 1), one row per start."""
    k, n = X.shape
    F = np.empty((k, n + 1))
    F[:, :n] = tz._contract(A, X, m - 1) - L[:, None] * X ** (m - 1)
    F[:, n] = np.einsum("ij,ij->i", X, X) - 1.0
    return F


def _newton_steps(A, B, m, X, L, F):
    """The Newton step solving J d = -F for each start, and which starts have one.

    ``B`` holds the Jacobian's tensor (see ``_operators``).  A singular J
    fails only its own start: when the batched solve raises, the starts
    whose J has ``slogdet`` sign 0 (a zero LU pivot, where ``solve``
    raises) get no step, and the others are solved again in one call.
    """
    k, n = X.shape
    d = np.arange(n)
    J = np.zeros((k, n + 1, n + 1))
    J[:, :n, :n] = tz._contract(B, X, m - 2).reshape(k, n, n)
    J[:, d, d] -= (L * (m - 1))[:, None] * X ** (m - 2)
    J[:, :n, n] = -(X ** (m - 1))
    J[:, n, :n] = 2.0 * X
    try:
        return np.linalg.solve(J, -F[:, :, None])[:, :, 0], np.ones(k, dtype=bool)
    except np.linalg.LinAlgError:
        # only the sign is read, so a zero determinant's log of 0 is no fault
        with np.errstate(divide="ignore"):
            ok = np.linalg.slogdet(J)[0] != 0.0
        step = np.zeros((k, n + 1))
        step[ok] = np.linalg.solve(J[ok], -F[ok, :, None])[:, :, 0]
        return step, ok


def _newton(A, B, m, X, L, halvings=_HALVINGS, tol=_TOL, steps=_MAX_ITER):
    """Newton from every row of (X, L) at once, for at most ``steps`` steps.

    Each start first tries the full step; a start that rejects it takes the
    first of ``halvings`` that lowers its residual, all of them evaluated in
    one stacked call.  The step lengths are exact powers of two, but the
    residuals are not independent of the stack: the first product in
    ``tz._contract`` is one matrix product over all rows, whose last bits
    depend on how many rows it has.  So a start's path and the last bits of
    its result depend on the number of starts stepped with it, and a
    one-at-a-time search may take another halving.  A start stops when its
    residual is within ``tol``, when its Jacobian is singular or when no
    step length lowers its residual.  The defaults are the damped search;
    with no halvings, ``tol`` 0 and ``_POLISH_STEPS`` steps it is the
    polish.  Returns the final X, L and the mask of starts within ``tol``.
    """
    n = X.shape[1]
    F = _system(A, m, X, L)
    norm = np.max(np.abs(F), axis=1)
    live = np.ones(len(X), dtype=bool)
    for _ in range(steps):
        live &= norm > tol
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
        # a start that rejects the full step stays only if a halving lowers its residual
        live[r] = False
        if not (r.size and len(halvings)):
            continue
        Xh = X[r][:, None, :] + halvings[:, None] * step[:, None, :n]
        Lh = L[r][:, None] + halvings * step[:, n:]
        Fh = _system(A, m, Xh.reshape(-1, n), Lh.ravel()).reshape(len(r), len(halvings), n + 1)
        lower = np.max(np.abs(Fh), axis=2) < norm[r][:, None]
        first = np.argmax(lower, axis=1)
        took = lower[np.arange(len(r)), first]
        r, first = r[took], first[took]
        live[r] = True
        X[r], L[r], F[r] = Xh[took, first], Lh[took, first], Fh[took, first]
        norm[r] = np.max(np.abs(F[r]), axis=1)
    return X, L, norm <= tol


def h_eigen_newton(t: tz.DenseTensor, starts: int = 2000, seed: int = 1) -> list[EigenPair]:
    """Multistart Newton search for real H-eigenpairs.

    Start vectors are drawn uniformly from the sphere with a fixed seed, the
    initial eigenvalue guess is the Rayleigh-like quotient when it is usable,
    and converged pairs are polished by the same Newton loop with the full
    step alone, then kept when the residual is within 1e-8 max(|lam|, max|a|)
    and deduplicated by eigenvalue within 1e-6.  The starts are taken from
    the seed's stream in chunks of a fixed size, and all starts of a chunk
    take each step together, so the last bits of a result depend on that
    size (see ``_newton``).  The returned set is whatever the starts found;
    completeness is not claimed.
    """
    rng = np.random.default_rng(seed)
    m, n = t.order, t.dim
    A, B = _operators(t)
    amax = float(np.max(np.abs(t.entries)))
    chunk = max(1, _CHUNK_ELEMENTS // (len(_HALVINGS) * n ** (m - 1)))
    pairs = []
    for done in range(0, starts, chunk):
        V = rng.standard_normal((min(chunk, starts - done), n))
        nv = np.linalg.norm(V, axis=1)
        X = V[nv != 0.0] / nv[nv != 0.0, None]
        denom = np.sum(X ** m, axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            L = tz.poly_values(t, X) / denom
        L = np.where((np.abs(denom) > 1e-8) & np.isfinite(L), L, 0.0)
        X, L, ok = _newton(A, B, m, X, L)
        X, L, _ = _newton(A, B, m, X[ok], L[ok], halvings=(), tol=0.0, steps=_POLISH_STEPS)
        for x, lam in zip(X, L):
            pair = _finish_pair(t, float(lam), x, amax)
            if pair:
                pairs.append(pair)
    return _dedupe(pairs, 1e-6)
