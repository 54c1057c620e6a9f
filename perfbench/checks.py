"""Independent checks of tgmat CLI output.

Nothing here imports tgmat.  Each check recomputes what it needs from the
sparse entry lists the benchmark wrote (1-based index tuples), or tests a
property the method must have.  A check returns None when the output is
right and a one-line reason when it is not.

CLI numbers are printed with six decimals, so comparisons against exact
values allow half a unit in the sixth decimal (``PRINT_TOL``).
"""

from __future__ import annotations

import math

import numpy as np

PRINT_TOL = 5e-7 + 1e-12


# ---------------------------------------------------------------- tensors


def dense(m, n, entries):
    """Dense 0-based array from a {1-based tuple: value} mapping."""
    arr = np.zeros((n,) * m)
    for idx, val in entries.items():
        arr[tuple(k - 1 for k in idx)] = val
    return arr


def diag_values(m, n, entries):
    return np.array([entries.get((i,) * m, 0.0) for i in range(1, n + 1)])


def s_from_entries(m, n, entries):
    """s_ij from its definition: each non-diagonal tuple of row i adds
    |a| / (m-1) once per trailing position holding j."""
    S = np.zeros((n, n))
    for idx, val in entries.items():
        i = idx[0]
        if all(k == i for k in idx):
            continue
        for k in idx[1:]:
            S[i - 1, k - 1] += abs(val) / (m - 1)
    return S


def deleted_row_sums(m, n, entries):
    """r_i: total |a| over the non-diagonal tuples of row i."""
    r = np.zeros(n)
    for idx, val in entries.items():
        if not all(k == idx[0] for k in idx):
            r[idx[0] - 1] += abs(val)
    return r


def contract(A, x):
    """A x^{m-1} by flattening the trailing axes against x (x) ... (x) x."""
    n, m = A.shape[0], A.ndim
    kron = np.ones(1)
    for _ in range(m - 1):
        kron = np.kron(kron, x)
    return A.reshape(n, -1) @ kron


def eig_residual(A, lam, x):
    """max |A x^{m-1} - lam x^[m-1]| at x scaled to max-norm one."""
    x = np.asarray(x, dtype=float)
    x = x / x[np.argmax(np.abs(x))]
    return float(np.max(np.abs(contract(A, x) - lam * x ** (A.ndim - 1))))


def h_slack(m, n, entries, y):
    """Per-row slack |a_i..i| y_i^{m-1} - sum_non-diag |a| y_i2 ... y_im."""
    y = np.asarray(y, dtype=float)
    lhs = np.abs(diag_values(m, n, entries)) * y ** (m - 1)
    rhs = np.zeros(n)
    for idx, val in entries.items():
        i = idx[0]
        if all(k == i for k in idx):
            continue
        rhs[i - 1] += abs(val) * float(np.prod([y[k - 1] for k in idx[1:]]))
    return lhs - rhs


def in_gershgorin(m, n, entries, lam, slack=PRINT_TOL):
    """Real lam lies in some disc |lam - a_i..i| <= r_i."""
    c = diag_values(m, n, entries)
    r = deleted_row_sums(m, n, entries)
    return bool(np.any(np.abs(lam - c) <= r + slack * max(1.0, abs(lam))))


def dim2_eigenvalues(m, entries):
    """Real H-eigenvalues of a dimension-2 tensor, split by how clearly real.

    With x = (1, s): f_i(s) = (A (1, s)^{m-1})_i is a polynomial whose
    coefficient of s^k collects the row-i tuples with k trailing 2s, and
    eigenpairs solve f_2(s) = s^{m-1} f_1(s) with lam = f_1(s).  The
    direction (0, 1) is an eigenvector when a_{1 2...2} = 0.  Returns
    (certain, possible): roots with negligible imaginary part, and roots
    whose imaginary part is small enough that rounding may make them real.
    """
    f = np.zeros((2, m))
    for idx, val in entries.items():
        f[idx[0] - 1, sum(1 for k in idx[1:] if k == 2)] += val
    p = np.zeros(2 * m - 1)
    p[:m] += f[1]
    p[m - 1:] -= f[0]
    scale = max(1.0, float(np.max(np.abs(f))))
    certain, possible = [], []
    if np.max(np.abs(p)) > 1e-14 * scale:
        for root in np.roots(np.trim_zeros(p[::-1], "f")):
            s = float(root.real)
            lam = float(np.polyval(f[0][::-1], s))
            im = abs(root.imag) / max(1.0, abs(root))
            if im <= 1e-10:
                certain.append(lam)
            elif im <= 1e-5:
                possible.append(lam)
    if abs(entries.get((1,) + (2,) * (m - 1), 0.0)) <= 1e-12 * scale:
        certain.append(float(entries.get((2,) * m, 0.0)))
    return certain, possible


def cassini_dim2(m, entries):
    """Closed-form real extent of the dimension-2 Cassini oval pair.

    With u_i = a_i..i + s_ii and v_i = a_i..i - s_ii the outermost real
    members solve (x - u_1)(x - u_2) = P_1 P_2 and (v_1 - x)(v_2 - x) =
    P_1 P_2, and both roots lie where the exclusion brackets are positive.
    """
    S = s_from_entries(m, 2, entries)
    c = diag_values(m, 2, entries)
    pp = S[0, 1] * S[1, 0]
    u = c + np.diag(S)
    v = c - np.diag(S)
    upper = 0.5 * (u[0] + u[1] + math.sqrt((u[0] - u[1]) ** 2 + 4.0 * pp))
    lower = 0.5 * (v[0] + v[1] - math.sqrt((v[0] - v[1]) ** 2 + 4.0 * pp))
    return lower, upper


def _kron_powers(X, k):
    """Rows x (x) ... (x) x (k factors), shape (batch, n^k)."""
    out = np.ones((X.shape[0], 1))
    for _ in range(k):
        out = (out[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
    return out


def newton_eigenpairs(A, starts=1000, seed=12345, lam0=None):
    """Real H-eigenpairs of A by batched damped Newton from random starts.

    Solves A x^{m-1} = lam x^[m-1], |x|^2 = 1 for all starts at once.
    ``lam0`` fixes the initial eigenvalue guess (otherwise the Rayleigh-like
    quotient).  A start whose step cannot be solved or cannot be damped
    into a decrease is dropped.  Returns deduplicated (lam, x, residual)
    with residuals measured by ``eig_residual``.
    """
    n, m = A.shape[0], A.ndim
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((starts, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    flat = A.reshape(n, -1)
    # d/dx of A x^{m-1}: one term per trailing slot, that slot left open
    slots = [np.moveaxis(A, k + 1, 1).reshape(n, n, -1) for k in range(m - 1)]

    def F(X, L):
        v = _kron_powers(X, m - 1) @ flat.T
        return np.concatenate([v - L[:, None] * X ** (m - 1), (np.sum(X * X, axis=1) - 1.0)[:, None]], axis=1)

    if lam0 is None:
        denom = np.sum(X ** m, axis=1)
        num = np.sum(X * (_kron_powers(X, m - 1) @ flat.T), axis=1)
        safe = np.abs(denom) > 1e-8
        L = np.where(safe, num / np.where(safe, denom, 1.0), 0.0)
    else:
        L = np.full(starts, float(lam0))
    Fx = F(X, L)
    norm = np.max(np.abs(Fx), axis=1)
    alive = np.ones(starts, dtype=bool)
    for _ in range(80):
        act = np.flatnonzero(alive & (norm > 1e-12))
        if act.size == 0:
            break
        Xa, La = X[act], L[act]
        K = _kron_powers(Xa, m - 2)
        J = np.zeros((act.size, n + 1, n + 1))
        J[:, :n, :n] = sum(np.einsum("ijr,br->bij", Ak, K) for Ak in slots)
        J[:, :n, :n] -= (m - 1) * La[:, None, None] * np.eye(n) * (Xa ** (m - 2))[:, None, :]
        J[:, :n, n] = -(Xa ** (m - 1))
        J[:, n, :n] = 2.0 * Xa
        step = np.zeros((act.size, n + 1))
        solved = np.ones(act.size, dtype=bool)
        try:
            step = np.linalg.solve(J, -Fx[act][..., None])[..., 0]
        except np.linalg.LinAlgError:
            for b in range(act.size):
                try:
                    step[b] = np.linalg.solve(J[b], -Fx[act[b]])
                except np.linalg.LinAlgError:
                    solved[b] = False
        alive[act[~solved]] = False
        pending = solved.copy()
        t = np.ones(act.size)
        for _ in range(30):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            Xt = Xa[idx] + t[idx, None] * step[idx, :n]
            Lt = La[idx] + t[idx] * step[idx, n]
            Ft = F(Xt, Lt)
            nt = np.max(np.abs(Ft), axis=1)
            acc = nt < norm[act[idx]]
            g = act[idx[acc]]
            X[g], L[g], Fx[g], norm[g] = Xt[acc], Lt[acc], Ft[acc], nt[acc]
            pending[idx[acc]] = False
            t[idx[~acc]] *= 0.5
        alive[act[pending]] = False
    pairs = []
    for b in np.flatnonzero(norm <= 1e-10):
        if not np.all(np.isfinite(X[b])) or not np.isfinite(L[b]):
            continue
        res = eig_residual(A, float(L[b]), X[b])
        if res <= 1e-8 * max(1.0, abs(L[b])):
            pairs.append((float(L[b]), X[b] / X[b][np.argmax(np.abs(X[b]))], res))
    pairs.sort(key=lambda p: p[0])
    out = []
    for p in pairs:
        if out and abs(p[0] - out[-1][0]) <= 1e-7 * max(1.0, abs(p[0])):
            continue
        out.append(p)
    return out


def confirm_eigenvalue(A, lam, found):
    """Find an eigenvector for the printed value lam.

    Looks first among ``found`` (pairs from ``newton_eigenpairs``), then
    runs Newton with lam as the initial guess.  Returns the residual of the
    confirming pair, or None.
    """
    tol = 2e-6 * max(1.0, abs(lam))
    for val, _, res in found:
        if abs(val - lam) <= tol:
            return res
    for seed in (1, 2):
        for val, _, res in newton_eigenpairs(A, starts=2000, seed=seed, lam0=lam):
            if abs(val - lam) <= tol:
                return res
    return None


# ---------------------------------------------------------------- parsing


def _rows(text):
    return [line.split(",") for line in text.strip().splitlines()]


def parse_keyed(text):
    """First-column keyed lines of certify / spin-certify output."""
    out = {}
    for row in _rows(text):
        out.setdefault(row[0], row[1:])
    return out


def parse_table(text, header):
    rows = _rows(text)
    if not rows or ",".join(rows[0]) != header:
        raise ValueError(f"expected header {header!r}")
    return rows[1:]


# ---------------------------------------------------------------- checks


def check_certify(text, code, spec):
    """certify: verdict/exit code agree, expectations of the design hold,
    and a printed scaling satisfies the strict H-tensor inequality."""
    m, n, entries = spec["m"], spec["n"], spec["entries"]
    kv = parse_keyed(text)
    verdict = kv.get("verdict", [""])[0]
    if verdict not in ("certified_H", "not_certified"):
        return f"unknown verdict {verdict!r}"
    certified = verdict == "certified_H"
    if code != (0 if certified else 2):
        return f"exit code {code} does not match verdict {verdict}"
    if spec["expect"] == "certified" and not certified:
        return f"{spec['design']} input (an H-matrix by construction) was not certified"
    if spec["expect"] == "not_H" and certified:
        return "input with a zero diagonal entry came out certified_H"
    if "scaling" in kv and kv["scaling"] != ["none"]:
        y = np.array([float(v) for v in kv["scaling"]])
        if len(y) != n or np.any(y <= 0):
            return "scaling is not an entrywise positive vector of length n"
        slack = h_slack(m, n, entries, y)
        if np.any(slack <= 0.0):
            return f"printed scaling violates the strict H-tensor inequality in row {int(np.argmin(slack)) + 1}"
    return None


def check_gen_matrix(text, code, spec):
    """gen-matrix: every printed entry and statistic matches s_ij from its definition."""
    m, n, entries = spec["m"], spec["n"], spec["entries"]
    if code != 0:
        return f"exit code {code}"
    rows = _rows(text)
    if rows[0] != ["order", str(m)] or rows[1] != ["dim", str(n)] or rows[2] != ["matrix"]:
        return "header lines differ"
    G = np.array([[float(v) for v in r] for r in rows[3:3 + n]])
    S = s_from_entries(m, n, entries)
    d = np.abs(diag_values(m, n, entries))
    want = S.copy()
    np.fill_diagonal(want, d - np.diag(S))
    if G.shape != (n, n) or np.max(np.abs(G - want) - 1e-12 * np.abs(want)) > PRINT_TOL:
        return "generated matrix differs from s_ij computed from the entries"
    if rows[3 + n] != ["stats"] or rows[4 + n] != ["i", "diag_abs", "s_ii", "r_i", "P_i", "Q_i"]:
        return "stats header differs"
    stats = np.array([[float(v) for v in r] for r in rows[5 + n:5 + 2 * n]])
    off = S - np.diag(np.diag(S))
    P, Q = off.sum(axis=1), off.sum(axis=0)
    want = np.column_stack([np.arange(1, n + 1), d, np.diag(S), deleted_row_sums(m, n, entries), P, Q])
    if stats.shape != want.shape or np.max(np.abs(stats - want) - 1e-12 * np.abs(want)) > PRINT_TOL:
        return "row statistics differ from s_ij computed from the entries"
    return None


def check_spin_certify(text, code, spec):
    kv = parse_keyed(text)
    verdict = kv.get("verdict", [""])[0]
    if kv.get("m") != [str(spec["m"])]:
        return "m line differs"
    if verdict not in ("certified_classical", "inconclusive"):
        return f"unknown verdict {verdict!r}"
    if code != (0 if verdict == "certified_classical" else 2):
        return f"exit code {code} does not match verdict {verdict}"
    if spec["nonclassical"] and verdict == "certified_classical":
        return f"nonclassical state {spec['label']} was certified classical"
    return None


def check_roundtrip(text, code, spec):
    kv = parse_keyed(text)
    if code != 0 or kv.get("m") != [str(spec["m"])]:
        return "bad exit code or m line"
    err = float(kv["max_abs_error"][0])
    if not err <= 1e-10:
        return f"round trip error {err:.3e} above 1e-10"
    return None


def _bounds_rows(text):
    out = {}
    for kind, gamma, subset, lower, upper in parse_table(text, "kind,gamma,subset,lower,upper"):
        out[(kind, gamma, subset)] = (float(lower), float(upper))
    return out


def check_bounds(text, code, spec):
    """bounds: every interval holds every known H-eigenvalue; on dimension 2
    the Cassini row equals the closed-form oval extent."""
    if code != 0:
        return f"exit code {code}"
    rows = _bounds_rows(text)
    if len(rows) != (8 if spec["n"] > 2 else 7):
        return f"{len(rows)} rows, expected one per default kind and gamma"
    for key, (lo, hi) in rows.items():
        for lam in spec["eigenvalues"]:
            if not lo - PRINT_TOL * max(1.0, abs(lam)) <= lam <= hi + PRINT_TOL * max(1.0, abs(lam)):
                return f"{key[0]} interval [{lo}, {hi}] excludes the H-eigenvalue {lam:.9g}"
    if spec["n"] == 2:
        lo, hi = rows[("cassini", "", "")]
        want = cassini_dim2(spec["m"], spec["entries"])
        if abs(lo - want[0]) > 2 * PRINT_TOL * max(1.0, abs(lo)) or abs(hi - want[1]) > 2 * PRINT_TOL * max(1.0, abs(hi)):
            return f"dimension-2 Cassini bounds [{lo}, {hi}] differ from the quadratic roots {want}"
    return None


def check_bounds_scaled(text, code, spec, reference_text):
    """bounds of c*A must be c times the bounds of A, to the printed digits."""
    if code != 0:
        return f"exit code {code}"
    got, ref = _bounds_rows(text), _bounds_rows(reference_text)
    if got.keys() != ref.keys():
        return "row set differs from the unscaled tensor's"
    c = spec["factor"]
    for key, pair in got.items():
        for g, r in zip(pair, ref[key]):
            if abs(g - c * r) > PRINT_TOL:
                return f"{key[0]} bound {g} is not {c:g} x {r} (bounds do not scale with the tensor)"
    return None


def parse_grid(text):
    rows = parse_table(text, "re,im,member")
    arr = np.array([[float(a), float(b), float(c)] for a, b, c in rows]) if rows else np.zeros((0, 3))
    return arr


def check_grid(text, code, spec, gershgorin_text=None):
    """region-grid: row-major rows on the requested grid with 0/1 members;
    Gershgorin rows agree with the disc test away from disc boundaries;
    Cassini members lie inside the Gershgorin members of the same grid."""
    if code != 0:
        return f"exit code {code}"
    m, n, entries = spec["m"], spec["n"], spec["entries"]
    (re0, re1), (im0, im1), nx, ny = spec["re"], spec["im"], spec["nx"], spec["ny"]
    arr = parse_grid(text)
    if arr.shape[0] != nx * ny:
        return f"{arr.shape[0]} rows, expected nx*ny = {nx * ny}"
    zr = np.repeat(np.linspace(re0, re1, nx), ny)
    zi = np.tile(np.linspace(im0, im1, ny), nx)
    span = max(abs(re0), abs(re1), abs(im0), abs(im1), 1.0)
    if np.max(np.abs(arr[:, 0] - zr)) > 1e-8 * span or np.max(np.abs(arr[:, 1] - zi)) > 1e-8 * span:
        return "grid coordinates are not the row-major linspace grid"
    member = arr[:, 2]
    if not np.all((member == 0) | (member == 1)):
        return "member column is not 0/1"
    c = diag_values(m, n, entries)
    r = deleted_row_sums(m, n, entries)
    gap = np.abs(np.hypot(zr[:, None] - c, zi[:, None]) - r)  # distance to each disc edge
    clear = np.min(gap, axis=1) > 1e-6 * span
    discs = np.any(np.hypot(zr[:, None] - c, zi[:, None]) <= r, axis=1)
    if spec["kind"] == "gershgorin":
        bad = clear & (discs != (member == 1))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            return f"Gershgorin member flag at ({zr[k]:.6g}, {zi[k]:.6g}) disagrees with the disc test"
    if spec["kind"] == "cassini":
        ger = parse_grid(gershgorin_text)[:, 2]
        bad = clear & (member == 1) & (ger == 0)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            return f"Cassini member at ({zr[k]:.6g}, {zi[k]:.6g}) lies outside the Gershgorin set"
    return None


def check_oracle(text, code, spec):
    """oracle: each printed eigenvalue has an eigenvector found here with a
    small residual and lies in the tensor Gershgorin set; on dimension 2
    the printed set equals the roots computed here.  The eigenpair search is
    kept in ``spec["found"]`` for the other calls on the same tensor."""
    if code != 0:
        return f"exit code {code}"
    m, n, entries = spec["m"], spec["n"], spec["entries"]
    values = [float(row[0]) for row in parse_table(text, "lambda,residual")]
    A = dense(m, n, entries)
    for lam in values:
        if not in_gershgorin(m, n, entries, lam):
            return f"eigenvalue {lam} lies outside the tensor Gershgorin set"
    if n == 2:
        certain, possible = dim2_eigenvalues(m, entries)
        close = lambda a, b: abs(a - b) <= 2 * PRINT_TOL * max(1.0, abs(b))
        for lam in certain:
            if not any(close(v, lam) for v in values):
                return f"dimension-2 eigenvalue {lam:.9g} missing from the printed set"
        for v in values:
            if not any(close(v, lam) for lam in certain + possible):
                return f"printed eigenvalue {v} is not a root of the dimension-2 polynomial"
        return None
    if "found" not in spec:
        spec["found"] = newton_eigenpairs(A)
    for lam in values:
        res = confirm_eigenvalue(A, lam, spec["found"])
        if res is None:
            return f"no eigenvector found for the printed eigenvalue {lam}"
    return None
