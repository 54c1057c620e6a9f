"""Seeded inputs and operation lists of the four workloads.

Every workload is a fixed list of operations (one ``tgmat`` subcommand
each) built from ``--seed`` alone.  ``build(name, seed, workdir)`` writes
the input files and returns the operations in their round order: the
subcommands of a workload are interleaved so that a drift in machine speed
during a run falls on every kind alike.

Nothing here imports tgmat; the tensors are written as sparse entry lists
and the same lists drive the independent checks in ``checks.py``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("screen", "bounds", "grid", "oracle")

# The two demo tensors of the paper's examples (order 4, dimensions 2 and 4).
DEMO_42 = {
    (1, 1, 1, 1): 7, (1, 1, 1, 2): -2, (1, 1, 2, 1): -2, (1, 2, 1, 1): -2,
    (2, 1, 1, 1): -2, (2, 2, 2, 2): 6, (2, 2, 2, 1): -1, (2, 2, 1, 2): -1,
    (2, 1, 2, 2): -1, (1, 2, 2, 2): -1,
}
DEMO_44 = {
    (1, 1, 1, 1): 10, (2, 2, 2, 2): 8, (3, 3, 3, 3): 7, (4, 4, 4, 4): 5,
    (1, 3, 3, 3): 1, (1, 4, 4, 4): 1, (1, 2, 1, 1): 1, (1, 1, 1, 3): 1, (1, 1, 4, 1): 1,
    (1, 3, 3, 2): 1, (1, 4, 4, 2): 1, (1, 2, 3, 2): 1, (1, 2, 3, 4): 1, (1, 3, 2, 1): 1,
    (1, 2, 1, 4): 1,
    (2, 3, 3, 3): 1, (2, 4, 4, 4): 1, (2, 1, 1, 2): 1, (2, 2, 3, 4): 1, (2, 1, 1, 3): 1,
    (2, 3, 4, 3): 1, (2, 1, 2, 3): 1,
    (3, 2, 2, 2): 1, (3, 1, 1, 1): 1, (3, 1, 2, 1): 1, (3, 4, 3, 4): 1, (3, 1, 2, 3): 1,
    (4, 2, 2, 2): 1, (4, 1, 1, 1): 1, (4, 1, 2, 1): 1, (4, 3, 3, 4): 1,
}

# screen: (order, dim) ladder and the cascade designs built on each size
SCREEN_LADDER = ((4, 4), (4, 10), (4, 20), (3, 30), (6, 8))
SCREEN_DESIGNS = ("SDD", "DoublySDD", "GammaSDD", "ProductGammaSDD", "GeneralizedH", "ZeroDiagonal", "Weak")
SPIN_ORDERS = (2, 4, 6, 8)

# bounds: (order, dim) of the tensors with planted eigenpairs, plus dimension-2 tensors
# (sizes spread so that latencies are spread too, with no gap at p50 or p90)
BOUNDS_SIZES = ((3, 3), (6, 3), (4, 4), (5, 4), (3, 5), (4, 5), (3, 6), (4, 6), (3, 7), (3, 8), (3, 9), (3, 10))
BOUNDS_DIM2_ORDERS = (3, 5)
SCALE_FACTOR = 1e-8

# grid: tensors and grid size shared by all six kinds
GRID_SIZES = ((3, 5), (4, 4))
GRID_NX, GRID_NY = 240, 120
GRID_KIND_ARGS = {
    "gershgorin": [], "cassini": [], "ostrowski": ["--gamma", "0.5"],
    "gammamix": ["--gamma", "0.5"], "stype": ["--subset", "1,2"], "ssingleton": [],
}

# oracle: Newton tensors (two of each size), calls on each, exact-path tensors, starts per call
ORACLE_SIZES = ((3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5)) * 2
ORACLE_CALLS = 3
ORACLE_DIM2_ORDERS = (3, 4, 6)
ORACLE_STARTS = 20
ORACLE_BASE_SEED = 2410


@dataclass
class Op:
    """One CLI call: argv (without --output), its input files, its check.

    ``inputs`` lists (kind, path) pairs, kind "tensor" or "state", for the
    set-up probe.  ``check(text, code, outputs)`` returns None or a reason;
    ``outputs`` maps op names to the output text of the same round, for
    checks that compare two operations.  ``known_fault`` marks the
    operations that fail every time because of a named fault in the program.
    """

    name: str
    argv: list
    inputs: list
    check: Callable
    known_fault: bool = False


def _write_tensor(path, m, n, entries):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"order": m, "dim": n,
                   "entries": [{"idx": list(k), "val": float(v)} for k, v in sorted(entries.items())]}, fh)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _interleave(ops):
    """Round-robin over subcommands, keeping each subcommand's own order."""
    groups = {}
    for op in ops:
        groups.setdefault(op.argv[0], []).append(op)
    out = []
    while any(groups.values()):
        for g in groups.values():
            if g:
                out.append(g.pop(0))
    return out


# ---------------------------------------------------------------- screen


def _off_pattern(rng, n, special):
    """Nonnegative off-diagonal matrix B with no edges among ``special`` rows,
    each special row linked both ways with every other row."""
    B = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < min(1.0, 4.0 / n))
    np.fill_diagonal(B, 0.0)
    others = [i for i in range(n) if i not in special]
    for s in special:
        for t in special:
            B[s, t] = 0.0
        for o in others:
            B[s, o] = B[s, o] or rng.uniform(0.5, 1.5)
            B[o, s] = B[o, s] or rng.uniform(0.5, 1.5)
    for i in others:  # every row and column carries mass
        j = others[(others.index(i) + 1) % len(others)] if len(others) > 1 else special[0]
        if j != i:
            B[i, j] = B[i, j] or rng.uniform(0.5, 1.5)
    return B


def _row_col(B):
    return B.sum(axis=1), B.sum(axis=0)


def _design_diagonal(rng, design, n):
    """Off-diagonal pattern B and generated-matrix diagonal d for a design.

    Each positive design is an H-matrix by construction; margins keep every
    rule decision away from its threshold.
    """
    k, h, l = 0, 1, 2
    if design == "GammaSDD":
        B = _off_pattern(rng, n, [k, h])
        for s in (k, h):  # P_s = 3 Q_s; Q_s is untouched since specials share no edges
            B[s] *= 3.0 * B[:, s].sum() / B[s].sum()
        P, Q = _row_col(B)
        d = 1.3 * np.maximum(P, Q)
        d[[k, h]] = 2.0 * Q[[k, h]]  # gamma < 0.5 works, SDD and DoublySDD fail
        return B, d
    if design == "ProductGammaSDD":
        B = _off_pattern(rng, n, [k, h, l])
        for s in (k, h):
            B[s] *= 4.0 * B[:, s].sum() / B[s].sum()
        B[l] *= 0.25 * B[:, l].sum() / B[l].sum()
        P, Q = _row_col(B)
        d = 1.3 * np.maximum(P, Q)
        # linear gamma needs gamma < 0.4 and > 0.6; the product form admits 0.5
        d[[k, h]] = 2.2 * Q[[k, h]]
        d[l] = 2.2 * P[l]
        return B, d
    B = _off_pattern(rng, n, [k])
    P, Q = _row_col(B)
    if design == "SDD" or design == "ZeroDiagonal":
        return B, P * rng.uniform(1.05, 1.5, n)
    if design == "DoublySDD":
        d = 1.3 * P
        d[k] = 0.9 * P[k]
        return B, d
    if design == "Weak":
        return B, 0.5 * np.minimum(P, Q)
    if design == "GeneralizedH":
        return _generalized_h(rng, n)
    raise ValueError(design)


def _dominance_holds(B, d):
    """Whether SDD, DoublySDD, linear or product gamma-SDD holds for
    diag(d) - B (the definitions, with a 1% margin)."""
    P, Q = _row_col(B)
    n = len(d)
    sdd = np.all(d > 1.01 * P)
    doubly = all(d[i] * d[j] > 1.01 * P[i] * P[j] for i in range(n) for j in range(i + 1, n))
    gs = np.linspace(0.0, 1.0, 2001)
    lin = np.any(np.all(d[None, :] > 0.99 * (gs[:, None] * P + (1 - gs[:, None]) * Q), axis=1))
    prod = np.any(np.all(d[None, :] > 0.99 * P ** gs[:, None] * Q ** (1 - gs[:, None]), axis=1))
    return sdd or doubly or lin or prod


def _generalized_h(rng, n):
    """diag(d) - B with diag(d) diag(x) - B diag(x) strictly dominant for a
    spread-out x (so an H-matrix) while no dominance rule holds."""
    for _ in range(200):
        big = rng.permutation(n)[: max(2, n // 2)]
        x = np.ones(n)
        x[big] = 10.0
        B = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < min(1.0, 4.0 / n))
        np.fill_diagonal(B, 0.0)
        small = [i for i in range(n) if i not in big]
        for b in big:  # heavy rows lean on light columns and feed light rows
            B[b, rng.choice(small)] = rng.uniform(1.0, 2.0)
            B[rng.choice(small), b] = rng.uniform(1.0, 2.0)
            B[b, big] = 0.0
        d = 1.2 * (B @ x) / x
        d = np.where(d > 0, d, 1.0)
        if not _dominance_holds(B, d):
            return B, d
    raise RuntimeError("could not draw a GeneralizedH design")


def design_tensor(rng, m, n, design):
    """Sparse tensor whose generated matrix is diag(d) - B (signs aside).

    Each B_ij is split between the tuple (i, j, ..., j), which adds to s_ij
    only, and a tuple with one trailing j among trailing i's, which adds to
    s_ij and s_ii; |a_i..i| = d_i + s_ii.
    """
    B, d = _design_diagonal(rng, design, n)
    entries = {}
    s_ii = np.zeros(n)
    for i in range(n):
        for j in map(int, np.flatnonzero(B[i])):
            w = B[i, j] * rng.uniform(0.3, 1.0)
            v = (m - 1) * (B[i, j] - w)
            entries[(i + 1,) + (j + 1,) * (m - 1)] = w * rng.choice((-1.0, 1.0))
            if v > 0:
                tail = [i + 1] * (m - 1)
                tail[int(rng.integers(m - 1))] = j + 1
                entries[(i + 1,) + tuple(tail)] = v * rng.choice((-1.0, 1.0))
                s_ii[i] += v * (m - 2) / (m - 1)
    diag = (d + s_ii) * rng.choice((-1.0, 1.0), n, p=(0.2, 0.8))
    if design == "ZeroDiagonal":
        diag[int(rng.integers(n))] = 0.0
    for i in range(n):
        if diag[i] != 0.0:
            entries[(i + 1,) * m] = float(diag[i])
    return entries


def spin_states(rng, m):
    """(label, json, nonclassical) for one order: a coherent mixture, a
    Dicke state |j, 0> (pure and not coherent, so nonclassical), and a
    random pure state mixed with the maximally mixed state."""
    k = int(rng.integers(1, 4))
    w = rng.dirichlet(np.ones(k))
    w[-1] = 1.0 - float(np.sum(w[:-1]))
    comps = [{"w": float(wi), "theta": float(rng.uniform(0, np.pi)), "phi": float(rng.uniform(0, 2 * np.pi))}
             for wi in w]
    dicke = np.zeros((m + 1, m + 1))
    dicke[m // 2, m // 2] = 1.0
    psi = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
    psi /= np.linalg.norm(psi)
    p = rng.uniform(0.3, 0.9)
    rho = p * np.eye(m + 1) / (m + 1) + (1 - p) * np.outer(psi, psi.conj())
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return [
        (f"mixture{m}", {"m": m, "components": comps}, False),
        (f"dicke{m}", {"m": m, "rho_re": dicke.tolist()}, True),
        (f"noisy{m}", {"m": m, "rho_re": rho.real.tolist(), "rho_im": rho.imag.tolist()}, False),
    ]


def build_screen(rng, workdir):
    ops = []
    for m, n in SCREEN_LADDER:
        for design in SCREEN_DESIGNS:
            entries = design_tensor(rng, m, n, design)
            name = f"{design}_{m}x{n}"
            path = os.path.join(workdir, name + ".json")
            _write_tensor(path, m, n, entries)
            expect = {"ZeroDiagonal": "not_H", "Weak": None}.get(design, "certified")
            spec = {"m": m, "n": n, "entries": entries, "design": design, "expect": expect}
            ops.append(Op("certify:" + name, ["certify", "--input", path], [("tensor", path)],
                          lambda text, code, outs, s=spec: checks.check_certify(text, code, s)))
            ops.append(Op("gen-matrix:" + name, ["gen-matrix", "--input", path], [("tensor", path)],
                          lambda text, code, outs, s=spec: checks.check_gen_matrix(text, code, s)))
    for m in SPIN_ORDERS:
        for label, obj, nonclassical in spin_states(rng, m):
            path = os.path.join(workdir, label + ".json")
            _write_json(path, obj)
            spec = {"m": m, "label": label, "nonclassical": nonclassical}
            ops.append(Op("spin-certify:" + label, ["spin-certify", "--input", path], [("state", path)],
                          lambda text, code, outs, s=spec: checks.check_spin_certify(text, code, s)))
            ops.append(Op("spin-roundtrip:" + label, ["spin-roundtrip", "--input", path], [("state", path)],
                          lambda text, code, outs, s=spec: checks.check_roundtrip(text, code, s)))
    return ops


# ---------------------------------------------------------------- bounds


def planted_tensor(rng, m, n):
    """Sparse tensor with n + 1 known real H-eigenpairs.

    No tuple (i, k, ..., k) with i != k is used, so every unit vector e_k is
    an eigenvector with eigenvalue a_k..k.  One more tuple per row,
    (i, i, ..., i, j_i), is solved for so that a random x with entries of
    modulus in [0.5, 1] is an eigenvector with a random eigenvalue.
    Returns (entries, eigenvalues).
    """
    diag = rng.uniform(-2.0, 10.0, n)
    x = rng.uniform(0.5, 1.0, n) * rng.choice((-1.0, 1.0), n)
    x[int(rng.integers(n))] = 1.0
    lam = float(rng.uniform(diag.min() - 2.0, diag.max() + 2.0))
    free = {}
    for i in range(n):
        j = int(rng.choice([k for k in range(n) if k != i]))
        free[i] = (i,) + (i,) * (m - 2) + (j,)
    entries = {}
    budget = max(2 * n, int(0.15 * n ** m))
    for flat in rng.choice(n ** m, size=min(budget, n ** m), replace=False):
        tup = np.unravel_index(int(flat), (n,) * m)
        tail = tup[1:]
        if all(k == tail[0] for k in tail) or tup == free[tup[0]]:
            continue  # keeps e_k eigenvectors; free tuples are solved below
        entries[tuple(int(k) + 1 for k in tup)] = float(rng.uniform(-1.0, 1.0))
    for i in range(n):
        entries[(i + 1,) * m] = float(diag[i])
    A = checks.dense(m, n, entries)
    base = checks.contract(A, x)
    for i in range(n):
        f = free[i]
        coef = x[i] ** (m - 2) * x[f[-1]]
        entries[tuple(k + 1 for k in f)] = float((lam * x[i] ** (m - 1) - base[i]) / coef)
    return entries, [float(v) for v in diag] + [lam]


def _dim2_tensor(rng, m):
    entries = {}
    for tup in np.ndindex(*([2] * m)):
        if rng.random() < 0.6:
            entries[tuple(k + 1 for k in tup)] = float(rng.uniform(-2.0, 2.0))
    entries[(1,) * m] = float(rng.uniform(4.0, 9.0))
    entries[(2,) * m] = float(rng.uniform(3.0, 8.0))
    return entries


def build_bounds(rng, workdir):
    ops = []
    tensors = []
    for m, n in BOUNDS_SIZES:
        entries, eig = planted_tensor(rng, m, n)
        tensors.append((f"planted_{m}x{n}", m, n, entries, eig))
    for m in BOUNDS_DIM2_ORDERS:
        entries = _dim2_tensor(rng, m)
        tensors.append((f"dim2_{m}", m, 2, entries, checks.dim2_eigenvalues(m, entries)[0]))
    tensors.append(("demo42", 4, 2, DEMO_42, checks.dim2_eigenvalues(4, DEMO_42)[0]))
    found = checks.newton_eigenpairs(checks.dense(4, 4, DEMO_44), starts=1000)
    tensors.append(("demo44", 4, 4, DEMO_44, [p[0] for p in found]))
    for name, m, n, entries, eig in tensors:
        path = os.path.join(workdir, name + ".json")
        _write_tensor(path, m, n, entries)
        spec = {"m": m, "n": n, "entries": entries, "eigenvalues": eig}
        ops.append(Op("bounds:" + name, ["bounds", "--input", path], [("tensor", path)],
                      lambda text, code, outs, s=spec: checks.check_bounds(text, code, s)))
    # bounds must scale with the tensor; fails today through the absolute
    # margin floor of 1 in regions._leq/_gt (see the README)
    for name, m, n, entries in (("demo42", 4, 2, DEMO_42), ("demo44", 4, 4, DEMO_44)):
        scaled = {k: SCALE_FACTOR * v for k, v in entries.items()}
        path = os.path.join(workdir, name + "_scaled.json")
        _write_tensor(path, m, n, scaled)
        spec = {"factor": SCALE_FACTOR}
        ops.append(Op("bounds:" + name + "_scaled", ["bounds", "--input", path], [("tensor", path)],
                      lambda text, code, outs, s=spec, ref="bounds:" + name:
                      checks.check_bounds_scaled(text, code, s, outs[ref]),
                      known_fault=True))
    return ops


# ---------------------------------------------------------------- grid


def build_grid(rng, workdir):
    ops = []
    tensors = [(f"random_{m}x{n}", m, n, _random_sparse(rng, m, n, 0.3)) for m, n in GRID_SIZES]
    tensors.append(("demo44", 4, 4, DEMO_44))
    for name, m, n, entries in tensors:
        path = os.path.join(workdir, name + ".json")
        _write_tensor(path, m, n, entries)
        c = checks.diag_values(m, n, entries)
        r = checks.deleted_row_sums(m, n, entries)
        lo, hi = float(np.min(c - r)), float(np.max(c + r))
        pad = 0.1 * (hi - lo)
        rad = 1.1 * float(np.max(r))
        re, im = (lo - pad, hi + pad), (-rad, rad)
        grid = f"{re[0]!r}:{re[1]!r}:{im[0]!r}:{im[1]!r}:{GRID_NX}:{GRID_NY}"
        for kind, extra in GRID_KIND_ARGS.items():
            spec = {"m": m, "n": n, "entries": entries, "kind": kind,
                    "re": re, "im": im, "nx": GRID_NX, "ny": GRID_NY}
            ger = f"region-grid:{name}:gershgorin"
            ops.append(Op(f"region-grid:{name}:{kind}",
                          ["region-grid", "--input", path, "--kind", kind, f"--grid={grid}"] + extra,
                          [("tensor", path)],
                          lambda text, code, outs, s=spec, g=ger: checks.check_grid(text, code, s, outs.get(g))))
    return ops


def _random_sparse(rng, m, n, density):
    entries = {}
    for flat in rng.choice(n ** m, size=max(n, int(density * n ** m)), replace=False):
        tup = tuple(int(k) + 1 for k in np.unravel_index(int(flat), (n,) * m))
        entries[tup] = float(rng.uniform(-1.0, 1.0))
    for i in range(1, n + 1):
        entries[(i,) * m] = float(rng.uniform(-3.0, 6.0))
    return entries


# ---------------------------------------------------------------- oracle


def build_oracle(rng, workdir):
    """Newton calls on dense tensors plus exact dimension-2 calls.

    The Newton tensors are drawn once from a fixed generator and relabelled
    by a seeded index permutation.  Relabelling leaves the eigenpairs, and
    the distribution of Newton's work over random starts, unchanged, so the
    work of a round varies with the seed only through the starts of its
    calls; with entries drawn per seed it varied by about 25%.  Dense
    entries, because sparse ones often make some e_k an eigenvector with a
    singular Newton system, where the search prints near-duplicate values.
    """
    base = np.random.default_rng(ORACLE_BASE_SEED)
    tensors = []
    for k, (m, n) in enumerate(ORACLE_SIZES):
        perm = rng.permutation(n) + 1
        entries = {tuple(int(perm[i - 1]) for i in idx): v for idx, v in _random_sparse(base, m, n, 1.0).items()}
        tensors.append((f"newton_{m}x{n}_{k}", m, n, entries, ORACLE_CALLS))
    tensors += [(f"exact_{m}x2", m, 2, _dim2_tensor(rng, m), 1) for m in ORACLE_DIM2_ORDERS]
    ops = []
    for name, m, n, entries, calls in tensors:
        path = os.path.join(workdir, name + ".json")
        _write_tensor(path, m, n, entries)
        spec = {"m": m, "n": n, "entries": entries}  # shared by the calls, which cache the search in it
        for call in range(calls):
            seed = str(int(rng.integers(1, 2 ** 31)))
            ops.append(Op(f"oracle:{name}:{call}",
                          ["oracle", "--input", path, "--starts", str(ORACLE_STARTS), "--seed", seed],
                          [("tensor", path)],
                          lambda text, code, outs, s=spec: checks.check_oracle(text, code, s)))
    return ops


GENERATORS = {"screen": build_screen, "bounds": build_bounds, "grid": build_grid, "oracle": build_oracle}


def build(name: str, seed: int, workdir: str) -> list:
    """Write the inputs of workload ``name`` for ``seed`` and return its round."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _interleave(GENERATORS[name](rng, workdir))
