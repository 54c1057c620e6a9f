"""Shared fixtures: the two demo tensors and random tensor generators."""

import itertools

import numpy as np
import pytest

from tgmat.tensor import DenseTensor, build_tensor

# order 4, dimension 2; generated matrix [[3, 3], [3, 4]]
ENTRIES_42 = {
    (1, 1, 1, 1): 7, (1, 1, 1, 2): -2, (1, 1, 2, 1): -2, (1, 2, 1, 1): -2,
    (2, 1, 1, 1): -2, (2, 2, 2, 2): 6, (2, 2, 2, 1): -1, (2, 2, 1, 2): -1,
    (2, 1, 2, 2): -1, (1, 2, 2, 2): -1,
}

# order 4, dimension 4; thirty-one nonzero entries
ENTRIES_44 = {
    (1, 1, 1, 1): 10, (2, 2, 2, 2): 8, (3, 3, 3, 3): 7, (4, 4, 4, 4): 5,
    (1, 3, 3, 3): 1, (1, 4, 4, 4): 1, (1, 2, 1, 1): 1, (1, 1, 1, 3): 1, (1, 1, 4, 1): 1,
    (1, 3, 3, 2): 1, (1, 4, 4, 2): 1, (1, 2, 3, 2): 1, (1, 2, 3, 4): 1, (1, 3, 2, 1): 1,
    (1, 2, 1, 4): 1,
    (2, 3, 3, 3): 1, (2, 4, 4, 4): 1, (2, 1, 1, 2): 1, (2, 2, 3, 4): 1, (2, 1, 1, 3): 1,
    (2, 3, 4, 3): 1, (2, 1, 2, 3): 1,
    (3, 2, 2, 2): 1, (3, 1, 1, 1): 1, (3, 1, 2, 1): 1, (3, 4, 3, 4): 1, (3, 1, 2, 3): 1,
    (4, 2, 2, 2): 1, (4, 1, 1, 1): 1, (4, 1, 2, 1): 1, (4, 3, 3, 4): 1,
}

# the matrix the 4x4 tensor generates, row by row
GEN_44 = np.array([
    [10 - 8 / 3, 8 / 3, 3, 8 / 3],
    [5 / 3, 7, 8 / 3, 5 / 3],
    [2, 5 / 3, 7 - 2 / 3, 2 / 3],
    [5 / 3, 4 / 3, 2 / 3, 5 - 1 / 3],
])


@pytest.fixture(scope="session")
def t42():
    return build_tensor(4, 2, ENTRIES_42)


@pytest.fixture(scope="session")
def t44():
    return build_tensor(4, 4, ENTRIES_44)


def random_sparse_tensor(rng, order=None, dim=None, integer=False, scale=3.0):
    """Random sparse tensor, order 2..4 and dimension 2..5 by default."""
    m = int(order if order is not None else rng.integers(2, 5))
    n = int(dim if dim is not None else rng.integers(2, 6))
    total = n ** m
    nnz = int(rng.integers(1, max(2, total // 2) + 1))
    flat = rng.choice(total, size=min(nnz, total), replace=False)
    arr = np.zeros(total)
    if integer:
        vals = rng.integers(-int(scale), int(scale) + 1, size=len(flat)).astype(float)
    else:
        vals = rng.uniform(-scale, scale, size=len(flat))
    arr[flat] = vals
    return DenseTensor(arr.reshape((n,) * m))


def random_strongly_symmetric_tensor(rng, order=None, dim=None, integer=True, scale=3.0):
    """Random tensor constant on each similarity class of index sets."""
    m = int(order if order is not None else rng.integers(2, 5))
    n = int(dim if dim is not None else rng.integers(2, 5))
    arr = np.zeros((n,) * m)
    values = {}
    for tup in np.ndindex(*arr.shape):
        key = frozenset(tup)
        if key not in values:
            if integer:
                values[key] = float(rng.integers(-int(scale), int(scale) + 1))
            else:
                values[key] = float(rng.uniform(-scale, scale))
        arr[tup] = values[key]
    return DenseTensor(arr)


def boosted_diagonal_tensor(rng, order=None, dim=None, margin_low=0.1, margin_high=2.0):
    """Random tensor whose generated matrix is strictly diagonally dominant."""
    m = int(order if order is not None else rng.integers(2, 5))
    n = int(dim if dim is not None else rng.integers(2, 6))
    t = random_sparse_tensor(rng, order=m, dim=n)
    arr = t.entries.copy()
    from tgmat.tensor import s_matrix

    for i in range(n):
        arr[(i,) * m] = 0.0
    t0 = DenseTensor(arr.copy())
    S = s_matrix(t0)
    for i in range(n):
        radius = S[i].sum()  # s_ii + P_i of the zero-diagonal tensor
        sign = -1.0 if rng.random() < 0.3 else 1.0
        arr[(i,) * m] = sign * (radius + rng.uniform(margin_low, margin_high))
    return DenseTensor(arr)


def count_row_passes(monkeypatch):
    """Record every call of the row pass that builds a tensor's statistics; returns the list of calls."""
    import tgmat.tensor as tz

    calls = []
    row_pass = tz._row_pass
    monkeypatch.setattr(tz, "_row_pass", lambda t: calls.append(t) or row_pass(t))
    return calls


def brute_s_stat(t, i, j):
    """Triple-loop definition of s_ij, independent of the vectorised path."""
    m, n = t.order, t.dim
    total = 0.0
    for tup in itertools.product(range(n), repeat=m - 1):
        full = (i,) + tup
        if full == (i,) * m:
            continue
        count = sum(1 for k in tup if k == j)
        if count:
            total += abs(t.entries[full]) * count
    return total / (m - 1)


def brute_row_sum(t, i):
    m, n = t.order, t.dim
    total = 0.0
    for tup in itertools.product(range(n), repeat=m - 1):
        full = (i,) + tup
        if full == (i,) * m:
            continue
        total += abs(t.entries[full])
    return total


def brute_representation(t, i, j):
    m, n = t.order, t.dim
    total = 0.0
    for tup in itertools.product(range(n), repeat=m - 1):
        if j in tup:
            total += abs(t.entries[(i,) + tup])
    return total
