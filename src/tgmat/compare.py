"""Strict and closed comparisons with one shared margin.

Both compare a - b against EPS * max(1, |a|, |b|) and work elementwise on
arrays.  A strict ``gt`` is what certifies a dominance or excludes a point
from a region; the closed ``leq`` keeps boundary points inside across
roundoff.  The margin is capped at the largest float, so an infinite a is
greater than every finite b: an overflowed product still excludes.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12

_LARGEST = np.finfo(float).max


def _margin(a, b):
    return np.minimum(EPS * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))), _LARGEST)


def gt(a, b):
    """a > b by more than the margin."""
    return a - b > _margin(a, b)


def leq(a, b):
    """a <= b up to the margin."""
    return a - b <= _margin(a, b)
