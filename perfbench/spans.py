"""Spans around tgmat's layers, recorded from outside the package.

``Tracer.install()`` replaces every public function (the module's
``__all__``) of ``tgmat.tensor``, ``dominance``, ``regions``, ``oracle``
and ``spin``, and ``tgmat.cli.main``, by a wrapper that records a span.
The replacement is at module-attribute level, so calls between modules
(``tz.s_matrix`` from dominance) and inside one module (``s_matrix`` from
``generated_matrix``) both go through it.  Spans stay in memory until
``write()``; ``uninstall()`` puts the original functions back.

No function in these layers calls itself, so a name's inclusive time is the
plain sum of its span durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("tensor", "dominance", "regions", "oracle", "spin")

# name -> function(args, kwargs, result) giving the span's extra value
_EXTRA = {
    # points probed; 0 marks a scalar call
    "regions.membership": lambda a, k, r: 0 if np.ndim(a[1]) == 0 else int(np.size(a[1])),
    "oracle.h_eigen_newton": lambda a, k, r: (int(k.get("starts", a[1] if len(a) > 1 else 2000)), len(r)),
    "oracle.h_eigen_exact_2d": lambda a, k, r: len(r),
}


# every per-layer metric with its unit, in report order
PER_LAYER = (
    ("setup.import_ms", "ms"), ("setup.import_scipy_ms", "ms"), ("setup.load_ms", "ms"),
    ("tensor.load_tensor.ms", "ms"),
    ("tensor.s_matrix.calls", "count"), ("tensor.s_matrix.ms", "ms"), ("tensor.generated_matrix.ms", "ms"),
    ("dominance.certify_h_tensor.self_ms", "ms"),
    ("dominance.check_dominance.calls", "count"), ("dominance.check_dominance.ms", "ms"),
    ("dominance.is_h_matrix.calls", "count"), ("dominance.is_h_matrix.ms", "ms"),
    ("dominance.is_weakly_chained_dd.ms", "ms"),
    ("tensor.classify_symmetry.ms", "ms"), ("spin.coefficient_tensor.ms", "ms"),
    ("spin.certify_classicality.self_ms", "ms"), ("spin.reconstruct_state.ms", "ms"),
    ("regions.build_region.calls", "count"), ("regions.build_region.ms", "ms"),
    ("regions.membership.scalar_calls", "count"), ("regions.membership.scalar_ms", "ms"),
    ("regions.real_bounds.self_ms", "ms"),
    ("regions.membership.batch_points", "count"), ("regions.membership.batch_ms", "ms"),
    ("regions.grid_sample.self_ms", "ms"), ("cli.self_ms", "ms"), ("cli.output_bytes", "bytes"),
    ("tensor.contract.calls", "count"), ("tensor.contract.ms", "ms"),
    ("tensor.contract_jacobian.calls", "count"), ("tensor.contract_jacobian.ms", "ms"),
    ("oracle.h_eigen_newton.self_ms", "ms"), ("oracle.starts", "count"),
    ("oracle.contract_calls_per_start", "count"), ("oracle.eigenvalues_found", "count"),
    ("oracle.h_eigen_exact_2d.ms", "ms"), ("trace.overhead_ms", "ms"),
)


class Tracer:
    """Records (name, start, end, parent, op, extra) for every wrapped call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._originals = []

    def install(self):
        targets = [(importlib.import_module(f"tgmat.{layer}"), layer) for layer in LAYERS]
        for mod, layer in targets:
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type):
                    self._replace(mod, attr, f"{layer}.{attr}", fn)
        cli = importlib.import_module("tgmat.cli")
        self._replace(cli, "main", "cli.main", cli.main)

    def uninstall(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _replace(self, mod, attr, name, fn):
        self._originals.append((mod, attr, fn))
        setattr(mod, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self.op += 1  # each operation is one top-level cli.main call
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"], "spans": self.spans}, fh)


def layer_metrics(spans, n_ops):
    """Per-operation layer figures from the spans of ``n_ops`` operations."""
    calls = defaultdict(int)
    incl = defaultdict(float)
    child = defaultdict(float)
    under_newton = [False] * len(spans)
    scalar_calls = scalar_s = batch_points = batch_s = 0.0
    starts = found = newton_contracts = 0
    for i, (name, t0, t1, parent, _, extra) in enumerate(spans):
        dur = t1 - t0
        calls[name] += 1
        incl[name] += dur
        if parent >= 0:
            child[parent] += dur
            under_newton[i] = under_newton[parent] or spans[parent][0] == "oracle.h_eigen_newton"
        if name == "regions.membership":
            if extra == 0:
                scalar_calls += 1
                scalar_s += dur
            else:
                batch_points += extra
                batch_s += dur
        elif name == "oracle.h_eigen_newton":
            starts += extra[0]
            found += extra[1]
        elif name == "oracle.h_eigen_exact_2d":
            found += extra
        elif name == "tensor.contract" and under_newton[i]:
            newton_contracts += 1
    self_s = defaultdict(float)
    for i, span in enumerate(spans):
        self_s[span[0]] += span[2] - span[1] - child[i]

    per = 1.0 / max(n_ops, 1)
    ms = lambda s: 1e3 * s * per
    return {
        "tensor.load_tensor.ms": ms(incl["tensor.load_tensor"]),
        "tensor.s_matrix.calls": calls["tensor.s_matrix"] * per,
        "tensor.s_matrix.ms": ms(incl["tensor.s_matrix"]),
        "tensor.generated_matrix.ms": ms(incl["tensor.generated_matrix"]),
        "dominance.certify_h_tensor.self_ms": ms(self_s["dominance.certify_h_tensor"]),
        "dominance.check_dominance.calls": calls["dominance.check_dominance"] * per,
        "dominance.check_dominance.ms": ms(incl["dominance.check_dominance"]),
        "dominance.is_h_matrix.calls": calls["dominance.is_h_matrix"] * per,
        "dominance.is_h_matrix.ms": ms(incl["dominance.is_h_matrix"]),
        "dominance.is_weakly_chained_dd.ms": ms(incl["dominance.is_weakly_chained_dd"]),
        "tensor.classify_symmetry.ms": ms(incl["tensor.classify_symmetry"]),
        "spin.coefficient_tensor.ms": ms(incl["spin.coefficient_tensor"]),
        "spin.certify_classicality.self_ms": ms(self_s["spin.certify_classicality"]),
        "spin.reconstruct_state.ms": ms(incl["spin.reconstruct_state"]),
        "regions.build_region.calls": calls["regions.build_region"] * per,
        "regions.build_region.ms": ms(incl["regions.build_region"]),
        "regions.membership.scalar_calls": scalar_calls * per,
        "regions.membership.scalar_ms": ms(scalar_s),
        "regions.real_bounds.self_ms": ms(self_s["regions.real_bounds"]),
        "regions.membership.batch_points": batch_points * per,
        "regions.membership.batch_ms": ms(batch_s),
        "regions.grid_sample.self_ms": ms(self_s["regions.grid_sample"]),
        "cli.self_ms": ms(self_s["cli.main"]),
        "tensor.contract.calls": calls["tensor.contract"] * per,
        "tensor.contract.ms": ms(incl["tensor.contract"]),
        "tensor.contract_jacobian.calls": calls["tensor.contract_jacobian"] * per,
        "tensor.contract_jacobian.ms": ms(incl["tensor.contract_jacobian"]),
        "oracle.h_eigen_newton.self_ms": ms(self_s["oracle.h_eigen_newton"]),
        "oracle.starts": starts * per,
        "oracle.contract_calls_per_start": newton_contracts / starts if starts else 0.0,
        "oracle.eigenvalues_found": found * per,
        "oracle.h_eigen_exact_2d.ms": ms(incl["oracle.h_eigen_exact_2d"]),
    }
