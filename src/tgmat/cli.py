"""Command line front end.

Subcommands: gen-matrix, certify, bounds, oracle, region-grid,
spin-certify, spin-roundtrip.  Exit codes: 0 success or certified,
2 inconclusive, 64 usage error, 65 data error.  All output is plain CSV
style text with numbers at six decimal places (nine significant digits for
grid samples), so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

import numpy as np

from . import dominance as dom
from . import oracle as orc
from . import regions as reg
from . import spin as sp
from . import tensor as tz
from .errors import TgmatError

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

DEFAULT_GAMMAS = (0.5, 0.04)
DEFAULT_SUBSET = (1, 2)

# grid cells whose text region-grid gathers at once
_GRID_BLOCK = 2 ** 13


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _fmt_vec(v) -> str:
    """The numbers of v at six decimal places, comma separated: one ``%`` call per row, the text of ``_fmt``."""
    xs = tuple(np.asarray(v, dtype=float).tolist())
    return ",".join(["%.6f"] * len(xs)) % xs


def _load_state(path) -> sp.SpinState:
    return sp.state_from_json(tz._read_json(path))


def _emit(lines, output):
    """Write each line as it comes, to the file ``output`` or to stdout.

    An existing regular file is overwritten in place and then cut to the
    length written, also when a line fails, so no tail of its old content
    stays.  Opening with truncation instead costs a flush of the old
    content's delayed allocation on some file systems (ext4's
    auto_da_alloc), hundreds of microseconds per call.
    """
    if not output:
        sys.stdout.writelines(line + "\n" for line in lines)
        return
    with open(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        try:
            fh.writelines(line + "\n" for line in lines)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()  # at the position written to, after a flush


def cmd_gen_matrix(args) -> int:
    t = tz.load_tensor(args.input)
    G = tz.generated_matrix(t)
    lines = [f"order,{t.order}", f"dim,{t.dim}", "matrix"]
    lines += [_fmt_vec(row) for row in G.data]
    lines.append("stats")
    lines.append("i,diag_abs,s_ii,r_i,P_i,Q_i")
    for i in range(t.dim):
        lines.append(f"{i + 1}," + _fmt_vec((G.diag_abs[i], G.s_diag[i], G.r[i], G.P[i], G.Q[i])))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_certify(args) -> int:
    t = tz.load_tensor(args.input)
    cert = dom.certify_h_tensor(t)
    lines = [f"verdict,{cert.verdict}"]
    if cert.certified:
        lines.append(f"rule,{cert.rule}")
        if cert.gamma is not None:
            lines.append(f"gamma,{_fmt(cert.gamma)}")
        if cert.scaling is not None:
            # shortest round-trip text: the printed y reads back to the vector re-checked
            lines.append("scaling," + ",".join(map(repr, cert.scaling.tolist())))
            lines.append("row,residual")
            for i, res in enumerate(cert.residuals):
                lines.append(f"{i + 1},{res:.6e}")
        else:
            lines.append("scaling,none")
    if cert.note:
        lines.append(f"note,{cert.note}")
    _emit(lines, args.output)
    return EXIT_OK if cert.certified else EXIT_INCONCLUSIVE


def _bounds_rows(t, kinds, gammas, subset):
    specs = [(kind, g, subset if kind == "stype" else None)
             for kind in kinds for g in (gammas if kind in ("ostrowski", "gammamix") else [None])]
    bounds = reg.real_bounds([reg.build_region(t, kind, gamma=g, subset=sub) for kind, g, sub in specs])
    out = ["kind,gamma,subset,lower,upper"]
    for (kind, g, sub), rb in zip(specs, bounds):
        gcol = _fmt(g) if g is not None else ""
        scol = "+".join(str(i) for i in sub) if sub else ""
        out.append(f"{kind},{gcol},{scol},{_fmt(rb.lower)},{_fmt(rb.upper)}")
    return out


def cmd_bounds(args) -> int:
    t = tz.load_tensor(args.input)
    gammas = args.gamma or list(DEFAULT_GAMMAS)
    if args.subset is not None:
        subset = tuple(args.subset)
    else:
        # the default S = {1, 2} only applies where it is a proper subset
        subset = DEFAULT_SUBSET if t.dim > 2 else None
    # the default rows skip stype where no subset applies, and the pair kinds below dimension 2; asked for, each exits 65
    kinds = args.kind or [kind for kind in reg.KINDS
                          if (kind != "stype" or subset is not None) and (t.dim > 1 or kind not in reg._PAIR_KINDS)]
    _emit(_bounds_rows(t, kinds, gammas, subset), args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.starts < 0:
        raise _UsageError("--starts must be >= 0")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    t = tz.load_tensor(args.input)
    if t.dim == 2:
        pairs = orc.h_eigen_exact_2d(t)
    else:
        pairs = orc.h_eigen_newton(t, starts=args.starts, seed=args.seed)
    lines = ["lambda,residual"]
    for p in pairs:
        lines.append(f"{_fmt(p.value)},{p.residual:.6e}")
    _emit(lines, args.output)
    return EXIT_OK


def cmd_region_grid(args) -> int:
    t = tz.load_tensor(args.input)
    try:
        parts = [float(v) for v in args.grid.split(":")]
        if len(parts) != 6:
            raise ValueError
        re0, re1, im0, im1, nx, ny = parts
        if not (nx.is_integer() and ny.is_integer()):  # also nan and inf
            raise ValueError
        nx, ny = int(nx), int(ny)
    except ValueError:
        raise _UsageError("grid must be re0:re1:im0:im1:nx:ny")
    if nx < 2 or ny < 2:
        raise _UsageError("grid needs nx >= 2 and ny >= 2")
    subset = tuple(args.subset) if args.subset is not None else None
    region = reg.build_region(t, args.kind, gamma=args.gamma, subset=subset)
    res, ims, member = reg.grid_sample(region, (re0, re1), (im0, im1), nx, ny)
    # the ",im,member" tail of every cell, flat: (im j, member b) sits at 2 j + b
    cells = np.array([f",{i:.9g},{b}" for i in ims.tolist() for b in (0, 1)], dtype=object)
    column = 2 * np.arange(ny)
    block = max(1, _GRID_BLOCK // ny)

    def rows():  # one grid row at a time: the text of the whole grid is never held
        yield "re,im,member"
        # the tails of a block of rows (about _GRID_BLOCK cells, or one row) in one gather
        for k in range(0, nx, block):
            for r, row in zip(res[k:k + block].tolist(), cells[column + member[k:k + block]].tolist()):
                text = f"{r:.9g}"
                yield text + ("\n" + text).join(row)

    _emit(rows(), args.output)
    return EXIT_OK


def cmd_spin_certify(args) -> int:
    state = _load_state(args.input)
    verdict = sp.certify_classicality(state)
    lines = [f"m,{state.m}", f"verdict,{verdict.verdict}"]
    if verdict.certified:
        lines.append(f"rule,{verdict.rule}")
    if verdict.symmetry:
        lines.append(f"symmetry,{verdict.symmetry}")
    if verdict.diagonal is not None:
        lines.append("diagonal," + _fmt_vec(verdict.diagonal))
    if verdict.generated is not None:
        lines.append("generated_matrix")
        lines += [_fmt_vec(row) for row in verdict.generated]
    if not verdict.certified:
        lines.append(f"reason,{verdict.reason}")
        lines.append("note,NO CONCLUSION: the criteria are sufficient only; this is not a nonclassicality claim")
    _emit(lines, args.output)
    return EXIT_OK if verdict.certified else EXIT_INCONCLUSIVE


def cmd_spin_roundtrip(args) -> int:
    state = _load_state(args.input)
    coeff = sp.coefficient_tensor(state)
    rec = sp.reconstruct_state(coeff)
    err = float(np.max(np.abs(rec.rho - state.rho)))
    _emit([f"m,{state.m}", f"max_abs_error,{err:.6e}"], args.output)
    return EXIT_OK


class _UsageError(Exception):
    pass


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves the parser as it was: each call gets a fresh namespace,
    and the repeatable options default to None, so no list carries over.
    """
    parser = _Parser(prog="tgmat", description="Tensor-generated matrix toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", default=None, help="write output to this file instead of stdout")

    p = subs.add_parser("gen-matrix", help="print the generated matrix and row statistics")
    common(p)
    p.set_defaults(func=cmd_gen_matrix)

    p = subs.add_parser("certify", help="run the H-tensor certification cascade")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("bounds", help="real-axis bounds of the inclusion regions")
    common(p)
    p.add_argument("--kind", action="append", choices=list(reg.KINDS), help="region kind (repeatable)")
    p.add_argument("--gamma", action="append", type=float, help="gamma value (repeatable)")
    p.add_argument("--subset", type=_parse_subset, default=None, help="comma separated 1-based indices for stype")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("oracle", help="brute-force H-eigenvalues (exact for dim 2, Newton otherwise)")
    common(p)
    p.add_argument("--starts", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("region-grid", help="sample region membership on a grid")
    common(p)
    p.add_argument("--kind", choices=list(reg.KINDS), default="gershgorin")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--subset", type=_parse_subset, default=None)
    p.add_argument("--grid", required=True, help="re0:re1:im0:im1:nx:ny")
    p.set_defaults(func=cmd_region_grid)

    p = subs.add_parser("spin-certify", help="classicality certificate for a spin state")
    common(p)
    p.set_defaults(func=cmd_spin_certify)

    p = subs.add_parser("spin-roundtrip", help="coefficient tensor round trip error")
    common(p)
    p.set_defaults(func=cmd_spin_roundtrip)
    return parser


def _parse_subset(text: str):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad subset {text!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"tgmat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TgmatError, OSError) as exc:
        print(f"tgmat: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
