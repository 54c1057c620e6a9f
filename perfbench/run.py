"""tgmat benchmark: one workload per run, CLI operations timed in-process.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each operation is one ``tgmat``
subcommand called as ``tgmat.cli.main(argv)`` with ``--output`` set to a
scratch file, so argument parsing, JSON loading, computation and
formatting are timed together.  Load is a closed loop with one client: the
next operation starts when the last one ends.  A run builds the workload's
inputs from ``--seed``, runs one untimed warm-up round, then whole rounds of
the same operations in timed batches until ``--seconds`` have been
measured.  Between batches a fresh interpreter imports ``tgmat.cli`` and
parses the workload's input files; the median of those samples is
``setup_s``.  The warm-up outputs are checked by ``checks.py``; every later
round must reproduce their exit codes, and the last round of each batch
their bytes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every operation runs untraced and then traced, and the
line reports the per-layer metrics (see README.md).  Scratch files go to
``.perfbench/`` in the checkout; a traced run leaves its spans there.
"""

import os

# single-threaded BLAS/OpenMP: the measurement machine has 2 cores and the
# set-up probe runs beside the benchmark process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402

BATCHES = 6  # timed batches per run, one set-up sample after each
MIN_OPS = 110  # at least ten latency samples beyond p90
TRACE_PROBES = 3  # plain and -X importtime probes each, in a traced run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Runs the rounds of one workload and keeps their timings."""

    def __init__(self, cli, ops, workdir):
        self.cli = cli
        self.ops = ops
        self.outdir = os.path.join(workdir, "out")
        self.warmdir = os.path.join(workdir, "warm")
        os.makedirs(self.outdir)
        self.outputs = [os.path.join(self.outdir, f"{i:03d}.txt") for i in range(len(ops))]
        self.argvs = [op.argv + ["--output", out] for op, out in zip(ops, self.outputs)]
        self.warm_codes = None
        self.latencies = []
        self.rounds = 0
        self.problems = []

    def _call(self, argv):
        """Run one operation; returns its latency and exit code (or uncaught error)."""
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation, not a crash of the run
            code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, code

    def _end_round(self, codes):
        if self.warm_codes is None:
            self.warm_codes = codes
        elif codes != self.warm_codes:
            bad = next(i for i, (a, b) in enumerate(zip(codes, self.warm_codes)) if a != b)
            self.problems.append(f"{self.ops[bad].name}: exit {codes[bad]} differs from warm-up {self.warm_codes[bad]}")
        self.rounds += 1

    def round(self):
        """One pass over the operations; returns the wall time it took."""
        codes = []
        start = time.perf_counter()
        for argv in self.argvs:
            latency, code = self._call(argv)
            self.latencies.append(latency)
            codes.append(code)
        elapsed = time.perf_counter() - start
        self._end_round(codes)
        return elapsed

    def paired_round(self, tracer):
        """Each operation untraced and then traced (two rounds); returns the
        (untraced, traced) latency of every operation."""
        pairs, plain_codes, traced_codes = [], [], []
        for argv in self.argvs:
            plain, code = self._call(argv)
            plain_codes.append(code)
            tracer.install()
            try:
                traced, code = self._call(argv)
            finally:
                tracer.uninstall()
            traced_codes.append(code)
            pairs.append((plain, traced))
            self.latencies += [plain, traced]
        self._end_round(plain_codes)
        self._end_round(traced_codes)
        return pairs

    def warm_up(self):
        self.round()
        self.latencies.clear()
        self.rounds = 0
        shutil.copytree(self.outdir, self.warmdir)

    def compare_with_warm_up(self):
        for op, out in zip(self.ops, self.outputs):
            if not filecmp.cmp(out, os.path.join(self.warmdir, os.path.basename(out)), shallow=False):
                self.problems.append(f"{op.name}: output differs from the warm-up round")
                return

    def check(self):
        """Independent checks of the warm-up outputs.

        Returns (operations failing per round, reasons for failures that
        are not the known fault, reasons for those that are)."""
        texts = {}
        for op, out in zip(self.ops, self.outputs):
            with open(os.path.join(self.warmdir, os.path.basename(out)), encoding="utf-8") as fh:
                texts[op.name] = fh.read()
        failing, unexpected, known = 0, [], []
        for op, code in zip(self.ops, self.warm_codes):
            try:
                reason = op.check(texts[op.name], code, texts) if isinstance(code, int) else f"raised {code}"
            except Exception as exc:  # malformed output
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
            if reason is not None:
                failing += 1
                (known if op.known_fault else unexpected).append(f"{op.name}: {reason}")
        return failing, unexpected, known


def run_probe(manifest, importtime=False):
    """Wall time of one fresh interpreter running probe.py, and its report."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(HERE, "probe.py"), SRC, manifest]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        report["scipy_ms"] = scipy_import_ms(proc.stderr)
    return wall, report


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def scipy_import_ms(stderr):
    """Cumulative import time of the outermost scipy modules, from -X importtime.

    Lines come children first; a module's parent is the next line with less
    indentation, so scanning backwards keeps the chain of open parents.
    """
    rows = [(len(m.group(3)), m.group(4), int(m.group(2))) for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
    total, chain = 0, []
    for depth, name, cum in reversed(rows):
        while chain and chain[-1][0] >= depth:
            chain.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(c[1] for c in chain):
            total += cum
        chain.append((depth, is_scipy))
    return total / 1e3


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tgmat", "cli.py")):
        print(f"perfbench: no tgmat sources under {SRC}; run from the root of a tgmat checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "inputs"))
    try:
        return measure(args, workloads.build(args.workload, args.seed, os.path.join(workdir, "inputs")), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, workdir):
    manifest = os.path.join(workdir, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(sorted({pair for op in ops for pair in op.inputs}), fh)

    sys.path.insert(0, SRC)
    from tgmat import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported tgmat from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    runner = Runner(cli, ops, workdir)
    runner.warm_up()
    if args.trace:
        metrics = traced_phase(args, runner, manifest)
    else:
        metrics = timed_phase(args, runner, manifest)
    failing, unexpected, known = runner.check()
    problems = unexpected + runner.problems
    for line in known:
        print(f"perfbench: known fault, counted as failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"perfbench: CHECK FAILED {line}", file=sys.stderr)
    attempted = len(runner.latencies)
    result = json.dumps({"correct": not problems, "attempted": attempted,
                         "failed": failing * runner.rounds, "metrics": metrics})
    with open(os.path.join(SCRATCH, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(result + "\n")
    print(result)
    return 0


def timed_phase(args, runner, manifest):
    setup, busy = [], 0.0
    for batch in range(BATCHES):
        goal = args.seconds * (batch + 1) / BATCHES
        while busy < goal or (batch == BATCHES - 1 and len(runner.latencies) < MIN_OPS):
            busy += runner.round()
        runner.compare_with_warm_up()
        setup.append(run_probe(manifest)[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = runner.latencies
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(lat) / busy, "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * percentile(lat, 90), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def traced_phase(args, runner, manifest):
    tracer = spans.Tracer()
    pairs, out_bytes = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not pairs:
        pairs += runner.paired_round(tracer)
        out_bytes += sum(os.path.getsize(p) for p in runner.outputs)
    runner.compare_with_warm_up()
    probes = [run_probe(manifest, importtime=bool(i % 2)) for i in range(2 * TRACE_PROBES)]
    values = spans.layer_metrics(tracer.spans, len(pairs))
    values["cli.output_bytes"] = out_bytes / len(pairs)
    # each operation paired with its own untraced call, so drift in machine speed cancels
    values["trace.overhead_ms"] = 1e3 * sum(t - p for p, t in pairs) / len(pairs)
    plain_probes, importtime_probes = [r for _, r in probes[0::2]], [r for _, r in probes[1::2]]
    values["setup.import_ms"] = statistics.median(r["import_ms"] for r in plain_probes)
    values["setup.import_scipy_ms"] = statistics.median(r["scipy_ms"] for r in importtime_probes)
    values["setup.load_ms"] = statistics.median(r["load_ms"] for r in plain_probes)
    tracer.write(os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.json"))
    return {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
