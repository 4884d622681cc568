"""Command-line entry point: generate, detect, verify, sweep, histogram.

Every command but verify writes a JSON manifest next to its outputs with the
full flag set, rng seed, and artifact version, so outputs can be reproduced
exactly; it also records the run's peak RSS. All randomness flows from
--rng-seed.

Outside input is checked in two places. Flag values are checked by argparse
types, so a bad value is a usage error naming the flag. Errors raised while
a command runs reach ``main``, which maps each kind to its exit code
(EXIT_CODES) and prints one ``error:`` line instead of a traceback.

Exit codes: 0 success, 1 an input file cannot be read or parsed, an output
file cannot be written or memory runs out, 2 reachability failure, 3 solver
non-convergence, 4 infeasible generation parameters, 5 verify-gap violation,
64 usage error (argparse's own errors included).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import IO

import numpy as np

from . import __version__, bench, lfr, solver, walker
from .detect import detect_multi, write_affinity_csv
from .errors import ConvergenceError, GenerationError, ParseError, ReachabilityError, SeedwalkError
from .graph import load_edge_list, write_edge_list
from .lfr import LfrParams
from .markov import build_chain
from .seeds import load_seed_file

EXIT_OK = 0
EXIT_GAP = 5
EXIT_USAGE = 64


class UsageError(Exception):
    """A request the command cannot serve, such as a node that is not in the graph."""


EXIT_CODES = {
    ParseError: 1,
    OSError: 1,
    MemoryError: 1,
    ReachabilityError: 2,
    ConvergenceError: 3,
    GenerationError: 4,
    UsageError: EXIT_USAGE,
}


def _write_manifest(fh: IO[str], args: argparse.Namespace, extra: dict) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "flags": flags,
        "rng_seed": flags.get("rng_seed"),
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "peak_rss_mb": _peak_rss_mb(),
        **extra,
    }
    json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
    fh.write("\n")


def _peak_rss_mb() -> float | None:
    """The largest resident set so far of this process and of the workers it has
    reaped, in MiB; None where the OS reports none (no `resource` module)."""
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes on macOS, KiB elsewhere


@contextlib.contextmanager
def _csv_out(path: Path):
    """Open an output file before the work that fills it, so an unwritable path
    fails first; if the work fails, remove the file, so no partial output stays."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            path.unlink()
            raise


@contextlib.contextmanager
def _outputs(args: argparse.Namespace, paths: list[Path], manifest: Path, inputs=()):
    """The output policy of every writing command. Refuse an output that names an
    input; open every output and then the manifest before any input is read, so an
    unwritable path fails first; write the manifest last; and if the run fails,
    remove every output. Yields the output streams, in the order of paths, and the
    manifest fields, which already list the inputs and outputs and which the command
    adds to."""
    given = {Path(p).resolve() for p in inputs}
    for path in (*paths, manifest):
        if path.resolve() in given:
            raise UsageError(f"--out would overwrite the input file {path}")
    extra = {"inputs": [str(p) for p in inputs], "outputs": [str(path) for path in paths]}
    with contextlib.ExitStack() as stack:
        streams = [stack.enter_context(_csv_out(path)) for path in paths]
        manifest_fh = stack.enter_context(_csv_out(manifest))
        yield streams, extra
        _write_manifest(manifest_fh, args, extra)


def cmd_detect(args) -> int:
    paths = [Path(f"{args.out}.affinity.csv"), Path(f"{args.out}.crisp.csv")]
    manifest = Path(f"{args.out}.manifest.json")
    outputs = _outputs(args, paths, manifest, (args.edges, args.seeds))
    # the answer and its CSV slots wait beside the outputs in a file with no name, which no run can leave behind
    with outputs as ((affinity_fh, crisp_fh), extra), tempfile.TemporaryFile(dir=paths[0].parent) as spill:
        g = load_edge_list(args.edges)
        seeds = load_seed_file(args.seeds, g)
        # where the OS has no positional reads (Windows), the answer stays in memory
        aff = detect_multi(g, seeds, tol=args.tol, jobs=args.jobs, spill=spill if hasattr(os, "pread") else None)
        write_affinity_csv(aff, g, affinity_fh, jobs=args.jobs, crisp=crisp_fh)
        extra.update(
            input={"n": g.n, "m": g.m, "duplicates_collapsed": g.duplicates_collapsed},
            solver_iterations=[r.iterations for r in aff.reports],
            solver_residuals=[r.relative_residual for r in aff.reports],
            spill_bytes=spill.tell(),  # the answer's end: the pooled CSV slots past it are written by offset
        )
    if args.verbose:
        print(f"{g.n} nodes, {g.m} edges, {len(seeds)} seeds, {seeds.l} communities")
        for i, r in enumerate(aff.reports):
            print(f"community {i}: {r.iterations} iterations, residual {r.relative_residual:.3e}")
    return EXIT_OK


def _lfr_params(args, mu: float) -> LfrParams:
    """Generator parameters from the shared LFR flags, whose dests are the field
    names, at mixing mu."""
    values = {field.name: getattr(args, field.name) for field in dataclasses.fields(LfrParams)}
    return LfrParams(**{**values, "mu": mu})


def cmd_generate(args) -> int:
    params = _lfr_params(args, args.mu)
    paths = [Path(f"{args.out}.edges"), Path(f"{args.out}.truth")]
    with _outputs(args, paths, Path(f"{args.out}.manifest.json")) as ((edges_fh, truth_fh), extra):
        pg = lfr.generate(params)
        write_edge_list(pg.graph, edges_fh)
        lfr.write_truth(pg, truth_fh)
        k_min, k_max, s_min, s_max = params.resolved_bounds()
        extra.update(
            resolved_bounds={"k_min": k_min, "k_max": k_max, "s_min": s_min, "s_max": s_max},
            realized={
                "n": pg.graph.n,
                "m": pg.graph.m,
                "communities": pg.n_communities,
                "mean_degree": 2 * pg.graph.m / pg.graph.n,
                "mixing": lfr.mixing_fraction(pg),
                "attempts": pg.attempts,
                "dropped_edges": pg.dropped,
            },
        )
    print(
        f"generated {pg.graph.n} nodes, {pg.graph.m} edges, {pg.n_communities} communities "
        f"(realized mixing {lfr.mixing_fraction(pg):.3f})"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_edge_list(args.edges)
    seeds = load_seed_file(args.seeds, g)
    try:
        node = g.id_of(args.node)
    except KeyError:
        raise UsageError(f"node {args.node!r} not in graph") from None
    if node in seeds:
        raise UsageError(f"node {args.node!r} is a seed; pick a non-seed node")
    chain = build_chain(g, seeds.ids)
    t = int(np.searchsorted(chain.transient, node))
    solved, report = solver.solve_row(solver.assemble(chain, seeds), t, tol=args.tol)
    if not report.converged:
        raise ConvergenceError([report])
    try:
        stats = walker.run_walks(chain, node, args.walks, args.rng_seed, step_cap=args.step_cap)
    except SeedwalkError:
        # build_chain proved every walk is absorbed, so only the cap can stop one
        raise UsageError(f"a walk from {args.node!r} exceeded --step-cap {args.step_cap}; raise the cap") from None
    threshold = 4.0 * math.sqrt(0.25 / args.walks) + 1e-6
    worst = 0.0
    print(f"node {args.node}: solver vs {args.walks} walks (threshold {threshold:.6f})")
    for i in range(seeds.l):
        est = walker.estimate_affinity(stats, seeds, i)
        gap = abs(solved[i] - est)
        worst = max(worst, gap)
        print(f"community {i}: solver {solved[i]:.6f}  walker {est:.6f}  gap {gap:.6f}")
    if worst > threshold:
        # a result, not an error: the comparison ran and failed its check
        print(f"error: worst gap {worst:.6f} exceeds threshold {threshold:.6f}", file=sys.stderr)
        return EXIT_GAP
    return EXIT_OK


# a sweep cell's manifest entry: its mu and these summary fields
CELL_FIELDS = ("sigma", "trials", "failures", "seconds_mean", "mixing_mean", "attempts_mean", "failure_causes",
               "uncovered")


def cmd_sweep(args) -> int:
    if any(lfr.seed_count(s, args.n) < 1 for s in args.sigma):
        raise UsageError(f"every sigma must give at least one seed among {args.n} nodes")
    cells = []
    for mu in args.mu:
        params = _lfr_params(args, mu)
        params.validate()
        cells.extend((params, sigma) for sigma in args.sigma)

    out = Path(args.out)
    with _outputs(args, [out], out.with_suffix(".manifest.json")) as ((fh,), extra):
        _, summaries = bench.run_sweep(cells, args.trials, args.rng_seed, jobs=args.jobs)
        bench.write_results_csv(summaries, fh)
        extra["cells"] = [{"mu": s.params.mu, **{k: getattr(s, k) for k in CELL_FIELDS}} for s in summaries]
    failed = sum(s.failures for s in summaries)
    if failed:
        print(f"warning: {failed} trial(s) failed; cells marked incomplete", file=sys.stderr)
    for s in summaries:
        print(f"mu={s.params.mu:g} sigma={s.sigma:g}: Q = {s.q_mean:.3f} +- {s.q_std:.3f} ({s.trials} trials)")
    return EXIT_OK


def cmd_histogram(args) -> int:
    # bench.histogram shapes bins + 1 float64 bin edges
    if (args.bins + 1) * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
        raise UsageError(f"--bins {args.bins} is more bins than numpy can shape")
    out = Path(args.out)
    with _outputs(args, [out], out.with_suffix(".manifest.json"), (args.edges, args.truth)) as ((fh,), extra):
        pg = lfr.load_planted(args.edges, args.truth)
        if lfr.seed_count(args.sigma, pg.graph.n) < 1:
            raise UsageError(f"--sigma must give at least one seed among {pg.graph.n} nodes")
        records = bench.seed_resamples(pg, args.sigma, args.runs, args.rng_seed, jobs=args.jobs)
        s = bench.summarize(None, args.sigma, records)
        if not s.trials:
            raise records[0].failure
        bench.write_histogram_csv(bench.histogram([r.q for r in records if r.ok], args.bins), fh)
        extra.update(
            input={"n": pg.graph.n, "m": pg.graph.m, "duplicates_collapsed": pg.graph.duplicates_collapsed},
            q_mean=s.q_mean,
            runs_ok=s.trials,
            failure_causes=s.failure_causes,
            uncovered=s.uncovered,
        )
    if s.failures:
        print(f"warning: {s.failures} re-sample(s) failed; binned the {s.trials} that succeeded", file=sys.stderr)
    print(f"{s.trials} runs: mean Q {s.q_mean:.3f}")
    return EXIT_OK


def _checked(convert, ok, name: str):
    """argparse type: convert the text, require ok(value); else argparse reports `invalid <name> value`."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(text)
        return value

    parse.__name__ = name
    return parse


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "positive integer")
RNG_SEED = _checked(int, lambda v: v >= 0, "non-negative integer")
TOLERANCE = _checked(float, lambda v: 0 < v < math.inf, "positive finite number")
SIGMA = _checked(float, lambda v: 0 < v <= 1, "fraction in (0, 1]")
MU_LIST = _checked(_float_list, bool, "number list")
SIGMA_LIST = _checked(_float_list, lambda vs: vs and all(0 < v <= 1 for v in vs), "fraction list in (0, 1]")


def _add_tol_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=TOLERANCE, default=solver.DEFAULT_TOL, help="solver relative-residual tolerance")


def _add_lfr_flags(p: argparse.ArgumentParser, mu_list: bool) -> None:
    p.add_argument("--n", type=int, required=True, help="number of nodes (N)")
    p.add_argument("--avg-k", type=float, required=True, help="target average degree")
    p.add_argument("--gamma", type=float, default=2.0, help="degree power-law exponent")
    p.add_argument("--beta-exp", type=float, default=2.0, help="community-size power-law exponent")
    if mu_list:
        p.add_argument("--mu", type=MU_LIST, required=True, help="mixing parameter(s), comma separated")
    else:
        p.add_argument("--mu", type=float, required=True, help="mixing parameter in [0, 1]")
    p.add_argument("--k-min", type=int, default=None, help="min degree (default: power-law mean closest to avg_k)")
    p.add_argument("--k-max", type=int, default=None, help="max degree (default: min(3*avg_k, n/10))")
    p.add_argument("--s-min", type=int, default=None, help="min community size (default 10)")
    p.add_argument("--s-max", type=int, default=None, help="max community size (default n/5)")


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedwalk",
        description="Seed-driven fuzzy community detection via absorbed random walks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("detect", help="compute affinity vectors for all non-seed nodes")
    p.add_argument("edges", help="edge list: two whitespace-separated labels per line, '#' comments")
    p.add_argument("seeds", help="seed file: `node community affinity` per line")
    p.add_argument("--out", required=True, help="output prefix (writes .affinity.csv, .crisp.csv); the solved "
                   "affinities wait in an unnamed temporary file in its directory, 8 bytes per value")
    _add_tol_flag(p)
    p.add_argument("--jobs", type=AT_LEAST_ONE, default=_cpus(), help="worker processes")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("generate", help="generate an LFR-style benchmark graph")
    _add_lfr_flags(p, mu_list=False)
    p.add_argument("--rng-seed", type=RNG_SEED, default=0)
    p.add_argument("--out", required=True, help="output prefix (writes .edges, .truth)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check one node's solver affinities, from one adjoint solve (not the bytes "
                       "detect writes), against Monte Carlo walks")
    p.add_argument("edges")
    p.add_argument("seeds")
    p.add_argument("--node", required=True, help="non-seed node label to verify")
    p.add_argument("--walks", type=AT_LEAST_ONE, default=100_000)
    p.add_argument("--rng-seed", type=RNG_SEED, default=0)
    p.add_argument("--step-cap", type=AT_LEAST_ONE, default=walker.DEFAULT_STEP_CAP)
    _add_tol_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="quality-vs-parameters grid of benchmark trials")
    _add_lfr_flags(p, mu_list=True)
    p.add_argument("--sigma", type=SIGMA_LIST, required=True, help="seed fraction(s), comma separated")
    p.add_argument("--trials", type=AT_LEAST_ONE, default=100, help="runs per grid cell")
    p.add_argument("--rng-seed", type=RNG_SEED, default=0)
    p.add_argument("--jobs", type=AT_LEAST_ONE, default=_cpus(), help="parallel trial workers")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("histogram", help="Q distribution over seed re-samples on one graph")
    p.add_argument("edges")
    p.add_argument("truth", help="ground-truth file: `node community` per line")
    p.add_argument("--sigma", type=SIGMA, required=True)
    p.add_argument("--runs", type=AT_LEAST_ONE, default=1000)
    p.add_argument("--bins", type=AT_LEAST_ONE, default=20)
    p.add_argument("--rng-seed", type=RNG_SEED, default=0)
    p.add_argument("--jobs", type=AT_LEAST_ONE, default=_cpus())
    p.add_argument("--out", required=True, help="histogram CSV path")
    p.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 after printing its error, but 2 means unreachable
        # nodes here; --help exits 0
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        # a bare MemoryError() has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def run() -> None:
    """Program entry (the console script, `python -m seedwalk.cli`): exit with main()'s
    code, after freezing every object left, so the interpreter's last collections skip
    what the OS frees anyway. main() itself changes no process-wide state."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
