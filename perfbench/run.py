"""End-to-end benchmark of the seedwalk CLI, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload detect_wide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35   # every workload

Every CLI call is a child process, ``python -m seedwalk.cli`` with src/ on
PYTHONPATH and the BLAS thread variables removed from its environment. The
benchmark makes its inputs from --seed, measures for --seconds, checks every
output, prints one line per metric and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 1`` reports the
per-layer metrics instead (see perfbench/README.md). A failed check makes
the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from gen import Shape, planted_graph, realized_mixing, write_inputs  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_BUDGET_S = 150.0  # the whole run must end within 180 s
MIN_CALLS = 3
SETUP_SAMPLES = 9
TOL = 1e-8  # the CLI's default --tol, so detect runs at the stated tolerance

# the README sweep grid without mu=0: there the graph falls apart into its
# communities and, at sigma=0.1, a community left without a seed fails its trial
# by design (ReachabilityError); jobs stays at the CLI default (nproc)
SWEEP = {"n": 500, "avg_k": 20.0, "mus": [0.1, 0.2, 0.3, 0.4, 0.5], "sigmas": [0.1, 0.2], "trials": 2}
HIST = {"sigma": 0.1, "runs": 16, "bins": 20}  # two chunks of 8 tasks: one per worker on 2 cores


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape  # inputs the benchmark generates, also fed to the traced tour
    ops_per_call: int
    q_floor: float  # lowest acceptable Q against the planted truth
    lfr: list[dict]  # LfrParams for the traced lfr.generate calls
    detect_reps: int = 5  # repeats of the cheap traced calls, for medians


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "detect_wide",
            Shape(n=10_000, avg_k=30, k_max=50, mu=0.3, s_min=15, s_max=300, sigma=0.1),
            ops_per_call=1,
            q_floor=0.9,
            lfr=[dict(n=10_000, avg_k=30, gamma=2.0, beta_exp=2.0, mu=0.3, k_max=50, s_min=15, s_max=300)],
            detect_reps=2,
        ),
        Workload(
            "sweep_grid",
            Shape(n=500, avg_k=20, k_max=50, mu=0.3, s_min=10, s_max=100, sigma=0.1),
            ops_per_call=len(SWEEP["mus"]) * len(SWEEP["sigmas"]) * SWEEP["trials"],
            q_floor=0.5,
            lfr=[dict(n=500, avg_k=20.0, gamma=2.0, beta_exp=2.0, mu=mu) for mu in SWEEP["mus"]],
        ),
        Workload(
            "resample_hist",
            Shape(n=1000, avg_k=20, k_max=60, mu=0.3, s_min=10, s_max=200, sigma=HIST["sigma"]),
            ops_per_call=HIST["runs"],
            q_floor=0.5,
            lfr=[dict(n=1000, avg_k=20.0, gamma=2.0, beta_exp=2.0, mu=0.3)] * 3,
        ),
    )
}


@dataclass
class Call:
    wall_s: float
    exit_code: int
    cpu_s: float
    rss_mb: float
    ops: int
    error: str | None = None


class Launcher:
    """Client of launch.py, which starts every child of the benchmark."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, log: Path, timeout: float) -> Call:
        req = {"argv": argv, "env": env, "cwd": str(ROOT), "log": str(log), "timeout": max(timeout, 1.0)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"the launcher exited with code {self.proc.wait()}")
        return Call(ops=0, **json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


class Run:
    """State of one benchmark run: its work directory, deadline and records."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.start = perf_counter()
        self.work = OUT_DIR / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        self.env["PYTHONPATH"] = str(SRC)
        self.launcher = Launcher(self.env)
        self.blas_vars_found = {k: os.environ[k] for k in BLAS_VARS if k in os.environ}
        self.inputs: dict[str, str] = {}
        self.pooled_q: list[dict] = []
        self.record: dict = {"workload": workload.name, "seed": seed, "seconds": seconds}

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.start)

    def python(self, args: list[str], tag: str) -> Call:
        return self.launcher.run([sys.executable, *args], self.env, self.work / f"{tag}.log", self.remaining())

    def log_text(self, tag: str) -> str:
        return (self.work / f"{tag}.log").read_text(encoding="utf-8", errors="replace")

    def environment(self) -> dict:
        probe = self.python([str(HERE / "envprobe.py")], "envprobe")
        info = json.loads(self.log_text("envprobe").splitlines()[-1]) if probe.exit_code == 0 else {}
        src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "seedwalk").glob("*.py")))
        return {
            **info,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "src_lines": src_lines,
            "blas_env_cleared": list(BLAS_VARS),
            "blas_env_in_caller": self.blas_vars_found,
        }

    def make_inputs(self) -> dict:
        """The workload's planted graph, deterministic in the workload seed."""
        pg = planted_graph(self.w.shape, self.seed)
        prefix = self.work / "input"
        hashes = write_inputs(pg, prefix)
        self.inputs = {k: f"{prefix}.{k}" for k in hashes}
        return {"sha256": hashes, "n": pg.n, "edges": len(pg.edges), "communities": pg.communities,
                "seeds": int(pg.seeds.size), "realized_mixing": realized_mixing(pg)}

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing seedwalk.cli."""
        call = self.python(["-c", "import seedwalk.cli"], "import")
        if call.exit_code != 0:
            raise SystemExit(f"importing seedwalk.cli failed:\n{self.log_text('import')}")
        return call.wall_s

    def cli_argv(self, out: str, rng_seed: int) -> list[str]:
        if self.w.name == "detect_wide":
            return ["detect", self.inputs["edges"], self.inputs["seeds"], "--out", out]
        if self.w.name == "sweep_grid":
            return ["sweep", "--n", str(SWEEP["n"]), "--avg-k", f"{SWEEP['avg_k']:g}",
                    "--mu", ",".join(f"{m:g}" for m in SWEEP["mus"]),
                    "--sigma", ",".join(f"{s:g}" for s in SWEEP["sigmas"]),
                    "--trials", str(SWEEP["trials"]), "--rng-seed", str(rng_seed), "--out", out + ".sweep.csv"]
        return ["histogram", self.inputs["edges"], self.inputs["truth"], "--sigma", f"{HIST['sigma']:g}",
                "--runs", str(HIST["runs"]), "--bins", str(HIST["bins"]), "--rng-seed", str(rng_seed),
                "--out", out + ".hist.csv"]

    def check_detect(self, out: str) -> dict:
        return checks.check_detect(self.inputs["edges"], self.inputs["seeds"], self.inputs["truth"],
                                   out + ".affinity.csv", out + ".crisp.csv", TOL, self.w.q_floor)

    def check(self, out: str) -> dict:
        """Check the files one CLI call (or the traced run) wrote under ``out``."""
        if self.w.name == "detect_wide":
            return self.check_detect(out)
        if self.w.name == "sweep_grid":
            q = checks.check_sweep_csv(out + ".sweep.csv", SWEEP["n"], SWEEP["avg_k"], SWEEP["mus"],
                                       SWEEP["sigmas"], SWEEP["trials"])
            return {"q_by_cell": {f"{mu:g}/{s:g}": v for (mu, s), v in q.items()}, "_q": q}
        return {"q_mean": checks.check_histogram(out + ".hist.csv", HIST["runs"], HIST["bins"], self.w.q_floor)}

    def cli_calls(self, seconds: float) -> tuple[list[Call], list[float]]:
        """CLI calls until ``seconds`` have passed (at least MIN_CALLS). The
        first SETUP_SAMPLES calls each follow one setup sample, so that both
        see the same machine load.

        detect_wide reruns the same inputs, so its outputs must repeat byte for
        byte: the first call is checked in full and the others by hash. The
        other workloads draw a new --rng-seed per call and check every call.
        """
        self.setup_time()  # fills the bytecode cache; not counted
        calls: list[Call] = []
        setup: list[float] = []
        reference = None
        begin = perf_counter()
        while len(calls) < MIN_CALLS or (perf_counter() - begin) * (len(calls) + 1) / len(calls) <= seconds:
            i = len(calls)
            if len(setup) < SETUP_SAMPLES:
                setup.append(self.setup_time())
            out = str(self.work / f"call{i}")
            call = self.python(["-m", "seedwalk.cli", *self.cli_argv(out, self.seed * 1000 + i)], f"call{i}")
            call.ops = self.w.ops_per_call
            calls.append(call)
            if call.exit_code != 0:
                call.error = f"exit {call.exit_code}: {self.log_text(f'call{i}')[-400:]}"
            else:
                try:
                    if self.w.name == "detect_wide" and reference is not None:
                        if _digest(out) != reference:
                            raise checks.CheckError("outputs differ from the first call on the same inputs")
                    else:
                        info = self.check(out)
                        self.record.setdefault("checks", []).append({k: v for k, v in info.items() if k != "_q"})
                        if self.w.name == "detect_wide":
                            reference = _digest(out)
                        if "_q" in info:
                            self.pooled_q.append(info["_q"])
                except (checks.CheckError, OSError, ValueError) as exc:
                    call.error = f"check failed: {exc}"
            if self.remaining() < 30:
                break
        return calls, setup

    def pooled_check(self) -> str | None:
        """Criterion-5 bands on the mean Q of each cell over all calls of the run."""
        if self.w.name != "sweep_grid" or not self.pooled_q:
            return None
        mean = {k: statistics.fmean(q[k] for q in self.pooled_q) for k in self.pooled_q[0]}
        self.record["pooled_q"] = {f"{mu:g}/{s:g}": v for (mu, s), v in mean.items()}
        try:
            checks.check_sweep_bands(mean)
        except checks.CheckError as exc:
            return str(exc)
        return None

    def traced(self) -> tuple[dict, Call, str | None]:
        """The traced child: the workload's CLI stages plus the per-layer tour."""
        out = str(self.work / "traced")
        cfg = {
            "workload": self.w.name,
            "seed": self.seed,
            "inputs": self.inputs,
            "out": out,
            "tol": TOL,
            "jobs": os.cpu_count() or 1,
            "sigma": self.w.shape.sigma,
            "detect_reps": self.w.detect_reps,
            "lfr": [dict(p, rng_seed=self.seed * 100 + i) for i, p in enumerate(self.w.lfr)],
            # the rng seed of the first untraced call, so the mirror repeats its work
            "sweep": dict(SWEEP, rng_seed=self.seed * 1000),
            "hist": dict(HIST, rng_seed=self.seed * 1000),
        }
        (self.work / "trace.json").write_text(json.dumps(cfg), encoding="utf-8")
        result_path = self.work / "trace_result.json"
        call = self.python([str(HERE / "trace_run.py"), str(self.work / "trace.json"), str(result_path)], "trace")
        if call.exit_code != 0:
            return {}, call, f"traced run exit {call.exit_code}: {self.log_text('trace')[-600:]}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        error = None
        try:
            info = self.check(out)
            if self.w.name != "detect_wide":
                info["detect"] = self.check_detect(out)  # the tour's detect outputs
            result["checks"] = {k: v for k, v in info.items() if k != "_q"}
        except (checks.CheckError, OSError, ValueError) as exc:
            error = f"traced outputs failed their check: {exc}"
        return result, call, error


def _digest(out: str) -> str:
    h = hashlib.sha256()
    for suffix in (".affinity.csv", ".crisp.csv"):
        h.update(Path(out + suffix).read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def _quartiles(s: dict) -> str:
    return f"median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}"


def _line(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name:<28} {value:>14.6g} {unit:<6} {note}")


def measure(run: Run) -> tuple[dict, int, int]:
    """Tracing off: setup_s, the run's throughput and the calls' peak RSS."""
    calls, setup = run.cli_calls(run.seconds)
    pooled_error = run.pooled_check()
    attempted = sum(c.ops for c in calls)
    failed = attempted if pooled_error else sum(c.ops for c in calls if c.error)
    # a rate over the whole window: per call, the pool's oversubscription makes
    # wall time bimodal, and the median of a few calls jumps between the modes
    rate = attempted / sum(c.wall_s for c in calls)
    setup_s, wall_s, rss = (_summary(v) for v in (setup, [c.wall_s for c in calls], [c.rss_mb for c in calls]))
    ops, alias = {"detect_wide": ("detect runs", "1 / mean detect_wall_s"), "sweep_grid": ("trials", "trials_per_s"),
                  "resample_hist": ("re-samples", "resamples_per_s")}[run.w.name]
    _line("setup_s", setup_s["median"], "s", _quartiles(setup_s))
    _line("ops_per_s", rate, "1/s", f"{attempted} {ops} over {len(calls)} calls (= {alias})")
    _line("peak_rss_mb", rss["median"], "MB", _quartiles(rss))
    _line("detect_wall_s" if run.w.name == "detect_wide" else "call_wall_s", wall_s["median"], "s",
          _quartiles(wall_s) + " (printed only)")
    _line("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations (printed only)")
    errors = [c.error for c in calls if c.error] + ([pooled_error] if pooled_error else [])
    run.record.update(calls=[c.__dict__ for c in calls], setup_s=setup, errors=errors)
    metrics = {"setup_s": {"value": setup_s["median"], "unit": "s"},
               "ops_per_s": {"value": rate, "unit": "1/s"},
               "peak_rss_mb": {"value": rss["median"], "unit": "MB"}}
    return metrics, attempted, failed


def measure_traced(run: Run) -> tuple[dict, int, int]:
    """Tracing on: untraced calls for CPU and wall, then the traced child."""
    calls, setup = run.cli_calls(run.seconds / 2)
    result, tcall, trace_error = run.traced()
    pooled_error = run.pooled_check()
    untraced_wall = statistics.median(c.wall_s for c in calls)
    metrics = dict(result.get("metrics", {}))
    metrics["cli.import_s"] = statistics.median(setup)
    metrics["bench.cpu_per_op_s"] = statistics.median(c.cpu_s / c.ops for c in calls)
    if result:
        metrics["trace.unaccounted_s"] = untraced_wall - result["mirror_stages_s"]
        metrics["trace.overhead_s"] = result["mirror_wall_s"] - untraced_wall
    attempted = sum(c.ops for c in calls) + run.w.ops_per_call
    bad = sum(c.ops for c in calls if c.error) + (run.w.ops_per_call if trace_error else 0)
    failed = attempted if pooled_error else bad
    for name in sorted(metrics):
        _line(name, metrics[name], _unit(name), "")
    print(f"solver path: {result.get('solver_path')}; traced run {tcall.wall_s:.3f} s; "
          f"untraced CLI wall median {untraced_wall:.4f} s over {len(calls)} calls")
    _line("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations")
    errors = [c.error for c in calls if c.error] + [e for e in (trace_error, pooled_error) if e]
    run.record.update(calls=[c.__dict__ for c in calls], trace=result, errors=errors)
    return {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}, attempted, failed


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes") or name == "solver.bytes_moved":
        return "B"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith(("_ratio", "_residual")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    """One run; prints its metric lines and, last, its JSON line."""
    run = Run(WORKLOADS[name], seed, seconds)
    try:
        print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace}")
        run.record["environment"] = env = run.environment()
        print("environment:", json.dumps(env, sort_keys=True))
        run.record["inputs"] = inputs = run.make_inputs()
        print("inputs:", json.dumps(inputs, sort_keys=True))
        metrics, attempted, failed = (measure_traced if trace else measure)(run)
        for err in run.record["errors"]:
            print("FAILED:", err)
        run.record["metrics"] = metrics
        (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(run.record, indent=1, default=str), encoding="utf-8")
    finally:
        run.launcher.close()
        shutil.rmtree(run.work, ignore_errors=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "seedwalk" / "cli.py").is_file():
        print(f"error: {SRC / 'seedwalk' / 'cli.py'} not found; run from the repository root", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
