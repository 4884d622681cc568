"""Traced run: time seedwalk's public calls from outside the package.

Usage: python trace_run.py CONFIG.json RESULT.json, with src/ on PYTHONPATH.
run.py writes the config. This process first repeats the stages of the
workload's CLI command (the "mirror"), then calls the remaining layers on
the same inputs (the "tour") so that every workload reports every layer.
Spans stay in memory and are written to RESULT.json at the end.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

T0 = perf_counter()


class Tracer:
    """Spans with name, start, end and the enclosing span, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.rss: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
               "start": perf_counter() - T0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter() - T0
            self._open.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def has(self, name: str) -> bool:
        return any(s["name"] == name for s in self.spans)

    def mark_rss(self, stage: str) -> None:
        """Peak RSS so far of this process and of the pool workers it has reaped."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.rss[stage] = max(own, kids) / 1024.0


def main(config_path: str, result_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    tr = Tracer()
    files, out, workload = cfg["inputs"], cfg["out"], cfg["workload"]

    with tr.span("mirror"):
        with tr.span("cli.import"):
            import seedwalk.cli  # noqa: F401  (the import every CLI call pays)
        tr.mark_rss("import")
        import numpy as np

        from seedwalk import bench, detect, graph, lfr, markov, seeds, solver

        sweep = cfg["sweep"]
        cells = [(lfr.LfrParams(n=sweep["n"], avg_k=sweep["avg_k"], gamma=2.0, beta_exp=2.0, mu=mu), s)
                 for mu in sweep["mus"] for s in sweep["sigmas"]]
        pooled = None
        if workload == "detect_wide":
            g = tr.timed("graph.load_edge_list", graph.load_edge_list, files["edges"])
            seed_set = tr.timed("seeds.load_seed_file", seeds.load_seed_file, files["seeds"], g)
            aff = tr.timed("detect.detect_multi", detect.detect_multi, g, seed_set, tol=cfg["tol"])
            _write_detect(tr, detect, aff, g, out)
        elif workload == "sweep_grid":
            pooled, summaries = tr.timed("bench.run_sweep", bench.run_sweep, cells, sweep["trials"],
                                         sweep["rng_seed"], jobs=cfg["jobs"])
            with tr.span("bench.write_results_csv"), open(out + ".sweep.csv", "w", encoding="utf-8") as fh:
                bench.write_results_csv(summaries, fh)
        else:
            hist = cfg["hist"]
            pg = tr.timed("lfr.load_planted", lfr.load_planted, files["edges"], files["truth"])
            qs = tr.timed("bench.seed_resample_qualities", bench.seed_resample_qualities, pg, hist["sigma"],
                          hist["runs"], hist["rng_seed"], jobs=cfg["jobs"])
            with tr.span("bench.write_histogram_csv"), open(out + ".hist.csv", "w", encoding="utf-8") as fh:
                bench.write_histogram_csv(bench.histogram(qs, hist["bins"]), fh)
            with open(out + ".hist.manifest.json", "w", encoding="utf-8") as fh:
                json.dump({"q_mean": float(sum(qs) / len(qs))}, fh)
    mirror_wall = perf_counter() - T0
    mirror_stages = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] == 0)
    tr.mark_rss("mirror")

    with tr.span("tour"):
        if not tr.has("graph.load_edge_list"):
            g = tr.timed("graph.load_edge_list", graph.load_edge_list, files["edges"])
            seed_set = tr.timed("seeds.load_seed_file", seeds.load_seed_file, files["seeds"], g)
        if not tr.has("lfr.load_planted"):
            pg = tr.timed("lfr.load_planted", lfr.load_planted, files["edges"], files["truth"])
        for _ in range(cfg["detect_reps"]):
            chain = tr.timed("markov.build_chain", markov.build_chain, g, seed_set.ids)
            system = tr.timed("solver.assemble", solver.assemble, chain, seed_set)
        while len(tr.durations("detect.detect_multi")) < cfg["detect_reps"]:
            aff = tr.timed("detect.detect_multi", detect.detect_multi, g, seed_set, tol=cfg["tol"])
        tr.mark_rss("detect")
        if not tr.has("detect.write_affinity_csv"):
            _write_detect(tr, detect, aff, g, out)
        tr.mark_rss("write")

        crisp = detect.assign_crisp(aff)
        for _ in range(cfg["detect_reps"]):
            tr.timed("bench.quality", bench.membership_quality, pg, crisp)
        for params in cfg["lfr"]:
            tr.timed("lfr.generate", lfr.generate, lfr.LfrParams(**params))
        for i in range(cfg["detect_reps"]):
            rng = np.random.default_rng([cfg["seed"], i])
            tr.timed("lfr.sample_seeds", lfr.sample_seeds, pg, cfg["sigma"], rng)
        tr.mark_rss("lfr")

        # contention: busy time of the same trials inside the pool and alone
        if pooled is None:
            pooled, _ = tr.timed("bench.run_sweep", bench.run_sweep, cells, 1, sweep["rng_seed"], jobs=cfg["jobs"])
        serial, _ = tr.timed("bench.run_sweep_serial", bench.run_sweep, cells, 1, sweep["rng_seed"], jobs=1)
        tr.mark_rss("pool")

    matrix = system.matrix()
    reports = aff.reports or []
    iterations = [r.iterations for r in reports]
    resid = np.linalg.norm(matrix @ aff.rows - system.rhs, axis=0)
    bnorm = np.linalg.norm(system.rhs, axis=0)
    live = bnorm > 0
    bytes_per_matvec = (matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
                        + (system.dim + 1) * matrix.indptr.itemsize + 2 * 8 * system.dim)
    first_trials = {(r.params.mu, r.sigma): r.seconds for r in pooled if r.trial_index == 0}
    alone = {(r.params.mu, r.sigma): r.seconds for r in serial}
    metrics = {
        "graph.load_edge_list_s": tr.median("graph.load_edge_list"),
        "graph.edges": g.m,
        "seeds.load_seed_file_s": tr.median("seeds.load_seed_file"),
        "markov.build_chain_s": tr.median("markov.build_chain"),
        "solver.assemble_s": tr.median("solver.assemble"),
        "solver.solve_s": tr.median("detect.detect_multi") - tr.median("markov.build_chain")
        - tr.median("solver.assemble"),
        "solver.iterations_total": sum(iterations),
        "solver.iterations_max": max(iterations, default=0),
        "solver.dim": system.dim,
        "solver.communities": system.communities,
        "solver.nnz": matrix.nnz,
        "solver.matvec_flops": 2 * matrix.nnz * sum(iterations),
        "solver.bytes_moved": bytes_per_matvec * sum(iterations),
        "solver.max_rel_residual": float((resid[live] / bnorm[live]).max()),
        "detect.detect_multi_s": tr.median("detect.detect_multi"),
        "detect.write_affinity_csv_s": tr.median("detect.write_affinity_csv"),
        "detect.affinity_csv_bytes": os.path.getsize(out + ".affinity.csv"),
        "detect.write_crisp_csv_s": tr.median("detect.write_crisp_csv"),
        "lfr.generate_s": tr.median("lfr.generate"),
        "lfr.sample_seeds_s": tr.median("lfr.sample_seeds"),
        "lfr.load_planted_s": tr.median("lfr.load_planted"),
        "bench.quality_s": tr.median("bench.quality"),
        "bench.contention_ratio": statistics.median(first_trials[k] for k in alone)
        / statistics.median(alone.values()),
        "bench.shared_input_bytes": len(pickle.dumps(pg, protocol=pickle.HIGHEST_PROTOCOL)),
    }
    metrics.update({f"rss.after_{stage}_mb": mb for stage, mb in tr.rss.items()})
    result = {
        "metrics": metrics,
        "solver_path": "iterative" if reports else "direct",
        "mirror_wall_s": mirror_wall,
        "mirror_stages_s": mirror_stages,
        "spans": tr.spans,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _write_detect(tr: Tracer, detect, aff, g, out: str) -> None:
    with tr.span("detect.write_affinity_csv"), open(out + ".affinity.csv", "w", encoding="utf-8") as fh:
        detect.write_affinity_csv(aff, g, fh)
    with tr.span("detect.write_crisp_csv"), open(out + ".crisp.csv", "w", encoding="utf-8") as fh:
        detect.write_crisp_csv(aff, g, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
