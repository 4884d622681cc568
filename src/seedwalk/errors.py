"""Exception types shared across the package."""


class SeedwalkError(Exception):
    """Base class for all seedwalk errors."""


class ParseError(SeedwalkError):
    """Malformed input file (edge list, seed file, ground truth)."""


class ReachabilityError(SeedwalkError):
    """Some non-seed nodes (ids in ``unreachable``) cannot reach any seed node."""

    def __init__(self, unreachable, labels):
        self.unreachable = list(unreachable)
        self._shown = {v: labels[v] for v in self.unreachable[:10]}
        shown = ", ".join(self._shown.values())
        more = "" if len(self.unreachable) <= 10 else f" (+{len(self.unreachable) - 10} more)"
        super().__init__(f"{len(self.unreachable)} node(s) cannot reach any seed: {shown}{more}")

    def __reduce__(self):
        # rebuilt from its own arguments when a worker process sends it back
        return type(self), (self.unreachable, self._shown)


class ConvergenceError(SeedwalkError):
    """Iterative solver failed to converge within its iteration budget."""

    def __init__(self, reports):
        self.reports = list(reports)
        worst = max(r.relative_residual for r in self.reports if not r.converged)
        super().__init__(f"solver did not converge; worst relative residual {worst:.3e}")

    def __reduce__(self):
        return type(self), (self.reports,)


class GenerationError(SeedwalkError):
    """Benchmark graph generation failed for the given parameters."""
