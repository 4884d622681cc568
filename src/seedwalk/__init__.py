"""Seed-driven fuzzy community detection via absorbed random walks."""

__version__ = "0.1.0"

from .bench import run_sweep
from .detect import AffinityMatrix, assign_crisp, detect_multi
from .errors import (
    ConvergenceError,
    GenerationError,
    ParseError,
    ReachabilityError,
    SeedwalkError,
)
from .graph import Graph, load_edge_list, write_edge_list
from .lfr import LfrParams, PlantedGraph, generate, mixing_fraction, sample_seeds
from .markov import AbsorbingChain, build_chain
from .seeds import SeedSet, load_seed_file, write_seed_file
from .walker import estimate_affinity, run_walks

__all__ = [
    "AbsorbingChain",
    "AffinityMatrix",
    "ConvergenceError",
    "GenerationError",
    "Graph",
    "LfrParams",
    "ParseError",
    "PlantedGraph",
    "ReachabilityError",
    "SeedSet",
    "SeedwalkError",
    "assign_crisp",
    "build_chain",
    "detect_multi",
    "estimate_affinity",
    "generate",
    "load_edge_list",
    "load_seed_file",
    "mixing_fraction",
    "run_sweep",
    "run_walks",
    "sample_seeds",
    "write_edge_list",
    "write_seed_file",
]
