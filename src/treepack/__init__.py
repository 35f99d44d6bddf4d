"""Capacity-bounded rooted-tree packing: model, exact solvers, oracle, CNF gadget.

Pack K trees, all rooted at the same vertex, into a graph so that every
vertex's child count summed over the trees stays within its capacity, and
the total number of spanned vertex occurrences is maximum.  Exact
polynomial solvers cover complete graphs and trees; general graphs get an
exhaustive oracle for desk-size instances and a labeled greedy baseline.

Importing the package loads none of its submodules.  Each public name is
imported from its submodule on first access (PEP 562), so a CLI call
loads only the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCES = {
    "KIND_COMPLETE": "core",
    "KIND_GENERAL": "core",
    "KIND_TREE": "core",
    "Instance": "core",
    "Packing": "core",
    "ReductionOutput": "reduction",
    "SatInstance": "reduction",
    "SearchLimitExceeded": "core",
    "VerificationReport": "verifier",
    "Violation": "verifier",
    "attach_stage": "complete_solver",
    "brute_force_solve": "oracle",
    "build_stage_paths": "complete_solver",
    "extract_assignment": "reduction",
    "greedy_general": "greedy",
    "instance_from_dict": "core",
    "instance_to_dict": "core",
    "load_dimacs": "reduction",
    "load_instance": "core",
    "load_packing": "core",
    "objective": "core",
    "optimal_objective": "complete_solver",
    "packing_from_dict": "core",
    "packing_to_dict": "core",
    "parse_dimacs": "reduction",
    "reduce_3sat": "reduction",
    "solve_complete": "complete_solver",
    "solve_mckp": "tree_solver",
    "solve_tree": "tree_solver",
    "stripe_values": "tree_solver",
    "verify_packing": "verifier",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{source}", __name__), name)
    return value


def __dir__() -> list[str]:
    return __all__
