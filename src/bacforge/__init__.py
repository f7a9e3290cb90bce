"""bacforge: batch array codes over prime fields.

Construct, verify, bound, and simulate array codes in which each storage
node holds a bucket of linear code symbols and answers a request with one
locally computed linear combination.

`import bacforge` loads no submodule: each is imported on first use of one
of its names (`bf.verify_bac` loads `bacforge.verify`), so a caller pays
only for what it runs.
"""

from importlib import import_module as _import_module

# submodule -> the public names the package takes from it
_EXPORTS = {
    "field": ("GF2", "PrimeField", "rank"),
    "model": (
        "CodeSpec", "Codeword", "RecoveryPlan", "cap_and_reduce", "code_from_json",
        "code_to_json", "codes_equal", "encode", "load_code", "save_code", "total_length",
    ),
    "verify": (
        "ResponseModel", "VerificationReport", "certify_plan", "check_subset_spanning",
        "find_plan", "verify_bac", "verify_pir",
    ),
    "construct": (
        "CyclicParams", "GoodVector", "compose_concat", "compose_parallel", "compose_repeat",
        "cyclic_certified_plan", "cyclic_params", "cyclic_shift_code", "enumerate_good_vectors",
        "good_vector", "good_vector_2t1", "good_vector_code", "goodvec_certified_plan",
        "is_good_vector", "max_batch_k", "parity_code_k2", "single_request_code",
        "trivial_replication", "uniform_code",
    ),
    "bounds": (
        "BoundReport", "best_lower_bound", "bound_report", "bound_table", "lb_general",
        "lb_kplus2", "lb_midrange", "ub_constructions",
    ),
    "affine": (
        "AffinePlane", "AffinePlaneCode", "affine_plane", "default_params", "greedy_plan",
        "random_bac", "redundancy_bound", "trial_verify",
    ),
    "sim": ("SimReport", "compare_models", "load_stats", "serve_batch"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or a submodule, imported on first use; a name is then
    kept in the package's globals, so later lookups skip this hook."""
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
