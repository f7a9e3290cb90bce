"""The package surface: `import bacforge` loads its submodules lazily, and
exports exactly the pinned public names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bacforge

# submodule -> the public names the package exports from it, in export order
PUBLIC = {
    "field": ["GF2", "PrimeField", "rank"],
    "model": [
        "CodeSpec", "Codeword", "cap_and_reduce", "code_from_json", "code_to_json",
        "codes_equal", "encode", "load_code", "save_code", "total_length",
    ],
    "verify": [
        "RecoveryPlan", "ResponseModel", "VerificationReport", "certify_plan",
        "check_subset_spanning", "find_plan", "verify_bac", "verify_pir",
    ],
    "construct": [
        "CyclicParams", "GoodVector", "compose_concat", "compose_parallel", "compose_repeat",
        "cyclic_certified_plan", "cyclic_params", "cyclic_shift_code", "enumerate_good_vectors",
        "good_vector", "good_vector_2t1", "good_vector_code", "goodvec_certified_plan",
        "is_good_vector", "max_batch_k", "parity_code_k2", "single_request_code",
        "trivial_replication", "uniform_code",
    ],
    "bounds": [
        "BoundReport", "best_lower_bound", "bound_report", "bound_table", "lb_general",
        "lb_kplus2", "lb_midrange", "ub_constructions",
    ],
    "affine": [
        "AffinePlane", "AffinePlaneCode", "affine_plane", "default_params", "greedy_plan",
        "random_bac", "redundancy_bound", "trial_verify",
    ],
    "sim": ["SimReport", "compare_models", "load_stats", "serve_batch"],
}


def test_all_is_the_pinned_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 60
    assert bacforge.__all__ == names
    assert bacforge.__version__ == "0.1.0"
    assert set(names) <= set(dir(bacforge))


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_submodules_own_object(module):
    sub = importlib.import_module(f"bacforge.{module}")
    for name in PUBLIC[module]:
        assert getattr(bacforge, name) is getattr(sub, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from bacforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bacforge.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bacforge.no_such_name
    assert not hasattr(bacforge, "verify_bacs")
    assert not hasattr(bacforge, "span_solve")  # `Echelon.solve` is the one solve


def test_submodules_import_as_before():
    from bacforge import affine
    import bacforge.verify

    assert affine.random_bac is bacforge.random_bac
    assert bacforge.verify.verify_bac is bacforge.verify_bac


def test_import_loads_no_submodule():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    script = (
        "import json, sys, bacforge\n"
        "before = sorted(m for m in sys.modules if m.startswith('bacforge.'))\n"
        "bacforge.bound_report\n"
        "after = sorted(m for m in sys.modules if m.startswith('bacforge.'))\n"
        "numpy_loaded = 'numpy' in sys.modules\n"
        "print(json.dumps([before, after, numpy_loaded, bacforge.sim.__name__]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    before, after, numpy_loaded, sim = json.loads(out.stdout)
    assert before == []
    assert after == [f"bacforge.{m}" for m in ("bounds", "construct", "field", "model")]
    assert not numpy_loaded
    # a submodule is still an attribute of the package, as when it was imported eagerly
    assert sim == "bacforge.sim"
