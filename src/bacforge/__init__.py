"""bacforge: batch array codes over prime fields.

Construct, verify, bound, and simulate array codes in which each storage
node holds a bucket of linear code symbols and answers a request with one
locally computed linear combination.
"""

from .field import GF2, PrimeField, rank, span_solve
from .model import (
    CodeSpec,
    Codeword,
    cap_and_reduce,
    code_from_json,
    code_to_json,
    codes_equal,
    encode,
    load_code,
    save_code,
    total_length,
)
from .verify import (
    RecoveryPlan,
    ResponseModel,
    VerificationReport,
    certify_plan,
    check_subset_spanning,
    find_plan,
    verify_bac,
    verify_pir,
)
from .construct import (
    CyclicParams,
    GoodVector,
    compose_concat,
    compose_parallel,
    compose_repeat,
    cyclic_certified_plan,
    cyclic_params,
    cyclic_shift_code,
    enumerate_good_vectors,
    good_vector,
    good_vector_2t1,
    good_vector_code,
    goodvec_certified_plan,
    is_good_vector,
    max_batch_k,
    parity_code_k2,
    single_request_code,
    trivial_replication,
    uniform_code,
)
from .bounds import (
    BoundReport,
    best_lower_bound,
    bound_report,
    bound_table,
    lb_general,
    lb_kplus2,
    lb_midrange,
    ub_constructions,
)
from .affine import (
    AffinePlane,
    AffinePlaneCode,
    affine_plane,
    default_params,
    greedy_plan,
    random_bac,
    redundancy_bound,
    trial_verify,
)
from .sim import SimReport, compare_models, load_stats, serve_batch

__version__ = "0.1.0"
