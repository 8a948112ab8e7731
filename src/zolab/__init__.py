"""Zero-one k-law laboratory for random s-uniform hypergraphs."""

from .errors import CapacityError, ExperimentError, VerificationError
from .hypercore import (
    Hypergraph,
    RootedPair,
    automorphism_count,
    count_copies,
    density,
    distance,
    is_strictly_balanced,
    max_density,
    parse_shg,
    to_shg,
)
from .folang import (
    Formula,
    build_dist_at_most,
    build_dist_exact,
    build_theorem6_L,
    build_theorem8_L,
    evaluate,
    parse,
    quantifier_depth,
    to_text,
)
from .efgame import distinguishing_formula, duplicator_wins
from .extlab import (
    PairClass,
    classify_pair,
    count_uncovered_copies,
    f_alpha,
    find_m_decomposition,
    match_cyclic_extension,
    prop1_poisson_parameter,
)
from .constructions import loose_path, omega_tilde_check, theorem6_pair, theorem8_witnesses
from .bounds import (
    max_spectrum_candidates,
    other_bound_values,
    qk_contains,
    theorem1_region,
    theorem7_alpha_set,
    theorem8_alpha_set,
)
from .randmodel import (
    ExperimentConfig,
    ExperimentReport,
    estimate_probability,
    poisson_fit,
    prop1_experiment,
    sample,
    spectrum_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
