"""Maximum-independent-set approximation suite: exact solver, greedy/randomized/clique-cover
approximators, the λ-approximation oracle interface, and guarantee verification."""

from repro.maxis.approximators import (
    MaxISApproximator,
    available_approximators,
    capped_oracle,
    get_approximator,
    register_approximator,
)
from repro.maxis.exact import exact_maximum_independent_set, exact_via_networkx
from repro.maxis.greedy import (
    first_fit_greedy,
    min_degree_greedy,
    turan_guarantee,
    turan_lower_bound,
)
from repro.maxis.local_ratio import (
    clique_cover_approximation,
    clique_cover_number_upper_bound,
    clique_cover_quality,
    greedy_clique_cover,
)
from repro.maxis.luby_based import (
    best_of_random_mis,
    luby_based_approximation,
    luby_batch_mis,
    luby_batch_mis_ids,
    luby_trial_seeds,
    random_order_mis,
)
from repro.maxis.verification import (
    ApproximationReport,
    check_approximation,
    require_approximation,
)

__all__ = [
    "MaxISApproximator",
    "available_approximators",
    "capped_oracle",
    "get_approximator",
    "register_approximator",
    "exact_maximum_independent_set",
    "exact_via_networkx",
    "first_fit_greedy",
    "min_degree_greedy",
    "turan_guarantee",
    "turan_lower_bound",
    "clique_cover_approximation",
    "clique_cover_number_upper_bound",
    "clique_cover_quality",
    "greedy_clique_cover",
    "best_of_random_mis",
    "luby_based_approximation",
    "luby_batch_mis",
    "luby_batch_mis_ids",
    "luby_trial_seeds",
    "random_order_mis",
    "ApproximationReport",
    "check_approximation",
    "require_approximation",
]
