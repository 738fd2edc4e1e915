"""Budgeted metric 1-median selection with matching adversarial lower bounds.

The library has three layers:

* solvers that pick an approximate median of an n-point metric while
  spending an explicit number of distance queries (``solvers``,
  ``metric``),
* an answer-as-you-go adversary that forces any low-budget algorithm
  into a bad output, with a replayable certificate (``adversary``,
  ``lowerbound``, ``expander``),
* generators, sweeps, and a CLI that score both sides against their
  guarantees (``harness``, ``cli``).

Distances are exact: integer hop counts plus a symbolic eps = 1/2**n
term (``distances.ExactDistance``), so every bound check is an integer
comparison rather than a float one.
"""

from .adversary import Adversary, Certificate, minimal_cap, verify_certificate
from .distances import EPS, ONE, ZERO, ExactDistance
from .expander import RegularGraph, build_regular, certify_expansion, verify_level_decay
from .harness import (
    INSTANCE_KINDS,
    SweepConfig,
    generate_instance,
    play_adversary_game,
    sweep_upper_bound,
    verify_nonadaptive,
)
from .lowerbound import GluedMetric, GameReport, glue_metric, hard_instance_game, run_renamed
from .metric import (
    CountingOracle,
    HopMetric,
    MetricTable,
    RestrictedOracle,
    brute_force_cost,
    brute_force_median,
    exact_median,
    graph_metric,
    is_metric,
    replay_verify,
    validate_metric,
)
from .players import ExactOnPrefix, PivotOnPrefix, RandomFuzzer, SamplingPlayer, make_player
from .solvers import (
    ExactInner,
    PivotInner,
    SamplingInner,
    make_inner,
    restrict_and_solve,
    subset_schedule,
    subset_size,
    transfer_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "Certificate",
    "CountingOracle",
    "EPS",
    "ExactDistance",
    "ExactInner",
    "ExactOnPrefix",
    "GameReport",
    "GluedMetric",
    "HopMetric",
    "INSTANCE_KINDS",
    "MetricTable",
    "ONE",
    "PivotInner",
    "PivotOnPrefix",
    "RandomFuzzer",
    "RegularGraph",
    "RestrictedOracle",
    "SamplingInner",
    "SamplingPlayer",
    "SweepConfig",
    "ZERO",
    "brute_force_cost",
    "brute_force_median",
    "build_regular",
    "certify_expansion",
    "exact_median",
    "generate_instance",
    "glue_metric",
    "graph_metric",
    "hard_instance_game",
    "is_metric",
    "make_inner",
    "make_player",
    "minimal_cap",
    "play_adversary_game",
    "replay_verify",
    "restrict_and_solve",
    "run_renamed",
    "subset_schedule",
    "subset_size",
    "sweep_upper_bound",
    "transfer_bound",
    "validate_metric",
    "verify_certificate",
    "verify_level_decay",
    "verify_nonadaptive",
    "__version__",
]
