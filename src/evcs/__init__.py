"""EV charging-station operations testbed.

Simulates a station that decides, slot by slot, how many parked EVs to
charge against a market price; dispatches that total to individual EVs by
least laxity first; represents the state as per-laxity-level counts; and
learns total-action policies with a linear Gaussian policy-gradient method
or an approximate-Q baseline.
"""

from .agg import AggSimulator, AggState, BatchSimulator, agg_transition, aggregate, group_allocate
from .env import (
    ArrivalEvent,
    Category,
    ChargingEnv,
    EpisodeConfig,
    EpisodeResult,
    EvRecord,
    StationState,
    feasibility_invariant,
    run_episode,
)
from .llf import exists_feasible_individual_schedule, laxities, laxity, llf_allocate, llf_controller
from .policy import (
    DivergenceError,
    FeatureScaler,
    PolicyParams,
    TrainConfig,
    Trajectory,
    estimate_gradient,
    estimate_returns,
    log_prob_grad,
    normalize_returns,
    pg_update,
    project_action,
    rollout_batch,
    sample_action,
    train,
)

__version__ = "0.1.0"
