"""Block-timing toolkit: closed-form arrival/entropy/race quantities, a
deterministic network simulator of competing block producers, and the
estimators that cross-check one against the other."""

from .analytic import (
    arrival_rate,
    bernoulli_entropy,
    catchup_probability,
    discovery_cdf,
    entropy_peak_time,
    expected_trials,
    fork_episodes_per_block,
    fork_probability,
    infer_hashrate,
    interval_tail_probability,
    theta_from_difficulty,
    theta_from_target,
)
from .chain import (
    Block,
    ChainError,
    ChainStore,
    ConsensusRules,
    DuplicateBlock,
    MissingParent,
    TipView,
    UnknownBlock,
    make_genesis,
    median_past_time,
    retarget,
    validate_timestamp,
)
from .metrics import (
    ComparisonReport,
    ExponentialityResult,
    OutsideSetting,
    estimate_lambda,
    entropy_trajectory,
    exponentiality_diagnostic,
    fork_episode_rate,
    fork_rate,
    hashrate_inference_windows,
    multi_discovery_window_rate,
    race_monte_carlo,
    reorg_depth_histogram,
    tail_frequency,
    trace_reports,
)
from .sim import (
    ConfigError,
    DelayModel,
    MinerSpec,
    SimConfig,
    SimTrace,
    StopRule,
    TipEvent,
    TipEvents,
    run,
)

__version__ = "0.1.0"
