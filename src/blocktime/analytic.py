"""Closed-form quantities of proof-of-work block timing.

Everything here is a pure function of its arguments. Units and conventions:

- hash rates are hashes per second, arrival rates are blocks per second,
  durations are seconds
- difficulty is dimensionless, expressed in multiples of the minimum
  difficulty (difficulty 1 corresponds to a per-hash success probability
  of about 2^-32)
- probabilities are plain floats in [0, 1], entropies are bits

Domain violations raise ValueError.
"""

import math

from .chain import finite_number, whole_number

# Size of the hash output space: a hash attempt succeeds when the output,
# read as an integer, falls below the target threshold.
HASH_SPACE = 2**256

# Expected hashes per block at difficulty 1 (the approximation drops the
# 65535/65536 factor of the reference target).
DIFFICULTY_ONE_SCALE = 2**32


def theta_from_target(target: int) -> float:
    """Per-hash success probability for an explicit 256-bit target.

    Computed as an exact big-integer quotient, so there is no intermediate
    overflow and the result is correctly rounded (relative error well
    below 1e-12).
    """
    if not isinstance(target, int):
        raise ValueError("target must be an integer")
    if not 0 < target < HASH_SPACE:
        raise ValueError("target must lie strictly between 0 and 2^256")
    return target / HASH_SPACE


def theta_from_difficulty(difficulty: float) -> float:
    """Per-hash success probability 1 / (difficulty * 2^32).  ValueError
    unless it lies in (0, 1]: it exceeds 1 below difficulty 2^-32 and
    underflows to 0 near the float maximum."""
    if difficulty <= 0:
        raise ValueError("difficulty must be positive")
    theta = 1.0 / (difficulty * DIFFICULTY_ONE_SCALE)
    if not 0 < theta <= 1:
        raise ValueError(f"difficulty {difficulty!r} gives theta {theta!r} outside (0, 1]")
    return theta


def arrival_rate(hashrate: float, theta: float) -> float:
    """Block arrival rate (blocks/second) of a hash rate against success
    probability theta.  Block discovery is Poisson with this rate."""
    if not hashrate > 0:
        raise ValueError("hashrate must be positive")
    if not 0 < theta < 1:
        raise ValueError("theta must lie strictly between 0 and 1")
    return hashrate * theta


def expected_trials(hashrate: float, duration: float) -> float:
    """Expected number of hash attempts in a time window."""
    if not hashrate > 0:
        raise ValueError("hashrate must be positive")
    if not duration >= 0:
        raise ValueError("duration must be nonnegative")
    return hashrate * duration


def discovery_cdf(lam: float, t: float) -> float:
    """Probability that at least one block is found by time t.

    p(t) = 1 - exp(-lam * t), evaluated via expm1 so small lam*t keeps
    full precision.
    """
    if not lam > 0:
        raise ValueError("arrival rate must be positive")
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    return -math.expm1(-lam * t)


def bernoulli_entropy(p: float) -> float:
    """Entropy in bits of a binary event with success probability p.

    Uses the convention 0*log2(0) = 0, so the function is continuous on
    [0, 1] with value 0 at both endpoints and maximum 1 at p = 1/2.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def entropy_peak_time(lam: float) -> float:
    """Time at which block-discovery entropy peaks: ln(2)/lam, the instant
    the discovery probability reaches one half."""
    if not lam > 0:
        raise ValueError("arrival rate must be positive")
    return math.log(2.0) / lam


def interval_tail_probability(lam: float, threshold: float) -> float:
    """Probability that a block interval exceeds `threshold` seconds.

    Survival function exp(-lam * threshold) of the exponential interval
    distribution.
    """
    if not lam > 0:
        raise ValueError("arrival rate must be positive")
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    return math.exp(-lam * threshold)


def fork_probability(lam: float, tau: float) -> float:
    """Probability that two or more blocks are found within a window of
    length tau, i.e. P(N >= 2) for N ~ Poisson(lam * tau).

    Written as -expm1(-x) - x*exp(-x) so that tiny windows (x ~ 1e-3)
    retain at least six significant digits instead of cancelling.
    """
    if not lam > 0:
        raise ValueError("arrival rate must be positive")
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    x = lam * tau
    if math.isinf(x):
        return 1.0  # the limit; x * exp(-x) would be inf * 0
    return -math.expm1(-x) - x * math.exp(-x)


# Largest lam*tau accepted by fork_episodes_per_block: the range over which
# its second-order form was checked against the simulator.
FORK_EPISODES_MAX_LAMTAU = 0.1


def fork_episodes_per_block(share: float, lam: float, tau: float) -> float:
    """Expected fork episodes per canonical block for two honest miners.

    Setting: two miners with hash-rate shares s = `share` and 1 - s, each
    on its own node, one fixed propagation delay tau (seconds) between the
    nodes, a constant total arrival rate lam (blocks/second) and no
    retargeting.  An episode is a parent that acquires two children; the
    result is episodes per unit of canonical height (dimensionless).

    Derivation, with x = lam * tau.  Each miner holds at most one block
    per height, so a parent gets two children exactly when both miners
    hold a block at height h + 1 and not both at height h: episodes are
    the runs of doubly held heights, and canonical blocks are the heights,
    i.e. discoveries less doubly held heights.  Split the Poisson discovery
    sequence into clusters joined by gaps shorter than tau.  After a longer
    gap both nodes know every block, so a cluster's doubly held heights
    depend on that cluster alone.  A given discovery opens a cluster of k
    discoveries with probability e^(-2x) p^(k-1), p = 1 - e^(-x).  A
    cluster of two doubles one height when its finders differ (probability
    2s(1-s)), one of three when not all finders agree (3s(1-s)), so doubly
    held heights per discovery are 2s(1-s)(x - x^2) + O(x^3).  A run spans
    two clusters when one ending on a doubly held height is followed by one
    starting with one: (2s(1-s)x)^2 + O(x^3) per discovery.  Episodes per
    height are then

        2 s (1 - s) x (1 - x) + (4/3) s (1 - s) x^3 + O(x^4),

    and this function returns the second-order part.  The x^3 term, from
    four-discovery clusters and from the next order of the terms above, is
    the remainder: positive, 2x^2 / (3(1 - x)) of the value, i.e. 0.74%
    (3.3e-4 at s = 1/2) at x = 0.1.  Hence x above FORK_EPISODES_MAX_LAMTAU
    raises ValueError.
    """
    if not 0 < share < 1:
        raise ValueError("share must lie strictly between 0 and 1")
    if not lam > 0:
        raise ValueError("arrival rate must be positive")
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    x = lam * tau
    if x > FORK_EPISODES_MAX_LAMTAU:
        raise ValueError(f"lam*tau must not exceed {FORK_EPISODES_MAX_LAMTAU} "
                         "(second-order form)")
    return 2.0 * share * (1.0 - share) * x * (1.0 - x)


def catchup_setting(q, k) -> tuple[float, int]:
    """(q, k) as (float, int); ValueError unless q is a real number in [0, 1)
    and k a whole number of at least 0 (booleans are not numbers)."""
    q = finite_number(q, "q")
    if not 0 <= q < 1:
        raise ValueError("q must lie in [0, 1)")
    return q, whole_number(k, "k", 0)


def catchup_probability(q: float, k: int) -> float:
    """Probability that an attacker with hash-rate share q ever erases a
    deficit of k blocks against the honest majority p = 1 - q.

    Gambler's-ruin closed form (q/p)^k for q < p.  For q >= p the walk
    reaches 0 almost surely, so the function returns the limit value 1
    rather than rejecting the input.  k = 0 means no deficit: returns 1.
    """
    q, k = catchup_setting(q, k)
    p = 1.0 - q
    return 1.0 if k == 0 or q >= p else (q / p) ** k


def infer_hashrate(lam: float, difficulty: float) -> float:
    """Aggregate hash rate implied by an observed arrival rate at a known
    difficulty: H = lam * difficulty * 2^32."""
    if not lam > 0:
        raise ValueError("arrival rate must be positive")
    if not difficulty > 0:
        raise ValueError("difficulty must be positive")
    return lam * difficulty * DIFFICULTY_ONE_SCALE
