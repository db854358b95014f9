"""Unit tests for the closed-form quantities."""

import math
from fractions import Fraction

import pytest

from blocktime import analytic as an


class TestThetaFromTarget:
    def test_reference_target(self):
        # (65535/65536) * 2^224 expressed as an exact integer
        target = 65535 * 2**208
        expected = float(Fraction(target, 2**256))
        assert an.theta_from_target(target) == expected
        assert an.theta_from_target(target) == pytest.approx(2.328271e-10, rel=1e-6)

    def test_half_space(self):
        assert an.theta_from_target(2**255) == 0.5

    def test_power_of_two(self):
        assert an.theta_from_target(2**224) == 2.0**-32

    def test_no_overflow_near_top(self):
        theta = an.theta_from_target(2**256 - 1)
        assert theta == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [0, -1, 2**256, 2**257, 1.0])
    def test_domain(self, bad):
        message = "an integer" if isinstance(bad, float) else "strictly between 0 and 2"
        with pytest.raises(ValueError, match=f"^target must (be|lie) {message}"):
            an.theta_from_target(bad)


class TestThetaFromDifficulty:
    def test_unit_difficulty(self):
        assert an.theta_from_difficulty(1) == 2.0**-32

    def test_doubling_halves(self):
        assert an.theta_from_difficulty(2) == an.theta_from_difficulty(1) / 2

    def test_large(self):
        assert an.theta_from_difficulty(2**32) == 2.0**-64

    def test_smallest_difficulty_is_certainty(self):
        assert an.theta_from_difficulty(2.0**-32) == 1.0

    # theta must lie in (0, 1]: below 2^-32 it exceeds 1, at 1e308 it underflows to 0
    @pytest.mark.parametrize("bad", [0, -1.5, 2.0**-33, 1e-12, 1e308, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            an.theta_from_difficulty(bad)


class TestArrivalRate:
    def test_protocol_operating_point(self):
        lam = an.arrival_rate(2**32 / 600, 2.0**-32)
        assert lam == pytest.approx(1 / 600, rel=1e-12)

    def test_linearity(self):
        assert an.arrival_rate(2e6, 1e-9) == 2 * an.arrival_rate(1e6, 1e-9)

    def test_product(self):
        assert an.arrival_rate(7.1583e6, 2.3283e-10) == pytest.approx(1.6667e-3, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            an.arrival_rate(0, 0.5)
        with pytest.raises(ValueError):
            an.arrival_rate(1e6, 1.0)


class TestExpectedTrials:
    def test_zero_window(self):
        assert an.expected_trials(100, 0) == 0

    def test_product(self):
        assert an.expected_trials(100, 600) == 60000

    def test_one_expected_success_at_unit_difficulty(self):
        assert an.expected_trials(2**32 / 600, 600) == pytest.approx(2**32, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            an.expected_trials(100, -1)
        for hashrate in (0, -1.0):
            with pytest.raises(ValueError, match="^hashrate must be positive$"):
                an.expected_trials(hashrate, 600)


class TestDiscoveryCdf:
    def test_zero_time(self):
        assert an.discovery_cdf(1 / 600, 0) == 0

    def test_one_mean_interval(self):
        assert an.discovery_cdf(1 / 600, 600) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_half_at_log_two(self):
        assert an.discovery_cdf(1 / 600, 600 * math.log(2)) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_t_and_lambda(self):
        ts = [0, 1, 10, 100, 1000, 10000]
        vals = [an.discovery_cdf(1 / 600, t) for t in ts]
        assert vals == sorted(vals)
        lams = [1e-5, 1e-4, 1e-3, 1e-2]
        vals = [an.discovery_cdf(l, 600) for l in lams]
        assert vals == sorted(vals)

    def test_saturates(self):
        assert an.discovery_cdf(1 / 600, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_argument_precision(self):
        # expm1 keeps the leading term lam*t when lam*t is tiny
        assert an.discovery_cdf(1e-9, 1e-3) == pytest.approx(1e-12, rel=1e-9)


class TestBernoulliEntropy:
    def test_maximum(self):
        assert an.bernoulli_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert an.bernoulli_entropy(0.0) == 0.0
        assert an.bernoulli_entropy(1.0) == 0.0

    def test_nominal_interval_value(self):
        p = an.discovery_cdf(1 / 600, 600)
        assert an.bernoulli_entropy(p) == pytest.approx(0.949063, abs=1e-4)

    def test_symmetry(self):
        for p in [0.01, 0.1, 0.25, 0.4, 0.77, 0.999]:
            assert an.bernoulli_entropy(p) == pytest.approx(an.bernoulli_entropy(1 - p), rel=1e-12)

    def test_unique_maximum(self):
        for p in [0.0, 0.1, 0.49, 0.51, 0.9, 1.0]:
            assert an.bernoulli_entropy(p) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            an.bernoulli_entropy(-0.1)
        with pytest.raises(ValueError):
            an.bernoulli_entropy(1.1)


class TestEntropyPeakTime:
    def test_nominal(self):
        assert an.entropy_peak_time(1 / 600) == pytest.approx(415.8883, abs=1e-3)

    def test_unit(self):
        assert an.entropy_peak_time(math.log(2)) == pytest.approx(1.0, rel=1e-12)

    def test_scaling(self):
        assert an.entropy_peak_time(1 / 1200) == pytest.approx(831.7766, abs=1e-3)

    def test_entropy_unimodal_around_peak(self):
        lam = 1 / 600
        tmax = an.entropy_peak_time(lam)
        def h(t):
            return an.bernoulli_entropy(an.discovery_cdf(lam, t))
        rising = [h(t) for t in [0, 50, 150, 300, tmax]]
        assert rising == sorted(rising)
        falling = [h(t) for t in [tmax, 500, 700, 1200, 3000]]
        assert falling == sorted(falling, reverse=True)
        assert h(tmax) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            an.entropy_peak_time(0)


class TestIntervalTail:
    def test_origin(self):
        assert an.interval_tail_probability(1 / 600, 0) == 1.0

    def test_extreme_delay(self):
        # 106 minutes at the ten-minute operating point
        assert an.interval_tail_probability(1 / 600, 6360) == pytest.approx(2.4917e-5, rel=1e-4)

    def test_one_mean(self):
        assert an.interval_tail_probability(1 / 600, 600) == pytest.approx(math.exp(-1), rel=1e-12)


class TestForkProbability:
    def test_zero_window(self):
        assert an.fork_probability(1 / 600, 0) == 0.0

    def test_two_second_window(self):
        # cross-check against the series x^2/2 - x^3/3 at x = 1/300
        x = 2 / 600
        series = x**2 / 2 - x**3 / 3
        val = an.fork_probability(1 / 600, 2)
        assert val == pytest.approx(series, rel=1e-4)
        assert val == pytest.approx(5.543e-6, rel=1e-4)

    def test_sixty_second_window(self):
        assert an.fork_probability(1 / 600, 60) == pytest.approx(4.679e-3, rel=1e-4)

    def test_bounded_and_monotone(self):
        taus = [0, 1, 10, 60, 600, 6000, 1e6]
        vals = [an.fork_probability(1 / 600, t) for t in taus]
        assert vals == sorted(vals)
        assert all(0 <= v <= 1 for v in vals)

    def test_quadratic_limit(self):
        # fork_probability / ((lam*tau)^2 / 2) -> 1 as lam*tau -> 0
        for tau in [1.0, 0.1, 0.01]:
            x = tau / 600
            ratio = an.fork_probability(1 / 600, tau) / (x**2 / 2)
            assert abs(ratio - 1) < x  # error term is O(x)

    def test_overflowing_window_is_certain(self):
        # lam * tau overflows to inf, where x * exp(-x) would be nan
        assert an.fork_probability(1e308, 1e308) == 1.0

    def test_small_window_keeps_digits(self):
        # six significant digits survive the cancellation at tau = 2
        exact = 1 - math.exp(-1 / 300) - (1 / 300) * math.exp(-1 / 300)
        assert an.fork_probability(1 / 600, 2) == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("formula, window", [
    (an.discovery_cdf, "t"), (an.interval_tail_probability, "threshold"),
    (an.fork_probability, "tau"),
], ids=["discovery_cdf", "interval_tail_probability", "fork_probability"])
def test_rate_and_window_domain(formula, window):
    for lam in (0.0, -1 / 600):
        with pytest.raises(ValueError, match="^arrival rate must be positive$"):
            formula(lam, 1.0)
    with pytest.raises(ValueError, match=f"^{window} must be nonnegative$"):
        formula(1 / 600, -1.0)


# each closed form at a point in its domain
CLOSED_FORMS = [
    (an.theta_from_target, (2**224,)), (an.theta_from_difficulty, (1.0,)),
    (an.arrival_rate, (7.16e6, 2.0**-32)), (an.expected_trials, (7.16e6, 600.0)),
    (an.discovery_cdf, (1 / 600, 600.0)), (an.bernoulli_entropy, (0.5,)),
    (an.entropy_peak_time, (1 / 600,)), (an.interval_tail_probability, (1 / 600, 600.0)),
    (an.fork_probability, (1 / 600, 2.0)), (an.fork_episodes_per_block, (0.5, 1 / 600, 6.0)),
    (an.catchup_probability, (0.1, 6)), (an.infer_hashrate, (1 / 600, 1.0)),
]


@pytest.mark.parametrize("formula, args, i", [
    pytest.param(f, args, i, id=f"{f.__name__}-{f.__code__.co_varnames[i]}")
    for f, args in CLOSED_FORMS for i in range(len(args))
])
def test_nan_argument_raises(formula, args, i):
    assert math.isfinite(formula(*args))
    with pytest.raises(ValueError):
        formula(*args[:i], math.nan, *args[i + 1:])


class TestForkEpisodesPerBlock:
    def test_zero_window(self):
        for s in [0.1, 0.5, 0.95]:
            assert an.fork_episodes_per_block(s, 1 / 600, 0) == 0.0

    def test_symmetric_in_share(self):
        for s in [0.05, 0.2, 0.37, 0.5]:
            for tau in [6.0, 30.0, 60.0]:
                assert an.fork_episodes_per_block(s, 1 / 600, tau) == pytest.approx(
                    an.fork_episodes_per_block(1 - s, 1 / 600, tau), rel=1e-12)

    def test_linear_limit(self):
        # fork_episodes_per_block / (2 s (1-s) lam tau) -> 1 as lam*tau -> 0
        for s in [0.5, 0.8, 0.95]:
            for tau in [60.0, 6.0, 0.6, 0.06]:
                x = tau / 600
                ratio = an.fork_episodes_per_block(s, 1 / 600, tau) / (2 * s * (1 - s) * x)
                assert abs(ratio - 1) <= x * (1 + 1e-9)  # error term is O(x)

    def test_forkrate_scenario_value(self):
        # s = 1/2, lam*tau = 0.1: 0.5 * 0.1 * 0.9
        assert an.fork_episodes_per_block(0.5, 1 / 600, 60) == pytest.approx(0.045, rel=1e-12)

    def test_domain(self):
        for s in [0.0, 1.0, -0.2, 1.5]:
            with pytest.raises(ValueError):
                an.fork_episodes_per_block(s, 1 / 600, 60)
        with pytest.raises(ValueError):
            an.fork_episodes_per_block(0.5, 0, 60)
        with pytest.raises(ValueError):
            an.fork_episodes_per_block(0.5, -1 / 600, 60)
        with pytest.raises(ValueError):
            an.fork_episodes_per_block(0.5, 1 / 600, -1)
        assert an.fork_episodes_per_block(0.5, 1.0, an.FORK_EPISODES_MAX_LAMTAU) > 0
        with pytest.raises(ValueError):
            an.fork_episodes_per_block(0.5, 1 / 600, 61)


class TestCatchupProbability:
    def test_zero_deficit(self):
        for q in [0.0, 0.1, 0.45, 0.9]:
            assert an.catchup_probability(q, 0) == 1.0

    def test_exact_fractions(self):
        assert an.catchup_probability(0.1, 6) == pytest.approx(float(Fraction(1, 9)**6), rel=1e-12)
        assert an.catchup_probability(0.1, 6) == pytest.approx(1.8816e-6, rel=1e-4)
        assert an.catchup_probability(0.3, 5) == pytest.approx(1.4458e-2, rel=1e-4)

    def test_majority_attacker_is_certain(self):
        assert an.catchup_probability(0.5, 4) == 1.0
        assert an.catchup_probability(0.7, 10) == 1.0

    def test_recurrence_residual(self):
        # f(k) = q f(k-1) + p f(k+1) holds to 1e-12 for k up to 50
        for q in [0.05, 0.1, 0.2, 0.3, 0.45]:
            p = 1 - q
            for k in range(1, 51):
                f = an.catchup_probability
                residual = f(q, k) - q * f(q, k - 1) - p * f(q, k + 1)
                assert abs(residual) < 1e-12

    def test_monotone_in_k_and_q(self):
        for q in [0.05, 0.2, 0.45]:
            vals = [an.catchup_probability(q, k) for k in range(0, 12)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for k in [1, 3, 8]:
            vals = [an.catchup_probability(q, k) for q in [0.05, 0.1, 0.2, 0.3, 0.45]]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            an.catchup_probability(-0.1, 3)
        with pytest.raises(ValueError):
            an.catchup_probability(1.0, 3)
        with pytest.raises(ValueError):
            an.catchup_probability(0.3, -1)
        # booleans are not numbers, as in race_monte_carlo
        with pytest.raises(ValueError, match="k must be a number"):
            an.catchup_probability(0.3, True)
        with pytest.raises(ValueError, match="q must be a number"):
            an.catchup_probability(False, 3)


class TestInferHashrate:
    def test_unit_difficulty(self):
        assert an.infer_hashrate(1 / 600, 1) == pytest.approx(7.1582788e6, rel=1e-7)

    def test_linear_in_difficulty(self):
        assert an.infer_hashrate(1 / 600, 2) == pytest.approx(1.4316558e7, rel=1e-7)

    def test_roundtrip_identity(self):
        for h in [1e3, 7.16e6, 1e18]:
            for d in [0.5, 1.0, 3.7, 2**20]:
                lam = an.arrival_rate(h, an.theta_from_difficulty(d))
                assert an.infer_hashrate(lam, d) == pytest.approx(h, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            an.infer_hashrate(0, 1)
        with pytest.raises(ValueError):
            an.infer_hashrate(1 / 600, 0)


def test_exponential_approximation_gap():
    # (1-theta)^(H t) and exp(-H theta t) agree to 1e-9 for realistic theta
    for theta in [2.0**-32, 2.0**-40]:
        for trials in [1e6, 1e9, 1e10, 1e12]:
            exact = math.exp(trials * math.log1p(-theta))
            poisson = math.exp(-trials * theta)
            assert abs(exact - poisson) < 1e-9
