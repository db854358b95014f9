"""Tests for estimators, diagnostics, and the race Monte Carlo oracle."""

import csv
import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocktime.metrics as M
from blocktime import analytic as an
from blocktime.sim import SimConfig, run

H600 = 2**32 / 600


def sim(**overrides):
    base = {
        "miners": [{"id": 0, "share": 1.0}],
        "nodes": 1,
        "delay": {"fixed": 0.0},
        "initial_difficulty": 1.0,
        "nominal_hashrate": H600,
        "stop": {"blocks": 500},
        "seed": 0,
        "retarget_enabled": False,
    }
    base.update(overrides)
    return run(SimConfig.from_dict(base))


class TestEstimateLambda:
    def test_constant_sample(self):
        assert M.estimate_lambda([600.0] * 10) == pytest.approx(1 / 600, rel=1e-12)

    def test_mean_six_hundred(self):
        assert M.estimate_lambda([300.0, 900.0]) == pytest.approx(1 / 600, rel=1e-12)

    def test_large_sample_convergence(self):
        rng = np.random.default_rng(42)
        deltas = rng.exponential(600.0, size=100_000)
        est = M.estimate_lambda(deltas)
        # MLE standard error is lambda / sqrt(n)
        assert abs(est - 1 / 600) <= 3 * (1 / 600) / math.sqrt(100_000)

    def test_scale_equivariance(self):
        deltas = [10.0, 20.0, 55.0, 3.0]
        for c in [0.5, 2.0, 100.0]:
            assert M.estimate_lambda([c * d for d in deltas]) == pytest.approx(
                M.estimate_lambda(deltas) / c, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            M.estimate_lambda([])
        with pytest.raises(ValueError):
            M.estimate_lambda([600.0])
        with pytest.raises(ValueError):
            M.estimate_lambda([600.0, -1.0])


class TestTailFrequency:
    def test_zero_threshold(self):
        rep = M.tail_frequency([1.0, 2.0, 3.0], 0.0)
        assert rep.empirical == 1.0

    def test_huge_threshold(self):
        rep = M.tail_frequency([1.0, 2.0, 3.0], 1e9)
        assert rep.empirical == 0.0

    def test_exponential_sample_matches(self):
        rng = np.random.default_rng(7)
        deltas = rng.exponential(600.0, size=1_000_000)
        rep = M.tail_frequency(deltas, 3000.0)  # p ~ e^-5 ~ 6.7e-3
        assert abs(rep.z) <= 3
        assert rep.warning is None

    def test_underpowered_flagged(self):
        rng = np.random.default_rng(7)
        deltas = rng.exponential(600.0, size=1000)
        rep = M.tail_frequency(deltas, 6360.0)
        assert rep.warning is not None and "under-powered" in rep.warning


class TestExponentialityDiagnostic:
    def test_exponential_passes(self):
        rng = np.random.default_rng(3)
        res = M.exponentiality_diagnostic(rng.exponential(600.0, size=100_000))
        assert res.passed
        assert abs(res.lag1_autocorr) < res.lag1_bound

    def test_constant_fails(self):
        res = M.exponentiality_diagnostic([600.0] * 200)
        assert not res.passed
        # KS distance of a point mass vs Exp at its own mean: 1 - 1/e
        assert res.statistic == pytest.approx(1 - math.exp(-1), rel=1e-9)

    def test_uniform_fails(self):
        rng = np.random.default_rng(3)
        res = M.exponentiality_diagnostic(rng.uniform(1.0, 2.0, size=10_000))
        assert not res.passed

    def test_minimum_sample(self):
        with pytest.raises(ValueError):
            M.exponentiality_diagnostic([1.0] * 99)


class TestEntropyTrajectory:
    def test_pointwise_equals_analytic(self):
        curve = M.entropy_trajectory(1 / 600, 25.0, 3600.0)
        for t, p, h in curve:
            assert p == pytest.approx(an.discovery_cdf(1 / 600, t), abs=1e-12)
            assert h == pytest.approx(an.bernoulli_entropy(p), abs=1e-12)

    def test_peak_row_present(self):
        curve = M.entropy_trajectory(1 / 600, 25.0, 3600.0)
        peak_t = an.entropy_peak_time(1 / 600)
        peak_rows = [r for r in curve if r[0] == peak_t]
        assert len(peak_rows) == 1
        assert peak_rows[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_shape_rise_then_fall(self):
        curve = M.entropy_trajectory(1 / 600, 10.0, 3600.0)
        peak_t = an.entropy_peak_time(1 / 600)
        hs_before = [h for t, _, h in curve if t <= peak_t]
        hs_after = [h for t, _, h in curve if t >= peak_t]
        assert hs_before == sorted(hs_before)
        assert hs_after == sorted(hs_after, reverse=True)

    def test_known_values(self):
        curve = M.entropy_trajectory(1 / 600, 600.0, 3600.0)
        by_t = {t: h for t, _, h in curve}
        assert by_t[0.0] == 0.0
        assert by_t[600.0] == pytest.approx(0.9491, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            M.entropy_trajectory(1 / 600, 0.0, 100.0)


class TestRaceMonteCarlo:
    def test_zero_deficit_exact(self):
        assert M.race_monte_carlo(0.3, 0, 1000, seed=1) == 1.0

    def test_powerless_attacker(self):
        assert M.race_monte_carlo(0.0, 3, 1000, seed=1) == 0.0

    def test_reproducible(self):
        a = M.race_monte_carlo(0.3, 5, 200_000, seed=42)
        b = M.race_monte_carlo(0.3, 5, 200_000, seed=42)
        assert a == b

    def test_matches_closed_form(self):
        for q, k in [(0.1, 2), (0.3, 5)]:
            est = M.race_monte_carlo(q, k, 200_000, seed=9)
            cf = an.catchup_probability(q, k)
            sigma = math.sqrt(cf * (1 - cf) / 200_000)
            assert abs(est - cf) <= 3 * sigma

    def test_step_cap_guard(self):
        with pytest.raises(ValueError):
            M.race_monte_carlo(0.3, 5, 1000, seed=1, step_cap=50)
        # q >= 0.5 has no bias floor, but a walk needs at least one step
        for cap in (0, -5):
            with pytest.raises(ValueError, match="step_cap"):
                M.race_monte_carlo(0.6, 3, 1000, seed=1, step_cap=cap)
        with pytest.raises(ValueError, match="step_cap"):
            M.race_monte_carlo(0.6, 3, 1000, seed=1, step_cap=10.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            M.race_monte_carlo(1.0, 3, 1000, seed=1)
        with pytest.raises(ValueError):
            M.race_monte_carlo(0.3, -1, 1000, seed=1)
        with pytest.raises(ValueError):
            M.race_monte_carlo(0.3, 3, 0, seed=1)
        for k in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="k must"):
                M.race_monte_carlo(0.3, k, 1000, seed=1)
        # the walk's int32 deficit, plus one slab, must hold k: refused
        # before any walk starts
        for k in (2**31 - 64, 2**31, 10**400):
            with pytest.raises(ValueError, match=f"k must be at most {2**31 - 65}, got {k}$"):
                M.race_monte_carlo(0.3, k, 10, seed=1)
        # past the int-to-str digit limit the message names the type
        for args, name in [((0.3, 10**5000, 10, 0), "k"), ((0.3, 3, 10, -10**5000), "seed"),
                           ((0.6, 3, 10, 0, -10**5000), "step_cap")]:
            with pytest.raises(ValueError, match=f"^{name} must be .*, got <int too large"):
                M.race_monte_carlo(*args)
        with pytest.raises(ValueError, match="q must be a finite number"):
            M.race_monte_carlo(10**400, 3, 1000, seed=1)
        with pytest.raises(ValueError, match="trials"):
            M.race_monte_carlo(0.3, 3, 1000.5, seed=1)
        for seed in (1.5, -1):
            with pytest.raises(ValueError, match="seed"):
                M.race_monte_carlo(0.3, 3, 1000, seed=seed)
        # integral floats are whole numbers, booleans and strings are not numbers
        assert M.race_monte_carlo(0.3, 3, 1000.0, seed=1.0) == M.race_monte_carlo(0.3, 3, 1000, seed=1)
        for args, name in [((0.3, True, 1000, 1), "k"), ((0.3, 3, True, 1), "trials"),
                           ((0.3, 3, 1000, True), "seed"), ((0.6, 3, 1000, 1, True), "step_cap"),
                           ((0.3, "5", 1000, 0), "k"), ((False, 3, 1000, 1), "q"),
                           (("0.3", 3, 1000, 1), "q")]:
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                M.race_monte_carlo(*args)

    def test_majority_attacker_estimate_near_one(self):
        est = M.race_monte_carlo(0.6, 3, 50_000, seed=4)
        assert est > 0.99

    @settings(max_examples=100)
    @given(q=st.floats(0.01, 0.7), k=st.integers(1, 12), trials=st.integers(1, 3000),
           seed=st.integers(0, 2**64 - 1), extra=st.integers(0, 300),
           batch=st.sampled_from([M._BATCH, 700]), slab=st.sampled_from([M._SLAB, 21]),
           piece=st.sampled_from([M._PIECE, 5]), cpus=st.sampled_from([1, 2, 3, 5]))
    def test_equals_prefix_sum_reference(self, q, k, trials, seed, extra, batch, slab, piece,
                                         cpus):
        # A smaller batch splits the trials into several batches; a slab that
        # is not a multiple of 8 pads the last byte of every slab, not only
        # of the final one, so the pad correction shows in the deficit.  A
        # small piece draws each slab in many pieces of a few walks, joined
        # by the carry.  The CPU count sets the workers: several batches per
        # worker, and more workers than batches or cores; a short switch
        # interval interleaves the threads densely.
        floor = math.ceil(10.0 * k / (1.0 - 2.0 * q)) if q < 0.5 else 1
        step_cap = max(floor, min(300, floor + extra))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(M, "_BATCH", batch), mock.patch.object(M, "_SLAB", slab), \
                    mock.patch.object(M, "_PIECE", piece), \
                    mock.patch.object(M.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                      create=True):
                assert M.race_monte_carlo(q, k, trials, seed, step_cap) == \
                    _race_prefix_sum_reference(q, k, trials, seed, step_cap)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("q, k, estimate", [
        (0.1, 2, None),  # float32(q) lies above q
        (0.3, 3, None),  # likewise
        (1 - 2**-26, 3, 1.0),  # float32(q) is 1.0: every word lies below the limit 2**32
        (1e-46, 2, 0.0),  # float32(q) is 0: no word lies below the limit 0
    ])
    def test_float32_edges_equal_prefix_sum_reference(self, monkeypatch, q, k, estimate):
        # The reference compares float32 draws with q; the walk compares raw
        # words with an integer limit.  Batches of 699 walks run on 3
        # workers, and slabs of 21 steps leave a last span of 1 of the cap
        # 106; pieces of 5 walks then fill 105 or 5 steps, an odd length,
        # so many fills carry a half-word into the next.
        monkeypatch.setattr(M, "_BATCH", 699)
        monkeypatch.setattr(M, "_SLAB", 21)
        monkeypatch.setattr(M, "_PIECE", 5)
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        got = M.race_monte_carlo(q, k, 1501, 11, 106)
        assert got == _race_prefix_sum_reference(q, k, 1501, 11, 106)
        if estimate is not None:
            assert got == estimate

    def test_step_is_down_exactly_below_float32_q(self):
        # One walk from deficit 1: its first step is down, and the walk wins
        # at once, exactly when batch 0's first float32 draw u lies below
        # float32(q).  At seed 0, u >= 0.5 and a cap of 1 step isolates that
        # step: a q just above u rounds down onto u in float32, so the step
        # is up, where a limit taken from q itself would call it down.  At
        # seed 7, u < 0.5, where float32 spacing is half the draw grid's:
        # q = u + 2^-25 lies between grid points, so the limit must round
        # float32(q) 2^24 up to call that step down (at q = u the walk
        # never wins in its 26 steps).
        def first_draw(seed):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
            return float(rng.random(dtype=np.float32))
        u = first_draw(0)
        assert 0.5 <= u < 1 - 2**-24
        for q, estimate in [(u, 0.0), (float(np.nextafter(u, 1.0)), 0.0), (u + 2**-24, 1.0)]:
            assert M.race_monte_carlo(q, 1, 1, 0, 1) == estimate
        u = first_draw(7)
        assert 0.25 <= u < 0.5
        for q, estimate in [(u, 0.0), (u + 2**-25, 1.0)]:
            assert M.race_monte_carlo(q, 1, 1, 7, 26) == estimate == \
                _race_prefix_sum_reference(q, 1, 1, 7, 26)

    def test_cpu_count_without_affinity(self, monkeypatch):
        # Without sched_getaffinity the worker count comes from os.cpu_count.
        monkeypatch.delattr(M.os, "sched_getaffinity", raising=False)
        cpu_count = mock.Mock(return_value=3)
        monkeypatch.setattr(M.os, "cpu_count", cpu_count)
        monkeypatch.setattr(M, "_BATCH", 700)
        workers = set()
        batch = M._race_batch

        def recording_batch(*args):
            # thread objects, not idents: a finished thread's ident can be
            # reused by the next thread started
            workers.add(threading.current_thread())
            return batch(*args)

        monkeypatch.setattr(M, "_race_batch", recording_batch)
        step_cap = M.default_step_cap(0.3, 2)
        assert M.race_monte_carlo(0.3, 2, 3000, 5, step_cap) == \
            _race_prefix_sum_reference(0.3, 2, 3000, 5, step_cap)
        cpu_count.assert_called()
        assert len(workers) == 3

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_working_set_is_one_batch_per_worker(self, monkeypatch, workers):
        # each worker holds one batch of 65,536 walks: its packed slab, its
        # int32 deficits, the walk's int8 positions and lows and one
        # piece's raw draw, about 1.7 MiB in all
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: set(range(workers)),
                            raising=False)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            M.race_monte_carlo(0.45, 8, 3 * 65536, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= workers * 2 * 2**20

    def test_worker_failure_propagates(self, monkeypatch):
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(M, "_BATCH", 700)
        batch = M._race_batch

        def failing_batch(q, k, size, seed, index, *rest):
            if index == 1:
                raise RuntimeError("batch 1 failed")
            return batch(q, k, size, seed, index, *rest)

        monkeypatch.setattr(M, "_race_batch", failing_batch)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="batch 1 failed"):
            M.race_monte_carlo(0.3, 2, 3000, 5)
        assert threading.active_count() == threads


def _race_prefix_sum_reference(q, k, trials, seed, step_cap):
    """race_monte_carlo with its earlier slab kernel on one thread: the
    same batches, slabs and draws, each walk's running minimum taken by an
    int8 cumsum over its +-1 moves.  It walks every row, also those too far
    from zero to hit in the slab."""
    successes = 0
    done = 0
    batch_index = 0
    while done < trials:
        size = min(M._BATCH, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
        deficit = np.full(size, k, dtype=np.int32)
        steps_taken = 0
        while deficit.size and steps_taken < step_cap:
            span = min(M._SLAB, step_cap - steps_taken)
            down = rng.random((deficit.size, span), dtype=np.float32) < q
            moves = 1 - 2 * down.astype(np.int8)
            lows = np.cumsum(moves, axis=1, dtype=np.int8).min(axis=1)
            hit = lows <= -deficit
            successes += int(hit.sum())
            deficit += moves.sum(axis=1, dtype=np.int32)
            steps_taken += span
            deficit = deficit[~hit & (deficit <= step_cap - steps_taken)]
        done += size
        batch_index += 1
    return successes / trials


class TestForkRate:
    def test_zero_delay(self):
        tr = sim(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, stop={"blocks": 2000})
        rep = M.fork_rate(tr)
        assert rep.analytic == 0.0
        assert rep.empirical == 0.0
        assert rep.z == 0.0

    def test_underpowered_comparison_flagged(self):
        tr = sim(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, delay={"fixed": 2.0}, stop={"blocks": 2000})
        rep = M.fork_rate(tr)
        assert rep.analytic == pytest.approx(5.543e-6, rel=1e-3)
        assert rep.warning is not None and "under-powered" in rep.warning

    def test_analytic_side_is_single_source(self):
        tr = sim(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, delay={"fixed": 60.0}, stop={"blocks": 2000})
        rep = M.fork_rate(tr)
        assert rep.analytic == an.fork_probability(1 / 600, 60.0)

    def test_per_pair_labelled_conservative(self):
        tr = sim(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, delay={"per_pair": [[0.0, 30.0], [60.0, 0.0]]},
                 stop={"blocks": 500})
        rep = M.fork_rate(tr)
        assert "max pairwise delay" in rep.warning

    def test_per_pair_window_form_is_not_a_bound(self):
        # the window form is second order in lam * tau and fork episodes are
        # first order, so on per-pair delays the count lies far above it
        tr = sim(miners=two_miners(0.5), nodes=2, delay={"per_pair": [[0.0, 30.0], [60.0, 0.0]]},
                 stop={"blocks": 2000})
        rep = M.fork_rate(tr)
        assert rep.warning == ("heterogeneous delays: analytic value is the per-window form "
                               "at the max pairwise delay, not a bound")
        assert rep.analytic == an.fork_probability(1 / 600, 60.0)
        assert rep.empirical > 3 * rep.analytic and rep.z > 3


def two_miners(share):
    return [{"id": 0, "share": share}, {"id": 1, "share": 1 - share}]


# Validation grid for the per-block closed form: three share splits by
# three values of lam*tau, 20k blocks per cell, one seed per cell kept apart
# from the acceptance trace (seed 1234).
FORK_GRID = [(s, x, seed) for seed, (s, x) in enumerate(
    itertools.product((0.5, 0.8, 0.95), (0.02, 0.05, 0.1)), start=1)]


class TestForkEpisodeRate:
    @pytest.mark.parametrize("share, x, seed", FORK_GRID)
    def test_matches_simulator(self, share, x, seed):
        tr = sim(miners=two_miners(share), nodes=2, delay={"fixed": 600.0 * x},
                 stop={"blocks": 20000}, seed=seed)
        rep = M.fork_episode_rate(tr)
        assert rep.warning is None
        assert rep.analytic == an.fork_episodes_per_block(share, 1 / 600, 600.0 * x)
        assert abs(rep.z) <= 3, str(rep)

    def test_empirical_side_is_fork_rate(self):
        tr = sim(miners=two_miners(0.7), nodes=2, delay={"fixed": 30.0},
                 stop={"blocks": 3000}, seed=3)
        rep = M.fork_episode_rate(tr)
        ref = M.fork_rate(tr)
        assert rep.empirical == ref.empirical
        assert rep.n == ref.n

    @pytest.mark.parametrize("overrides, condition", [
        ({"miners": two_miners(0.5), "nodes": 2,
          "delay": {"per_pair": [[0.0, 60.0], [60.0, 0.0]]}}, "one fixed delay"),
        ({"miners": [{"id": 0, "share": 0.4}, {"id": 1, "share": 0.3}, {"id": 2, "share": 0.3}],
          "nodes": 3, "delay": {"fixed": 60.0}}, "exactly two miners"),
        ({"miners": two_miners(0.5), "nodes": 2, "delay": {"fixed": 60.0},
          "retarget_enabled": True}, "retargeting off"),
        ({"miners": two_miners(0.5), "nodes": 2, "delay": {"fixed": 60.0},
          "hashrate_steps": [[100, 2.0]]}, "constant hash rate"),
    ], ids=["per_pair", "three_miners", "retarget", "hashrate_steps"])
    def test_outside_setting_rejected(self, overrides, condition):
        tr = sim(stop={"blocks": 300}, **overrides)
        with pytest.raises(M.OutsideSetting, match=condition):
            M.fork_episode_rate(tr)

    def test_timestamp_rejections_rejected(self):
        miners = [{"id": 0, "share": 0.5, "strategy": {"fixed_skew": 8000.0}},
                  {"id": 1, "share": 0.5}]
        tr = sim(miners=miners, nodes=2, delay={"fixed": 60.0}, stop={"blocks": 300})
        assert tr.rejections
        with pytest.raises(M.OutsideSetting, match="timestamp rejections"):
            M.fork_episode_rate(tr)

    def test_lam_tau_beyond_range_rejected(self):
        tr = sim(miners=two_miners(0.5), nodes=2, delay={"fixed": 120.0},
                 stop={"blocks": 300})
        with pytest.raises(M.OutsideSetting, match=r"lam\*tau <= 0\.1"):
            M.fork_episode_rate(tr)


class TestMultiDiscoveryWindowRate:
    def test_matches_formula(self):
        tr = sim(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, delay={"fixed": 60.0}, stop={"blocks": 20000}, seed=12)
        rep = M.multi_discovery_window_rate(tr)
        assert abs(rep.z) <= 3
        assert rep.analytic == an.fork_probability(1 / 600, 60.0)

    def test_equals_dense_window_count(self):
        # counting only the occupied windows gives the float of one counter
        # per window, the mean over all nwin of them
        tr = scenario("forkrate", stop={"blocks": 2000})
        tau = tr.config.delay.max_delay()
        times = np.array([b.found_at for b in tr.blocks[1:]])
        nwin = int(times.max() // tau)
        dense = np.bincount((times[times < nwin * tau] // tau).astype(int), minlength=nwin)
        rep = M.multi_discovery_window_rate(tr)
        assert (rep.empirical, rep.n) == (float(np.mean(dense >= 2)), nwin)
        assert rep.empirical > 0


class TestHashrateInference:
    def test_recovers_true_rate(self):
        tr = sim(stop={"blocks": 2016}, seed=1)
        ests = M.hashrate_inference_windows(tr, 1008)
        assert len(ests) == 2
        for e in ests:
            assert e == pytest.approx(H600, rel=3 / math.sqrt(1008))

    def test_window_of_one_rejected(self):
        tr = sim(stop={"blocks": 100})
        with pytest.raises(ValueError):
            M.hashrate_inference_windows(tr, 1)

    def test_chain_too_short(self):
        tr = sim(stop={"blocks": 100})
        with pytest.raises(ValueError):
            M.hashrate_inference_windows(tr, 2016)

    def test_tracks_hashrate_step(self):
        tr = sim(stop={"blocks": 4032}, seed=5, hashrate_steps=[[2016, 2.0]])
        ests = M.hashrate_inference_windows(tr, 2016)
        assert ests[0] == pytest.approx(H600, rel=0.05)
        assert ests[1] == pytest.approx(2 * H600, rel=0.05)


class TestReorgHistogram:
    def test_zero_delay_empty(self):
        tr = sim(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, stop={"blocks": 2000})
        assert M.reorg_depth_histogram(tr) == {}

    def test_fig2_single_depth_one(self):
        from importlib import resources
        tr = run(SimConfig.from_json(str(resources.files("blocktime") / "scenarios" / "fig2.json")))
        assert M.reorg_depth_histogram(tr) == {1: 1}

    def test_depths_nonincreasing_in_moderate_run(self):
        tr = sim(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, delay={"fixed": 60.0}, stop={"blocks": 20000}, seed=12)
        hist = M.reorg_depth_histogram(tr)
        assert hist
        depths = sorted(hist)
        counts = [hist[d] for d in depths]
        assert counts == sorted(counts, reverse=True)


class TestTraceReports:
    def test_rows_whose_setting_holds(self):
        tr = sim(miners=two_miners(0.5), nodes=2, delay={"fixed": 30.0},
                 stop={"blocks": 300}, seed=3)
        assert M.trace_reports(tr) == [
            M.fork_rate(tr), M.fork_episode_rate(tr), M.multi_discovery_window_rate(tr),
            M.tail_frequency(tr.canonical_deltas(), M.TAIL_THRESHOLD)]

    def test_one_miner_writes_no_fork_row(self):
        # one miner never forks, so neither fork row is compared, though the
        # delay is positive; its discovery process still fills the window row
        tr = sim(nodes=2, delay={"fixed": 60.0}, stop={"blocks": 3000}, seed=1)
        assert M.trace_reports(tr) == [
            M.multi_discovery_window_rate(tr),
            M.tail_frequency(tr.canonical_deltas(), M.TAIL_THRESHOLD),
            *M.exponentiality_reports(tr)]
        for comparator in (M.fork_rate, M.fork_episode_rate):
            with pytest.raises(M.OutsideSetting):
                comparator(tr)

    def test_unread_diagonal_is_no_delay(self):
        # a node never sends to itself, so a per-pair matrix that is zero
        # off its diagonal gives the zero-delay trace and the same table
        kw = dict(miners=two_miners(0.5), nodes=2, stop={"blocks": 3000}, seed=3)
        diagonal = sim(delay={"per_pair": [[30.0, 0.0], [0.0, 30.0]]}, **kw)
        zero = sim(**kw)
        assert diagonal.config.delay.max_delay() == 0.0
        assert dataclasses.replace(diagonal, config=zero.config) == zero
        assert M.trace_reports(diagonal) == M.trace_reports(zero)

    def test_other_errors_propagate(self, monkeypatch):
        def broken(trace):
            raise ValueError("comparator fault")
        monkeypatch.setattr(M, "multi_discovery_window_rate", broken)
        tr = sim(miners=two_miners(0.5), nodes=2, delay={"fixed": 30.0}, stop={"blocks": 300})
        with pytest.raises(ValueError, match="comparator fault"):
            M.trace_reports(tr)


def scenario(name, **overrides):
    d = json.loads((resources.files("blocktime") / "scenarios" / f"{name}.json").read_text())
    return run(SimConfig.from_dict({**d, **overrides}))


class IntervalTrace:
    """Stands in for a one-miner, constant-rate trace whose canonical
    intervals are `deltas`."""

    config = SimConfig.from_dict({"miners": [{"id": 0, "share": 1.0}], "delay": {"fixed": 0.0},
                                  "initial_difficulty": 1.0, "nominal_hashrate": H600,
                                  "stop": {"blocks": 1}, "seed": 0, "retarget_enabled": False})
    rejections = ()

    def __init__(self, deltas):
        self.deltas = np.asarray(deltas, dtype=float)

    def canonical_deltas(self):
        return self.deltas


class TestExponentialityReports:
    def test_rows_on_baseline(self):
        tr = scenario("baseline")
        res = M.exponentiality_diagnostic(tr.canonical_deltas())
        reports = M.trace_reports(tr)
        assert [r.quantity for r in reports] == [
            "tail_frequency", "exponentiality_ks", "exponentiality_lag1"]
        ks, lag = reports[1:]
        assert (ks.analytic, ks.empirical, ks.n) == (0.0, res.statistic, res.n)
        assert (lag.analytic, lag.empirical, lag.n) == (0.0, res.lag1_autocorr, res.n)
        assert ks.stderr == pytest.approx(res.critical / 3)
        assert lag.stderr == pytest.approx(1 / math.sqrt(res.n))
        assert lag.z == pytest.approx(res.lag1_autocorr * math.sqrt(res.n))
        assert abs(ks.z) < 3 and abs(lag.z) < 3

    def test_cannot_fork_without_delay(self):
        tr = sim(miners=two_miners(0.5), nodes=2, stop={"blocks": 200})
        assert [r.quantity for r in M.exponentiality_reports(tr)] == [
            "exponentiality_ks", "exponentiality_lag1"]

    @pytest.mark.parametrize("trace, condition", [
        (lambda: scenario("retarget"), "retargeting off"),
        (lambda: scenario("forkrate", stop={"blocks": 2000}), "one miner, or zero delay"),
        (lambda: sim(hashrate_steps=[[100, 2.0]]), "constant hash rate"),
        (lambda: sim(stop={"blocks": 99}), "at least 100 intervals"),
    ], ids=["retarget", "forkrate-2000", "hashrate-steps", "short"])
    def test_outside_setting_rejected(self, trace, condition):
        with pytest.raises(M.OutsideSetting, match=condition):
            M.exponentiality_reports(trace())

    @pytest.mark.parametrize("sample", [
        np.random.default_rng(3).exponential(600.0, size=10_000),
        np.random.default_rng(3).uniform(1.0, 2.0, size=10_000),
        [600.0] * 200,
        np.sort(np.random.default_rng(4).exponential(600.0, size=1_000)),
        [1.0, 1000.0] * 100,
    ], ids=["exponential", "uniform", "constant", "sorted-exponential", "alternating"])
    def test_z_gate_is_the_diagnostic_verdict(self, sample):
        res = M.exponentiality_diagnostic(sample)
        ks, lag = M.exponentiality_reports(IntervalTrace(sample))
        assert (ks.z >= 3) == (not res.passed)
        assert (abs(lag.z) >= 3) == (abs(res.lag1_autocorr) >= res.lag1_bound)


class TestReportsOutput:
    def test_csv_fields(self, tmp_path):
        rng = np.random.default_rng(7)
        deltas = rng.exponential(600.0, size=10_000)
        reports = [M.tail_frequency(deltas, 600.0)]
        path = tmp_path / "reports.csv"
        M.write_reports_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["quantity", "analytic", "empirical", "n", "stderr", "z"]
        assert path.read_bytes().startswith(b"quantity,analytic,empirical,n,stderr,z\n")
        assert rows[0]["quantity"] == "tail_frequency"
        assert float(rows[0]["analytic"]) == reports[0].analytic

    def test_report_str_mentions_warning(self):
        rep = M.ComparisonReport("x", 0.5, 0.4, 10, 0.1, -1.0, warning="under-powered: demo")
        assert "under-powered" in str(rep)


def _hit_within(q, k, steps):
    """The exact chance that the race walk from deficit k reaches 0 within
    `steps` steps, by a dynamic program over the deficit: alive[d] is the
    chance of standing at d >= 1 without having reached 0."""
    alive = np.zeros(k + steps + 2)
    alive[k] = 1.0
    hit = 0.0
    for _ in range(steps):
        hit += q * alive[1]
        alive[1:-1] = q * alive[2:] + (1 - q) * alive[:-2]
    return hit


def test_hit_within_reference_is_the_first_passage_sum():
    # from k = 1 the walk first reaches 0 at step 2n + 1 with chance
    # C(2n, n) / (n + 1) q^(n+1) p^n (a Catalan number of paths)
    q = 0.45
    direct = sum(math.comb(2 * n, n) / (n + 1) * q ** (n + 1) * (1 - q) ** n for n in range(50))
    assert _hit_within(q, 1, 100) == pytest.approx(direct, rel=1e-12)


def test_default_cap_truncation_bias_as_documented():
    """The first-passage mass beyond default_step_cap on criterion 3's 40
    cells, in standard deviations of a million-trial estimate: the figures
    that default_step_cap's docstring and the README state."""
    bias = {}
    for q in (0.05, 0.1, 0.2, 0.3, 0.45):
        for k in range(1, 9):
            cf = an.catchup_probability(q, k)
            tail = cf - _hit_within(q, k, M.default_step_cap(q, k))
            bias[q, k] = tail / math.sqrt(cf * (1 - cf) / 1_000_000)
    assert round(max(b for (q, _), b in bias.items() if q <= 0.3), 4) == 0.0022
    near = {k: bias[0.45, k] for k in range(1, 9)}
    assert round(near[1], 2) == 0.45
    assert (min(near, key=near.get), round(min(near.values()), 2)) == (8, 0.41)
    assert (max(near, key=near.get), round(max(near.values()), 2)) == (6, 1.30)
