"""Estimators and Monte Carlo oracles that confront simulation traces with
the closed forms in `analytic`.

Every comparison lands in a ComparisonReport carrying the analytic value,
the empirical value, the sample size, a standard error (for the KS row, a
scale) and the resulting z-score.  Comparisons whose expected event count
is below 10 are flagged as under-powered instead of being treated as
pass/fail evidence.  All estimators are pure over immutable traces.

`trace_reports` is the comparison table; it leaves out a row only when its
comparator raises OutsideSetting (trace outside its setting, or too short).
"""

import math
import os
import threading
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .analytic import (
    FORK_EPISODES_MAX_LAMTAU,
    bernoulli_entropy,
    catchup_setting,
    discovery_cdf,
    entropy_peak_time,
    fork_episodes_per_block,
    fork_probability,
    infer_hashrate,
    interval_tail_probability,
    theta_from_difficulty,
)
from .chain import spell, whole_number, write_table
from .sim import SimTrace

UNDERPOWERED_EVENTS = 10

# Asymptotic one-sample Kolmogorov-Smirnov critical value at alpha ~= 0.01;
# honest only for large n, hence the n >= 100 floor on the diagnostic.
KS_CRITICAL_COEFF = 1.63

TAIL_THRESHOLD = 6360.0  # tail-row threshold: 106 min, 10.6 target spacings (criterion 2)


class OutsideSetting(ValueError):
    """A trace outside a closed form's setting, or too short; names the condition."""


def _require(holds: bool, condition: str) -> None:
    if not holds:
        raise OutsideSetting(condition)


@dataclass
class ComparisonReport:
    quantity: str
    analytic: float
    empirical: float
    n: int
    stderr: float
    z: float
    warning: Optional[str] = None

    def __str__(self) -> str:
        s = (f"{self.quantity}: analytic={self.analytic:.6g} "
             f"empirical={self.empirical:.6g} n={self.n} "
             f"stderr={self.stderr:.3g} z={self.z:+.2f}")
        if self.warning:
            s += f"  [{self.warning}]"
        return s


def binomial_report(quantity: str, analytic: float, empirical: float, n: int,
                    warning: Optional[str] = None) -> ComparisonReport:
    stderr = math.sqrt(analytic * (1.0 - analytic) / n) if n > 0 else 0.0
    if stderr > 0:
        z = (empirical - analytic) / stderr
    else:
        z = 0.0 if empirical == analytic else math.inf
    expected = analytic * n
    if warning is None and expected < UNDERPOWERED_EVENTS:
        warning = f"under-powered: expected events {expected:.2f} < {UNDERPOWERED_EVENTS}"
    return ComparisonReport(quantity, analytic, empirical, n, stderr, z, warning)


def _as_deltas(sample: Sequence[float], at_least: int) -> np.ndarray:
    deltas = np.asarray(sample, dtype=float)
    if deltas.ndim != 1 or np.any(deltas <= 0):
        raise ValueError("sample must be a 1-d sequence of positive intervals")
    _require(deltas.size >= at_least, f"need at least {at_least} intervals, got {deltas.size}")
    return deltas


def estimate_lambda(sample: Sequence[float]) -> float:
    """Maximum-likelihood arrival rate for exponential intervals: n / sum."""
    deltas = _as_deltas(sample, 2)
    return deltas.size / float(deltas.sum())


def hashrate_inference_windows(trace: SimTrace, window: int) -> list[float]:
    """Inferred aggregate hash rate over disjoint windows of `window`
    canonical blocks each (rate MLE fed through the difficulty relation).

    The n / sum rate MLE over n exponential intervals has mean
    lambda * n / (n - 1), so each estimate runs high by 1 / (n - 1):
    +0.05% at n = 2016, +0.1% at n = 1008.  That is far below the
    estimate's own sampling error of about 1 / sqrt(n) (2.2% and 3.1%), so
    the bias is not corrected.
    """
    if window < 2:
        raise ValueError("window must cover at least 2 blocks")
    deltas = trace.canonical_deltas()
    if deltas.size < window:
        raise ValueError(f"canonical chain too short for window={window}")
    out = []
    for i in range(deltas.size // window):
        chunk = deltas[i * window:(i + 1) * window]
        diffs = [b.difficulty for b in trace.canonical[i * window + 1:(i + 1) * window + 1]]
        out.append(infer_hashrate(estimate_lambda(chunk), float(np.mean(diffs))))
    return out


def _nominal_rate(cfg) -> float:
    return cfg.nominal_hashrate * theta_from_difficulty(cfg.initial_difficulty)


def _require_constant_rate(cfg, form: str) -> None:
    _require(not cfg.retarget_enabled, f"{form} needs retargeting off")
    _require(not cfg.hashrate_steps, f"{form} needs a constant hash rate")


def _propagation_window(trace: SimTrace) -> float:
    tau = trace.config.delay.max_delay()
    _require(tau > 0, "fork rows need a positive propagation delay")
    return tau


def _episodes_per_block(trace: SimTrace) -> tuple[float, int]:
    """Fork episodes per canonical block, and the canonical height."""
    _require(len(trace.config.miners) >= 2, "fork rows need at least two miners")
    n = trace.canonical_height()
    _require(n >= 1, "trace has no canonical blocks")
    return len(trace.fork_episodes) / n, n


def fork_rate(trace: SimTrace) -> ComparisonReport:
    """Observed fork episodes per canonical block against the two-or-more
    discoveries-per-window form evaluated at the configured arrival rate
    and the largest pairwise delay."""
    empirical, n = _episodes_per_block(trace)
    cfg = trace.config
    analytic = fork_probability(_nominal_rate(cfg), cfg.delay.max_delay())
    warning = None
    if cfg.delay.per_pair is not None:
        warning = ("heterogeneous delays: analytic value is the per-window form at the max "
                   "pairwise delay, not a bound")
    return binomial_report("fork_rate", analytic, empirical, n, warning)


def fork_episode_rate(trace: SimTrace) -> ComparisonReport:
    """Observed fork episodes per canonical block against the per-block
    closed form fork_episodes_per_block.

    The empirical side and n are those of fork_rate; only the analytic
    side differs.  The closed form is derived for two miners on one fixed
    delay at a constant rate, so a trace from any other setting (miner
    count other than two, per-pair delays, retargeting, hash-rate steps,
    any timestamp rejection, lam*tau above FORK_EPISODES_MAX_LAMTAU)
    raises OutsideSetting rather than being compared.
    """
    cfg = trace.config
    _require(len(cfg.miners) == 2, "per-block fork form needs exactly two miners")
    tau = cfg.delay.fixed
    _require(tau is not None, "per-block fork form needs one fixed delay, not per-pair")
    _require_constant_rate(cfg, "per-block fork form")
    _require(not trace.rejections, "per-block fork form does not cover timestamp rejections")
    lam = _nominal_rate(cfg)
    _require(lam * tau <= FORK_EPISODES_MAX_LAMTAU,
             f"per-block fork form needs lam*tau <= {FORK_EPISODES_MAX_LAMTAU}")
    empirical, n = _episodes_per_block(trace)
    analytic = fork_episodes_per_block(cfg.miners[0].share, lam, tau)
    return binomial_report("fork_episode_rate", analytic, empirical, n)


def multi_discovery_window_rate(trace: SimTrace) -> ComparisonReport:
    """Fraction of consecutive propagation windows holding two or more
    discoveries (stale blocks included), against the same closed form.

    This measures exactly what the closed form states: the chance that a
    window of length tau, the largest pairwise delay, contains >= 2
    arrivals of the full discovery process.  Compare with fork_rate, which
    normalizes episodes per block.
    """
    tau = _propagation_window(trace)
    times = np.array([b.found_at for b in trace.blocks[1:]])
    nwin = int(times.max() // tau) if times.size else 0
    _require(nwin >= 1, "trace too short to tile even one window")
    # only occupied windows are counted, so memory follows the blocks, not nwin
    _, counts = np.unique(times[times < nwin * tau] // tau, return_counts=True)
    empirical = int(np.count_nonzero(counts >= 2)) / nwin
    return binomial_report("multi_discovery_window_rate",
                           fork_probability(_nominal_rate(trace.config), tau), empirical, nwin)


def tail_frequency(sample: Sequence[float], threshold: float) -> ComparisonReport:
    """Observed exceedance fraction of intervals beyond `threshold` against
    the exponential survival function at the estimated rate."""
    deltas = _as_deltas(sample, 2)
    lam_hat = estimate_lambda(deltas)
    analytic = interval_tail_probability(lam_hat, threshold)
    empirical = float(np.mean(deltas > threshold))
    return binomial_report("tail_frequency", analytic, empirical, int(deltas.size))


@dataclass
class ExponentialityResult:
    n: int
    statistic: float       # one-sample KS distance against Exp(lambda-hat)
    critical: float        # 1.63 / sqrt(n)
    passed: bool
    lag1_autocorr: float
    lag1_bound: float      # 3 / sqrt(n) null band


def exponentiality_diagnostic(sample: Sequence[float]) -> ExponentialityResult:
    """Kolmogorov-Smirnov goodness of fit of intervals to the exponential
    distribution at the MLE rate, plus the lag-1 autocorrelation."""
    deltas = _as_deltas(sample, 100)
    n = int(deltas.size)
    lam_hat = estimate_lambda(deltas)
    cdf = -np.expm1(-lam_hat * np.sort(deltas))
    i = np.arange(1, n + 1)
    ks = float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))
    critical = KS_CRITICAL_COEFF / math.sqrt(n)
    centered = deltas - deltas.mean()
    denom = float((centered ** 2).sum())
    lag1 = float((centered[:-1] * centered[1:]).sum() / denom) if denom > 0 else 0.0
    return ExponentialityResult(
        n=n,
        statistic=ks,
        critical=critical,
        passed=ks < critical,
        lag1_autocorr=lag1,
        lag1_bound=3.0 / math.sqrt(n),
    )


def exponentiality_reports(trace: SimTrace) -> list[ComparisonReport]:
    """The exponentiality diagnostic of the canonical intervals as two rows
    against analytic 0: the KS distance and the lag-1 autocorrelation.  Each
    stderr is a third of the critical value or null band (for the KS row a
    scale, not a standard error), so |z| >= 3 exactly when either fails.
    Intervals are iid exponential only at a constant rate on a chain that
    cannot fork; any other trace, or one under 100 intervals, raises OutsideSetting."""
    cfg = trace.config
    _require_constant_rate(cfg, "exponentiality rows")
    _require(len(cfg.miners) == 1 or (cfg.delay.max_delay() == 0 and not trace.rejections),
             "exponentiality rows need one miner, or zero delay and no timestamp rejection")
    res = exponentiality_diagnostic(trace.canonical_deltas())
    return [ComparisonReport("exponentiality_ks", 0.0, res.statistic, res.n,
                             res.critical / 3, 3 * (res.statistic / res.critical)),
            ComparisonReport("exponentiality_lag1", 0.0, res.lag1_autocorr, res.n,
                             res.lag1_bound / 3, 3 * (res.lag1_autocorr / res.lag1_bound))]


def entropy_trajectory(lam: float, grid_step: float, horizon: float) -> list[tuple[float, float, float]]:
    """Sampled (t, p(t), entropy bits) curve on a regular grid.

    The exact peak instant ln(2)/lam is spliced into the grid when it falls
    inside the horizon, so the returned curve always contains its 1.0-bit
    maximum.
    """
    if grid_step <= 0 or horizon <= 0:
        raise ValueError("grid_step and horizon must be positive")
    ts = [i * grid_step for i in range(int(horizon / grid_step) + 1)]
    peak = entropy_peak_time(lam)
    if peak <= horizon and peak not in ts:
        ts.append(peak)
        ts.sort()
    out = []
    for t in ts:
        p = discovery_cdf(lam, t)
        out.append((t, p, bernoulli_entropy(p)))
    return out


def _step_floor(q: float, k: int) -> int:
    """The smallest step cap the race takes: at q < 0.5 ten times k/(1-2q),
    the mean steps in which a walk that catches up erases k (a rule of
    thumb, not a bound on the truncation bias: see default_step_cap)."""
    return max(1, math.ceil(10.0 * k / (1.0 - 2.0 * q))) if q < 0.5 else 1


def default_step_cap(q: float, k: int) -> int:
    """Step budget of the race walk at k >= 1: for q < 0.5 the largest of
    100, _step_floor and the settle term 12 / ((1-2q) ln(p/q)), for
    q >= 0.5 the larger of 10,000 and 100 k.  The estimate runs low by the
    first-passage mass beyond the cap C, which decays like (4pq)^(C/2)
    C^(-3/2) (Feller, vol. 1, ch. XIV): 3.2 to 4 times slower in the
    exponent than the (q/p)^((1-2q)C) the settle term assumes, at q from
    0.05 to 0.45.  On criterion 3's cells that mass is at most 0.0022 sigma
    of a million-trial estimate for q <= 0.3, but 0.41 sigma (k = 8, cap
    801) to 1.30 sigma (k = 6, cap 601) at q = 0.45 (0.45 sigma at k = 1)."""
    if k == 0:
        return 1
    if q >= 0.5:
        return max(10_000, 100 * k)
    settle = 12.0 / ((1.0 - 2.0 * q) * math.log((1.0 - q) / q)) if q > 0 else 0.0
    return max(100, _step_floor(q, k), math.ceil(settle))


_BATCH = 1 << 16
_SLAB = 64
_PIECE = 1 << 10  # walks per raw draw: up to 1,024 x _SLAB words, 256 KB
_K_MAX = int(np.iinfo(np.int32).max) - _SLAB
# A slab's steps are packed 8 to a byte, first step in the high bit, a set
# bit for a down-step (-1) and a clear bit for an up-step (+1).  For every
# byte value, _NET is the net move of its 8 steps and _LOW the lowest of
# their 8 partial sums.  A short last byte is padded with clear bits, up-steps
# that cannot lower the minimum; the position is corrected by their count.
_PATHS = np.cumsum(
    1 - 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int8),
    axis=1, dtype=np.int8)
_NET = _PATHS[:, -1].copy()
_LOW = _PATHS.min(axis=1)


def race_monte_carlo(q: float, k: int, trials: int, seed: int,
                     step_cap: Optional[int] = None) -> float:
    """Brute-force the catch-up race: a deficit starts at k and steps -1
    with probability q (attacker block) or +1 with probability 1-q, until
    it hits 0 (success) or `step_cap` steps (default_step_cap by default)
    run out (failure).  Every input is checked before any walk.

    Batch b of up to _BATCH walks draws from SeedSequence(seed,
    spawn_key=(b,)); the batches run on one thread per usable CPU (worker w
    takes batches w, w + W, ...; see the README's race notes), and their
    success counts are summed as integers, so the estimate is the same bit
    for bit whatever the worker count.  A worker holds one batch's working
    set at a time, so memory grows with the worker count.  A worker's
    exception is raised here once every thread has joined.  The walks
    advance in slabs of up to _SLAB steps, walked 8 steps at a time
    through _NET and _LOW; a walk succeeded iff its running minimum erased
    the deficit, and one whose deficit exceeds its remaining budget is
    failed early: it cannot win.

    A step is one 32-bit word w of the batch's PCG64 stream, read from
    each 64-bit output low half first, and it is down where w < limit =
    ceil(float32(q) 2^24) 2^8.  Generator.random(dtype=float32) turns w
    into u = (w >> 8) 2^-24 and u < q compares in float32, so this is
    exactly where that draw is below q: the estimate is the float32
    draw's, bit for bit.  A fill of odd length leaves the high half of its
    last output unread; it is carried into the next fill, as the
    generator's own buffer carries it.
    """
    q, k = catchup_setting(q, k)
    # the deficit is int32, and one slab can add _SLAB to it
    if k > _K_MAX:
        raise ValueError(f"k must be at most {_K_MAX}, got {spell(k)}")
    trials = whole_number(trials, "trials", 1)
    seed = whole_number(seed, "seed", 0)
    step_cap = whole_number(default_step_cap(q, k) if step_cap is None else step_cap,
                            "step_cap", _step_floor(q, k))
    if k == 0:
        return 1.0
    if q == 0.0:
        return 0.0

    batches = -(-trials // _BATCH)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, batches)
    counts = [0] * workers
    errors: list = [None] * workers

    def work(w: int) -> None:
        try:
            for b in range(w, batches, workers):
                counts[w] += _race_batch(q, k, min(_BATCH, trials - b * _BATCH), seed, b,
                                         step_cap)
        except BaseException as exc:  # re-raised on the calling thread
            errors[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            threads.append(threading.Thread(target=work, args=(w,)))
            threads[-1].start()
        work(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return sum(counts) / trials


def _race_batch(q: float, k: int, size: int, seed: int, index: int, step_cap: int) -> int:
    """Successes among batch `index`'s `size` walks (see race_monte_carlo).

    Each slab's steps are drawn in pieces of _PIECE walks, one raw draw
    each, and packed into one (walks, bytes) array that is then walked
    once.  The pieces fill in walk order from the batch's one stream, and
    the carry joins consecutive fills, so the steps are those of one
    whole-slab fill.
    """
    bits = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    limit = math.ceil(float(np.float32(q)) * 2**24) * 2**8  # up to 2^32: every word is down
    carry = None

    def fill(n: int) -> np.ndarray:
        nonlocal carry
        down = np.empty(n, dtype=bool)
        head = 0 if carry is None else 1
        if head:
            down[0] = carry < limit
        # little-endian words put each output's low half first
        words = bits.random_raw((n - head + 1) // 2).astype("<u8", copy=False).view("<u4")
        np.less(words[:n - head], limit, out=down[head:])
        carry = int(words[-1]) if words.size > n - head else None
        return down

    deficit = np.full(size, k, dtype=np.int32)
    successes = 0
    steps_taken = 0
    while deficit.size and steps_taken < step_cap:
        span = min(_SLAB, step_cap - steps_taken)
        steps_taken += span
        packed = np.empty((deficit.size, -(-span // 8)), dtype=np.uint8)
        for start in range(0, deficit.size, _PIECE):
            n = min(_PIECE, deficit.size - start)
            packed[start:start + n] = np.packbits(fill(n * span).reshape(n, span), axis=1)
        # positions and lows stay within +-_SLAB, so int8 holds them
        pos = np.zeros(deficit.size, dtype=np.int8)
        low = np.full(deficit.size, _SLAB, dtype=np.int8)
        for byte in packed.T:
            np.minimum(low, pos + np.take(_LOW, byte), out=low)
            pos += np.take(_NET, byte)
        hit = low <= -deficit
        successes += int(hit.sum())
        deficit += pos - (-span % 8)  # less the pad bits' up-steps
        deficit = deficit[~hit & (deficit <= step_cap - steps_taken)]
    return successes


def reorg_depth_histogram(trace: SimTrace) -> dict[int, int]:
    """Tip-change counts keyed by reorg depth; plain extensions (depth 0)
    are excluded."""
    hist = Counter(trace.tip_events.reorg_depth)
    hist.pop(0, None)
    return dict(sorted(hist.items()))


def trace_reports(trace: SimTrace) -> list[ComparisonReport]:
    """Every closed form confronted with `trace`, in reports.csv order, less
    the rows whose comparator raises OutsideSetting."""
    def fork_row(comparator):  # every fork row needs a positive delay
        _propagation_window(trace)
        return comparator(trace)
    reports = []
    for compare, *args in ((fork_row, fork_rate), (fork_row, fork_episode_rate),
                           (multi_discovery_window_rate, trace),
                           (tail_frequency, trace.canonical_deltas(), TAIL_THRESHOLD)):
        with suppress(OutsideSetting):
            reports.append(compare(*args))
    with suppress(OutsideSetting):
        reports += exponentiality_reports(trace)
    return reports


REPORT_FIELDS = tuple(f.name for f in fields(ComparisonReport) if f.name != "warning")


def write_reports(reports: Sequence[ComparisonReport], path, fmt: str = "csv") -> None:
    """The comparison table in `fmt` (csv or json): one row per report."""
    write_table(path, REPORT_FIELDS, [[getattr(r, f) for f in REPORT_FIELDS] for r in reports], fmt)


write_reports_csv = write_reports  # the name perfbench calls, for CSV
