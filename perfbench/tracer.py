"""Outside-in span tracing of the blocktime public API.

The library source is not edited: `install` rebinds each traced function,
in every blocktime module that holds a reference to it, to a wrapper that
records one span per call.  Both bindings matter: `blocktime.sim` imports
`median_past_time`, `validate_timestamp`, `retarget` and
`theta_from_difficulty` by name, and `validate_timestamp` calls
`median_past_time` through `blocktime.chain`, so patching only one module
would miss either the engine's direct calls or the nested ones.

While tracing, each call appends three entries to one flat list: its name
and start time on entry and its end time on exit.  That is about the least
a wrapper can do per call, and none of it is an object the garbage
collector tracks: a tuple per call would be, and the extra collections it
set off cost more than the wrapper itself.  `Tracer.take` rebuilds the
spans (name, start, end, parent index) from the log afterwards, outside
the timed work.

Self time is a span's duration minus the durations of its direct children;
calls on one thread nest, so children never overlap.  The wrapper's own
work lands partly inside the callee's span and partly, around it, in the
caller's self time.  `call_cost` measures both parts on an empty function
and `aggregate` subtracts them, so self times estimate the untraced program
rather than the tracer.  What the empty-function measurement does not
capture (calls forwarded through the wrapper cost more inside the real
program than in a tight loop) remains, and `residual` in workloads.py
reports it.
"""

import functools
import math
import time
from collections import defaultdict

import blocktime
from blocktime import analytic, chain, cli, metrics, sim

MODULES = (blocktime, analytic, chain, sim, metrics, cli)

# (span name, owner, attribute, label) -- label(args, kwargs) returns a
# suffix appended to the span name, or None for no suffix.
TARGETS = (
    ("sim.run", sim, "run", None),
    ("sim.SimTrace.write_csvs", sim.SimTrace, "write_csvs",
     lambda a, kw: kw.get("fmt", a[2] if len(a) > 2 else "csv")),
    ("chain.ChainStore.insert", chain.ChainStore, "insert", None),
    ("chain.ChainStore.fork_point", chain.ChainStore, "fork_point", None),
    ("chain.validate_timestamp", chain, "validate_timestamp", None),
    ("chain.median_past_time", chain, "median_past_time", None),
    ("chain.retarget", chain, "retarget", None),
    ("analytic.theta_from_difficulty", analytic, "theta_from_difficulty", None),
    ("metrics.race_monte_carlo", metrics, "race_monte_carlo",
     lambda a, kw: f"q{kw.get('q', a[0] if a else None)!r}"),
    ("metrics.fork_rate", metrics, "fork_rate", None),
    ("metrics.multi_discovery_window_rate", metrics, "multi_discovery_window_rate", None),
    ("metrics.tail_frequency", metrics, "tail_frequency", None),
    ("metrics.exponentiality_diagnostic", metrics, "exponentiality_diagnostic", None),
)

REPORT_SPANS = (
    "metrics.fork_rate",
    "metrics.multi_discovery_window_rate",
    "metrics.tail_frequency",
    "metrics.exponentiality_diagnostic",
)


class Tracer:
    """Records spans from the wrappers it installs; single-threaded."""

    def __init__(self):
        self.log: list = []
        self._restore: list = []

    def _wrap(self, name, fn, label):
        add, clock = self.log.append, time.perf_counter

        if label is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                add(name)
                add(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    add(clock())
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                add(f"{name}.{label(args, kwargs)}")
                add(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    add(clock())
        return wrapper

    def install(self) -> None:
        """Rebind every traced name in every blocktime module that holds it."""
        for name, owner, attr, label in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, label)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        for fn in ("validate_timestamp", "median_past_time", "retarget", "theta_from_difficulty"):
            if not hasattr(getattr(sim, fn), "__wrapped__"):
                raise RuntimeError(f"blocktime.sim.{fn} was not wrapped")
        for fn in ("median_past_time", "validate_timestamp", "retarget"):
            if not hasattr(getattr(chain, fn), "__wrapped__"):
                raise RuntimeError(f"blocktime.chain.{fn} was not wrapped")

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def take(self) -> tuple:
        """Rebuild the spans logged so far as four lists (names, starts,
        ends, parent indexes, -1 for none) and start a fresh log."""
        names, starts, ends, parents = [], [], [], []
        stack = [-1]
        log = iter(self.log)
        for entry in log:
            if type(entry) is str:
                stack.append(len(names))
                parents.append(stack[-2])
                names.append(entry)
                starts.append(next(log))
                ends.append(None)
            else:
                ends[stack.pop()] = entry
        self.log.clear()
        if len(stack) != 1:
            raise RuntimeError("spans taken while a traced call is still open")
        return names, starts, ends, parents


# call_cost times this many calls of each loop, fastest of COST_REPEATS:
# about 0.05 s in all on a 2-core Xeon VM, so it can run after every pass.
COST_CALLS = 20_000
COST_REPEATS = 3


def _empty(a, b):
    return None


def call_cost() -> tuple[float, float]:
    """Per-call seconds the wrapper adds, measured on an empty two-argument
    function: (inside, outside).  `inside` is the part that falls within
    the callee's own span, `outside` the part around it that falls in the
    caller's self time.  Together they are the wrapped call's time minus
    the bare call's; the cost of calling the function itself stays with the
    callee.  Fastest of a few repeats of each loop."""
    tr = Tracer()
    wrapped = tr._wrap("empty", _empty, None)
    loop = bare = whole = inside = math.inf
    r = range(COST_CALLS)
    for _ in range(COST_REPEATS):
        t0 = time.perf_counter()
        for _ in r:
            pass
        t1 = time.perf_counter()
        for _ in r:
            _empty(1, 2)
        t2 = time.perf_counter()
        for _ in r:
            wrapped(1, 2)
        t3 = time.perf_counter()
        _, starts, ends, _ = tr.take()
        loop, bare, whole = min(loop, t1 - t0), min(bare, t2 - t1), min(whole, t3 - t2)
        inside = min(inside, math.fsum(ends) - math.fsum(starts))
    cost_in = (inside - (bare - loop)) / COST_CALLS
    cost_out = (whole - loop - inside) / COST_CALLS
    return cost_in, cost_out


def aggregate(spans: tuple, cost: tuple[float, float]) -> tuple[dict, dict, int]:
    """Per-name call counts and self seconds, plus the number of
    `theta_from_difficulty` calls made directly by `sim.run` (one per
    discovery drawn).  Self seconds have the tracer's own cost, `cost` as
    `call_cost` returns it, taken out: `inside` once per span and `outside`
    once per direct child."""
    names, starts, ends, parents = spans
    cost_in, cost_out = cost
    n = len(names)
    child = [0.0] * n
    kids = [0] * n
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            child[parent] += end - start
            kids[parent] += 1
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    draws = 0
    for i, name in enumerate(names):
        calls[name] += 1
        self_s[name] += ends[i] - starts[i] - child[i] - cost_in - kids[i] * cost_out
        parent = parents[i]
        if name == "analytic.theta_from_difficulty" and parent >= 0 and names[parent] == "sim.run":
            draws += 1
    return dict(calls), dict(self_s), draws


def write_spans(spans: tuple, path: str) -> None:
    """One CSV line per span: index, name, start, end, parent index."""
    with open(path, "w") as fh:
        fh.write("index,name,start,end,parent\n")
        for i, (name, start, end, parent) in enumerate(zip(*spans)):
            fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
