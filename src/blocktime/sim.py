"""Deterministic discrete-event simulator of competing block producers.

Miners generate blocks as exponential processes whose rates follow their
hash-rate share and the difficulty prescribed by their current tip.  Every
found block carries its height and cumulative work, sealed from its
parent's, and goes once into the one ChainStore the whole network shares,
which checks both and fixes its median-past-time; a retarget boundary
block's successor difficulty is recorded right then.  The block then
propagates to every other node with configurable delay.  A node is a
TipView of that store plus a clock offset and its pending orphans: it
validates timestamps against its own (possibly skewed) clock and accepts
the block, which moves its tip by the tip rule.  Miner i mines on node i,
stamps each block with that node's clock plus its own skew (clamped up to
median-past-time + 1), and redraws its next discovery whenever that
node's tip moves, which by memorylessness is distributionally identical
to continuing the pending draw; a discovery drawn on a tip its miner has
since left is stale.  Both stop rules end through one drain: past the
stop duration, or once node 0 reaches the stop height, no discovery
happens and no miner redraws, and every block in flight is delivered.
The engine only records the run; the trace derives its fork episodes and
clock advisories from those records and the config.

A run is a pure function of (config, seed): one RNG stream is consumed in
event order and event ties are broken by a global sequence number, so two
runs with the same inputs produce bit-identical traces.  The stream is
read _DRAWS standard exponentials at a time and each draw is scaled by
1/rate, which is the float `Generator.exponential(1/rate)` returns from
the same state; the draws read ahead and never used change nothing, since
the stream feeds nothing else.

An event is a (time, seq, handler, a, b) heap entry, and the loop calls
its handler with (time, a, b); seq is unique, so no comparison reaches the
handler.  The event loop runs with the cyclic garbage collector paused
(and its prior state restored).  A queued handler is bound to the engine,
so a reference cycle exists while events are queued, but it is reachable
the whole time and a finished run leaves none: each collection the growing
block, event and heap records would set off (seven full ones in a
200k-block run) frees nothing and only walks them.
"""

import gc
import heapq
import itertools
import json
import math
import os
import sys
from array import array
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .analytic import DIFFICULTY_ONE_SCALE, theta_from_difficulty
from .chain import (
    BLOCK_CSV_FIELDS,
    RETARGET_CLAMP,
    TARGET_SPACING,
    Block,
    ChainStore,
    ConfigError,
    ConsensusRules,
    TipView,
    block_row,
    config_list,
    config_object,
    finite_number,
    make_genesis,
    median_past_time,
    retarget,
    set_fields,
    spell,
    validate_timestamp,
    whole_number,
    write_table,
)

# Advisory threshold for local clocks that stray from network time (ten
# minutes); such nodes only get a warning, never a penalty.
CLOCK_WARN_OFFSET = 600.0
CLOCK_ADVISORY = "local clock differs from network time by more than 10 minutes"

HONEST = "honest"
FIXED_SKEW = "fixed_skew"

# The rate rule (SimConfig._check_rates).  Floats hold every whole second
# below CLOCK_LIMIT, so discovery times and stamps stay below it.  A draw
# takes at most DRAW_SPAN mean intervals: NumPy's standard exponential never
# exceeds 45 (its ziggurat tail is 7.7 - log1p(-u) for a double u < 1).
# Retargets are taken to carry the difficulty at most RETARGET_MARGIN clamps
# past its start or an equilibrium.
CLOCK_LIMIT = 2.0**53
DRAW_SPAN = 64
RETARGET_MARGIN = 8


@dataclass(frozen=True)
class MinerSpec:
    """One block producer: its share of the global hash rate, the offset of
    its local clock, and the `skew` seconds it adds to that clock when it
    stamps the blocks it finds.

    An honest miner (config strategy "honest") has skew 0 and stamps with
    its local clock; strategy {"fixed_skew": s} deliberately stamps s
    seconds ahead or behind.  The stamp is clamped up to median-past-time
    + 1 so the block stays acceptable even when the local clock has fallen
    behind the chain.
    """

    id: int
    share: float
    clock_offset: float = 0.0
    skew: float = 0.0

    def __post_init__(self):
        set_fields(
            self,
            id=whole_number(self.id, "miner id"),
            share=finite_number(self.share, "share"),
            clock_offset=finite_number(self.clock_offset, "clock_offset"),
            skew=finite_number(self.skew, "skew"),
        )
        if not 0 < self.share <= 1:
            raise ConfigError(f"miner {spell(self.id)}: share must be in (0, 1]")

    @classmethod
    def from_dict(cls, d: dict) -> "MinerSpec":
        # skew is set only through a fixed_skew strategy object
        config_object(d, "a miner", ("id", "share", "clock_offset", "strategy"), "miner")
        strategy = d.get("strategy", HONEST)
        if strategy == HONEST:
            skew = 0.0
        elif isinstance(strategy, dict) and set(strategy) == {FIXED_SKEW}:
            skew = strategy[FIXED_SKEW]
        else:
            raise ConfigError(f"strategy must be {HONEST!r} or {{{FIXED_SKEW!r}: s}}, "
                              f"got {spell(strategy)}")
        return cls(d["id"], d["share"], d.get("clock_offset", 0.0), skew)


@dataclass(frozen=True)
class DelayModel:
    """Propagation delay between nodes in seconds: one `fixed` delay for
    every pair, or a `per_pair` matrix (row = sender, column = receiver);
    exactly one is given.  A node never sends to itself, so the diagonal
    is never read."""

    fixed: Optional[float] = None
    per_pair: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self):
        if (self.fixed is None) == (self.per_pair is None):
            raise ConfigError(f"delay must be {{'fixed': tau}} or {{'per_pair': matrix}}, "
                              f"got {spell(self)}")
        if self.per_pair is None:
            set_fields(self, fixed=finite_number(self.fixed, "delay"))
            values = (self.fixed,)
        else:
            m = tuple(tuple(finite_number(x, "delay") for x in config_list(row, "per_pair row"))
                      for row in config_list(self.per_pair, "per_pair"))
            if not m or any(len(row) != len(m) for row in m):
                raise ConfigError("per-pair delay matrix must be square and nonempty")
            set_fields(self, per_pair=m)
            values = (x for row in m for x in row)
        if any(x < 0 for x in values):
            raise ConfigError("delay must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "DelayModel":
        return cls(**config_object(d, "delay", [f.name for f in fields(cls)]))

    def delay(self, src: int, dst: int) -> float:
        return self.fixed if self.per_pair is None else self.per_pair[src][dst]

    def max_delay(self) -> float:
        """The largest delay between two distinct nodes (`fixed` even on one node)."""
        if self.per_pair is None:
            return self.fixed
        return max((x for i, row in enumerate(self.per_pair)
                    for j, x in enumerate(row) if i != j), default=0.0)


@dataclass(frozen=True)
class StopRule:
    """Stop discovering once node 0's tip reaches height `blocks`, or after
    `duration` simulation-seconds; then drain: every block found is still
    delivered, so tip changes can follow the stop."""

    blocks: Optional[int] = None
    duration: Optional[float] = None

    def __post_init__(self):
        if (self.blocks is None) == (self.duration is None):
            raise ConfigError("stop rule needs exactly one of blocks/duration")
        if self.blocks is not None:
            set_fields(self, blocks=whole_number(self.blocks, "stop.blocks", 1))
        else:
            set_fields(self, duration=finite_number(self.duration, "stop.duration"))
            if self.duration <= 0:
                raise ConfigError("stop duration must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "StopRule":
        return cls(**config_object(d, "stop", [f.name for f in fields(cls)]))


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation scenario.

    Every section checks and normalizes its own fields when it is built
    and is frozen, so a config that exists is valid and stays so; vary one
    with `dataclasses.replace`, which checks the result again.

    `hashrate_steps` is a sequence of (height, factor) pairs: once a
    miner's tip reaches `height`, the nominal hash rate it mines with is
    multiplied by `factor` (steps compound).  This is how scenarios model
    capacity joining or leaving the network between retarget windows.
    """

    miners: tuple[MinerSpec, ...]
    nodes: int
    delay: DelayModel
    rules: ConsensusRules
    initial_difficulty: float
    nominal_hashrate: float
    stop: StopRule
    seed: int
    retarget_enabled: bool = True
    hashrate_steps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        steps = [config_list(step, "hashrate_steps entry", 2)
                 for step in config_list(self.hashrate_steps, "hashrate_steps")]
        set_fields(
            self,
            miners=config_list(self.miners, "miners"),
            nodes=whole_number(self.nodes, "nodes"),
            initial_difficulty=finite_number(self.initial_difficulty, "initial_difficulty"),
            nominal_hashrate=finite_number(self.nominal_hashrate, "nominal_hashrate"),
            seed=whole_number(self.seed, "seed"),
            hashrate_steps=tuple((whole_number(h, "hashrate step height"),
                                  finite_number(f, "hashrate step factor"))
                                 for h, f in steps),
        )
        if not self.miners:
            raise ConfigError("at least one miner is required")
        total = sum(m.share for m in self.miners)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"miner shares must sum to 1 (got {total!r})")
        if len({m.id for m in self.miners}) != len(self.miners):
            raise ConfigError("miner ids must be unique")
        if self.nodes < len(self.miners):
            raise ConfigError("need at least one node per miner")
        if self.delay.per_pair is not None and len(self.delay.per_pair) != self.nodes:
            raise ConfigError("per-pair delay matrix size must match node count")
        try:
            theta_from_difficulty(self.initial_difficulty)
        except ValueError as exc:
            raise ConfigError(f"initial difficulty: {exc}") from None
        if self.nominal_hashrate <= 0:
            raise ConfigError("nominal hash rate must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if not isinstance(self.retarget_enabled, bool):
            raise ConfigError(
                f"retarget_enabled must be true or false, got {spell(self.retarget_enabled)}")
        for h, f in self.hashrate_steps:
            if h <= 0 or f <= 0:
                raise ConfigError("hashrate steps need positive height and factor")
        self._check_rates()

    def _check_rates(self):
        """The rate rule: refuse a config whose run could take a difficulty
        out of theta's domain, a discovery time or a stamp to 2**53 s or
        past, or a miner's rate to 0.

        A miner draws its next discovery at rate share * h * theta(d),
        where h is the nominal hash rate times a prefix of the steps (in
        height order) and d the difficulty its tip prescribes.  It stamps
        floor(time + lead), or median past time + 1, where its lead is its
        clock_offset + skew.

        Without retargets d is `initial_difficulty`.  With them, each window
        multiplies d by at most RETARGET_CLAMP either way, pulling it toward
        the equilibrium h * TARGET_SPACING / 2**32 of each rate h, where a
        window takes its expected span.  A stamp is never below median past
        time + 1, so a clock that lags the others or genesis shortens stamp
        spans for as long as it lags: d can then climb until a window takes
        the expected span plus the spread of the leads (0 counted).  d is
        taken to stay within RETARGET_MARGIN clamps of the band between its
        start and those levels.  A block stop of n adds a hard bound: node
        0's chain below height n has at most n // interval windows, so d
        stays within RETARGET_CLAMP ** (n // interval) of its start there.
        A duration stop adds none.

        The stop then bounds the times.  Until node 0 reaches a block stop
        of n, its miner redraws on each move of its tip and finds a block
        within DRAW_SPAN mean intervals unless the tip moves first; each
        move reaches more work, taken as a new height.  So node 0 stops
        within n * DRAW_SPAN mean intervals at its miner's slowest rate,
        and no discovery follows.  A duration stop ends discovery at the
        duration.  A stamp leads its time by at most the largest lead.
        Deliveries carry no stamp of their own, so delays do not enter.
        """
        levels = [self.nominal_hashrate]
        for _, factor in sorted(self.hashrate_steps):
            levels.append(levels[-1] * factor)
        leads = [m.clock_offset + m.skew for m in self.miners]
        lead = max(0.0, *leads)
        start = lo = hi = self.initial_difficulty
        if self.retarget_enabled:
            interval = self.rules.retarget_interval
            span, spread = interval * TARGET_SPACING, lead - min(0.0, *leads)
            scale, margin = interval * DIFFICULTY_ONE_SCALE, RETARGET_CLAMP ** RETARGET_MARGIN
            lo = min(start, *(h * span / scale for h in levels)) / margin
            hi = max(start, *(h * (span + spread) / scale for h in levels)) * margin
            if self.stop.blocks is not None:
                # past RETARGET_CLAMP ** 511 (2 ** 1022) the reach spans
                # theta's whole domain either way
                reach = RETARGET_CLAMP ** min(self.stop.blocks // interval, 511)
                lo, hi = max(lo, start / reach), min(hi, start * reach)
            try:
                theta_from_difficulty(lo)
                theta_from_difficulty(hi)
            except ValueError as exc:
                raise ConfigError(f"retargets can take the difficulty out of range: {exc}") from None
        rates = [m.share * min(levels) * theta_from_difficulty(hi) for m in self.miners]
        if not min(rates) > 0:
            raise ConfigError("a miner's slowest rate underflows to 0 blocks/s")
        if not lead < CLOCK_LIMIT:
            raise ConfigError(f"a miner's clock_offset + skew of {lead!r} s passes 2**53 s")
        if self.stop.blocks is not None:
            if not self.stop.blocks * DRAW_SPAN <= rates[0] * (CLOCK_LIMIT - lead):
                raise ConfigError(f"hash rate too low: node 0's miner, at its slowest rate of "
                                  f"{rates[0]!r} blocks/s, can take past 2**53 s to find "
                                  f"{self.stop.blocks} block(s)")
        elif not self.stop.duration + lead < CLOCK_LIMIT:
            raise ConfigError(f"stop duration {self.stop.duration!r} s plus a clock lead of "
                              f"{lead!r} s passes 2**53 s")

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        config_object(d, "a config", [f.name for f in fields(cls)], "config")
        try:
            miners = [MinerSpec.from_dict(m) for m in config_list(d["miners"], "miners")]
            return cls(
                miners=miners,
                nodes=d.get("nodes", len(miners)),
                delay=DelayModel.from_dict(d["delay"]),
                rules=ConsensusRules.from_dict(d.get("rules", {})),
                initial_difficulty=d["initial_difficulty"],
                nominal_hashrate=d["nominal_hashrate"],
                stop=StopRule.from_dict(d["stop"]),
                seed=d["seed"],
                retarget_enabled=d.get("retarget_enabled", True),
                hashrate_steps=d.get("hashrate_steps", ()),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc.args[0]}") from None

    @classmethod
    def from_json(cls, path) -> "SimConfig":
        with open(path) as fh:
            text = fh.read()
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        except ValueError:  # json's one other refusal: int() past its digit limit
            raise ConfigError("config holds an integer literal of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
        except RecursionError:  # not a ValueError: the decoder recurses once per level
            raise ConfigError("config nests arrays or objects too deeply to decode") from None
        return cls.from_dict(d)


class TipEvent(NamedTuple):
    time: float
    node: int
    new_tip: int
    reorg_depth: int


class TipEvents:
    """Every per-node tip change of a run, in the order the engine made
    them, kept as four typed columns named by TipEvent's fields: time
    (float64), node (int32), new_tip (int64) and reorg_depth (int32).  That
    is 24 B an event, where a TipEvent tuple and the float it kept alive
    took about 104.  To its readers it is a sequence of rows: len() counts
    the events and iteration yields TipEvent rows with the same Python types
    (float, int, int, int).  A reader of one field reads its column."""

    __slots__ = TipEvent._fields

    def __init__(self):
        for name, code in zip(self.__slots__, "diqi"):
            setattr(self, name, array(code))

    def append(self, time: float, node: int, new_tip: int, reorg_depth: int) -> None:
        self.time.append(time)
        self.node.append(node)
        self.new_tip.append(new_tip)
        self.reorg_depth.append(reorg_depth)

    def columns(self) -> tuple[array, ...]:
        """The four columns, in TipEvent's field order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[TipEvent]:
        return map(TipEvent, *self.columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TipEvents):
            return NotImplemented
        return self.columns() == other.columns()


class Rejection(NamedTuple):
    time: float
    node: int
    block: int
    reason: str


class ClockAdvisory(NamedTuple):
    """A node whose clock is more than CLOCK_WARN_OFFSET from network time."""

    node: int
    offset: float


class ForkEpisode(NamedTuple):
    """Competing same-parent blocks discovered within one propagation
    window.  `winner` is the competitor that ended up on the canonical
    chain, or None when the race was still unresolved at stop."""

    window_start: float
    blocks: tuple
    winner: Optional[int]


@dataclass
class SimTrace:
    """Everything a run produced, immutable once returned.

    blocks is indexed by block id and includes stale blocks; each block's
    fields are its row of the blocks table, cumulative work included;
    tip_events records every per-node tip change (reorg_depth 0 = plain
    extension) as TipEvents columns, which iterate as TipEvent rows;
    difficulty_history records each retarget as (boundary height, new
    difficulty for the following window).  canonical (canonical[h] is node
    0's block at height h), fork_episodes and warnings (the clock advisories)
    are derived from those when it is built, canonical by one parent walk.
    The fork table takes one pass over the blocks: each parent's first kid
    goes into an id-indexed list, a kid list is started only for a parent
    with a second kid, the forks are sorted by first kid, and each winner is
    the canonical block at the kids' height when it is one of them.
    """

    config: SimConfig
    blocks: list[Block]
    tip_events: TipEvents
    difficulty_history: list[tuple[int, float]]
    rejections: list[Rejection]
    final_tips: list[int]
    canonical: list[Block] = field(init=False)
    fork_episodes: list[ForkEpisode] = field(init=False)
    warnings: list[ClockAdvisory] = field(init=False)

    def __post_init__(self):
        blocks = self.blocks
        chain = [blocks[self.final_tips[0]]]
        while chain[-1].parent is not None:
            chain.append(blocks[chain[-1].parent])
        chain.reverse()
        self.canonical = chain
        # ids are given in pop order, so id order is found_at order (ties in
        # id order): kid lists need no sort, and a fork's first kid opens it
        first: list[Optional[int]] = [None] * len(blocks)
        forks: dict[int, list[int]] = {}
        for b in blocks:
            p = b.parent
            if p is None:
                continue
            if first[p] is None:
                first[p] = b.id
            else:
                forks.setdefault(p, [first[p]]).append(b.id)
        # a fork's kids share one height h; its winner is chain[h] if a kid
        self.fork_episodes = []
        for kids in sorted(forks.values(), key=itemgetter(0)):
            h = blocks[kids[0]].height
            winner = chain[h].id if h < len(chain) and chain[h].id in kids else None
            self.fork_episodes.append(ForkEpisode(blocks[kids[0]].found_at, tuple(kids), winner))
        # node i runs miner i; a node that does not mine has offset 0
        self.warnings = [ClockAdvisory(i, m.clock_offset)
                         for i, m in enumerate(self.config.miners)
                         if abs(m.clock_offset) > CLOCK_WARN_OFFSET]

    def agreement(self) -> bool:
        """True when every node ended on the same tip."""
        return len(set(self.final_tips)) == 1

    def canonical_path(self) -> list[int]:
        """Block ids from genesis to node 0's final tip."""
        return [b.id for b in self.canonical]

    def canonical_height(self) -> int:
        return len(self.canonical) - 1

    def canonical_deltas(self) -> np.ndarray:
        """Ground-truth inter-discovery times along the canonical chain."""
        return np.diff(np.array([b.found_at for b in self.canonical]))

    def max_reorg_depth(self) -> int:
        return max(self.tip_events.reorg_depth, default=0)

    def summary(self) -> dict:
        return {
            "seed": self.config.seed,
            "blocks_created": len(self.blocks) - 1,
            "canonical_height": self.canonical_height(),
            "fork_episodes": len(self.fork_episodes),
            "max_reorg_depth": self.max_reorg_depth(),
            "final_difficulty": self.canonical[-1].difficulty,
            "rejections": len(self.rejections),
            "agreement": self.agreement(),
        }

    # ---- trace exports -------------------------------------------------

    def write_csvs(self, outdir, fmt: str = "csv") -> list[str]:
        """Write blocks/tip_changes/forks/difficulty files into `outdir`.

        fmt "csv" writes the delimited format (LF endings, `.` decimals,
        header row); "json" writes the same values as arrays of objects.
        Returns the written paths.
        """
        os.makedirs(outdir, exist_ok=True)
        tables = {
            "blocks": (BLOCK_CSV_FIELDS, map(block_row, self.blocks)),
            "tip_changes": (TipEvent._fields, zip(*self.tip_events.columns())),
            "forks": (
                ForkEpisode._fields,
                [(f.window_start, "|".join(map(str, f.blocks)), f.winner)
                 for f in self.fork_episodes],
            ),
            "difficulty": (("height", "difficulty"), self.difficulty_history),
        }
        written = []
        for name, (fields, rows) in tables.items():
            path = os.path.join(outdir, f"{name}.{fmt}")
            write_table(path, fields, rows, fmt)
            written.append(path)
        return written


class _Node(TipView):
    """One node: its view of the shared store, its clock offset, and the
    blocks parked until their parent is accepted."""

    __slots__ = ("clock_offset", "pending")

    def __init__(self, store: ChainStore, clock_offset: float):
        super().__init__(store)
        self.clock_offset = clock_offset
        self.pending: dict[int, list[Block]] = {}


# standard exponentials per RNG call: one C call, not one per draw
_DRAWS = 1024


# the annotation is a string: naming np.random here would import it with
# this module, about 10 ms of every process's start, not on the first run
def _standard_exponentials(rng: "np.random.Generator") -> Iterator[float]:
    """The generator's standard exponential stream, as Python floats."""
    while True:
        yield from rng.standard_exponential(_DRAWS).tolist()


def run(config: SimConfig) -> SimTrace:
    """Execute one scenario to quiescence and return its trace."""
    return _Engine(config).run()


class _Engine:
    def __init__(self, config: SimConfig):
        self.cfg = config
        self.exponentials = _standard_exponentials(np.random.default_rng(config.seed))
        self.store = ChainStore(make_genesis(config.initial_difficulty))
        self.blocks = self.store.blocks  # by id, in id order
        self.nodes: list[_Node] = []
        for i in range(config.nodes):
            offset = config.miners[i].clock_offset if i < len(config.miners) else 0.0
            self.nodes.append(_Node(self.store, offset))
        # (receiver, delay) of every other node, per miner: a block goes
        # straight from the node that found it to each other node
        self.fanout = [
            [(dst, config.delay.delay(src, dst)) for dst in range(config.nodes) if dst != src]
            for src in range(len(config.miners))
        ]
        self.heap: list = []
        self.seq = itertools.count()
        # no discovery happens after this: -inf once node 0 reaches stop height
        self.horizon = math.inf if config.stop.duration is None else config.stop.duration
        # retargeted difficulty per stored boundary block, in id order: the
        # trace's difficulty_history is read from it
        self.next_diff: dict[int, float] = {}
        self.tip_events = TipEvents()
        self.rejections: list[Rejection] = []

    # ---- difficulty and rates -------------------------------------------

    def child_difficulty(self, tip: Block) -> float:
        """Difficulty prescribed for the next block on this tip's branch."""
        return self.next_diff.get(tip.id, tip.difficulty)

    def miner_rate(self, miner_idx: int, tip: Block) -> float:
        h = self.cfg.nominal_hashrate
        for height, factor in self.cfg.hashrate_steps:
            if tip.height >= height:
                h *= factor
        theta = theta_from_difficulty(self.child_difficulty(tip))
        return self.cfg.miners[miner_idx].share * h * theta

    # ---- event scheduling -----------------------------------------------

    def schedule_find(self, miner_idx: int, now: float) -> None:
        """(Re)draw the miner's next discovery on its node's current tip.

        The event carries the tip it builds on, and handle_found drops it
        once that is no longer its miner's tip.  The test is exact: a tip
        moves only to strictly more work, so it never returns to a block it
        left, and each handler that moves a miner's tip redraws once (or is
        past the horizon, where handle_found drops every discovery).  So
        the latest draw is the only pending one whose parent is the tip.
        """
        tip = self.blocks[self.nodes[miner_idx].tip]
        rate = self.miner_rate(miner_idx, tip)
        dt = (1.0 / rate) * next(self.exponentials)
        heapq.heappush(self.heap, (now + dt, next(self.seq), self.handle_found, miner_idx, tip.id))

    def tip_moved(self, node_idx: int, now: float) -> None:
        """Once per handler that moved a miner's node's tip: node 0 reaching
        the stop height ends discovery, and the miner redraws unless past
        the horizon, where its draw would be dropped (the RNG feeds nothing
        else).  Nothing follows a move on a node that does not mine (node 0
        mines)."""
        stop = self.cfg.stop.blocks
        if (stop is not None and node_idx == 0
                and self.blocks[self.nodes[0].tip].height >= stop):
            self.horizon = -math.inf
        if now <= self.horizon:
            self.schedule_find(node_idx, now)

    # ---- event handlers ---------------------------------------------------

    def handle_found(self, now: float, miner_idx: int, parent_id: int) -> None:
        node = self.nodes[miner_idx]
        if now > self.horizon or parent_id != node.tip:
            return  # past the horizon, or stale: the miner redrew since
        spec = self.cfg.miners[miner_idx]
        parent = self.blocks[parent_id]
        mpt = median_past_time(self.store, parent_id)
        local = now + spec.clock_offset + spec.skew
        difficulty = self.child_difficulty(parent)
        block = Block(
            id=len(self.blocks),
            parent=parent_id,
            height=parent.height + 1,
            miner=spec.id,
            timestamp=max(math.floor(local), mpt + 1),
            difficulty=difficulty,
            cumulative_work=parent.cumulative_work + difficulty,
            found_at=now,
        )
        self.store.insert(block)
        interval = self.cfg.rules.retarget_interval
        if self.cfg.retarget_enabled and block.height % interval == 0:
            # full-window span: from the previous boundary block to this one,
            # i.e. interval whole intervals, no off-by-one
            first = block
            for _ in range(interval):
                first = self.blocks[first.parent]
            self.next_diff[block.id] = retarget(
                block.difficulty, first.timestamp, block.timestamp, interval)

        # own node accepts its own block without re-validation
        bid = block.id
        depth = node.accept(bid)
        if depth is not None:
            self.tip_events.append(now, miner_idx, bid, depth)
            self.tip_moved(miner_idx, now)

        heap, seq, push, deliver = self.heap, self.seq, heapq.heappush, self.handle_deliver
        for dst, delay in self.fanout[miner_idx]:
            push(heap, (now + delay, next(seq), deliver, dst, bid))

    def handle_deliver(self, now: float, node_idx: int, block_id: int) -> None:
        node = self.nodes[node_idx]
        block = self.blocks[block_id]
        pending, parent = node.pending, block.parent
        try:
            orphan = not node.known[parent]
        except IndexError:  # past the end of the buffer: not accepted
            orphan = True
        if orphan:
            pending.setdefault(parent, []).append(block)
            return
        store, clock = self.store, now + node.clock_offset
        moved = False
        # breadth-first over the block and the parked blocks it releases:
        # the loop walks the list while it grows
        queue = [block]
        for b in queue:
            reason = validate_timestamp(b, store, clock)
            if reason is not None:
                # dropped for good; descendants stay parked in the pending
                # pool and never become part of this node's view
                self.rejections.append(Rejection(now, node_idx, b.id, reason))
                continue
            depth = node.accept(b.id)
            if depth is not None:
                self.tip_events.append(now, node_idx, b.id, depth)
                moved = True
            if pending:
                parked = pending.pop(b.id, None)
                if parked:
                    queue.extend(parked)
        if moved and node_idx < len(self.cfg.miners):
            self.tip_moved(node_idx, now)

    # ---- main loop --------------------------------------------------------

    def run(self) -> SimTrace:
        for m in range(len(self.cfg.miners)):
            self.schedule_find(m, 0.0)
        heap, pop = self.heap, heapq.heappop
        # nothing to collect (see the module docstring)
        enabled = gc.isenabled()
        gc.disable()
        try:
            while heap:
                now, _, handle, a, b = pop(heap)
                handle(now, a, b)
        finally:
            if enabled:
                gc.enable()
        return SimTrace(
            config=self.cfg,
            blocks=list(self.blocks.values()),
            tip_events=self.tip_events,
            difficulty_history=[(0, self.cfg.initial_difficulty)] + [
                (self.blocks[b].height, d) for b, d in self.next_diff.items()],
            rejections=self.rejections,
            final_tips=[n.tip for n in self.nodes],
        )
