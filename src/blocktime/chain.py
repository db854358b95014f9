"""Block DAG storage and consensus bookkeeping.

A ChainStore holds a tree of hash-pointer records rooted at genesis.
Sealing makes every block immutable: its height and cumulative work are
its own fields, checked against its parent when it is stored, its
median-past-time is fixed once it is stored, and the store holds no tip.
A TipView is one participant's accepted ids and tip inside a store, and
the only code that keeps a tip; the simulator shares one store across the
network and each node is a TipView over it.
Block ids are non-negative ints, which the simulator hands out densely
(0, 1, 2, ... in discovery order).  A view's accepted ids and the store's
median cache are buffers indexed by id, so each grows with the largest id
it has held, not with the number of blocks: dense ids waste no slot.
The tip rule (`TipView.accept`) is most-cumulative-work with a first-seen
tie break, so replaying the same acceptance sequence always reproduces the
same tip at every step.  A move always lands on the accepted block, so the
rule reports only the move's reorg depth, or None when the tip stays.

Also provided: the timestamp acceptance rules (median-past-time over
MPT_WINDOW blocks and the MAX_FUTURE_OFFSET future bound), the periodic
difficulty retarget rule (TARGET_SPACING, RETARGET_CLAMP), the chain-dump
columns (a Block's own fields), and the one CSV/JSON table writer every
export uses.  Those four rules are protocol constants; only the retarget
interval is set per run, through ConsensusRules.
"""

import csv
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

GENESIS_ID = 0
GENESIS_MINER = -1

# how far (seconds) a timestamp may lead the local clock; the bound is
# inclusive (exactly +offset is accepted)
MAX_FUTURE_OFFSET = 7200.0
# how many trailing ancestors feed the median-past-time rule
MPT_WINDOW = 11
# intended seconds between blocks
TARGET_SPACING = 600.0
# per-adjustment bound on the retarget correction ratio
RETARGET_CLAMP = 4.0


class ConfigError(ValueError):
    """Raised for an invalid simulation configuration, or an invalid number
    handed in from outside, before any work runs."""


class ChainError(Exception):
    """Base class for chain-state violations."""


class UnknownBlock(ChainError):
    """A block id was referenced that the store has never seen."""


class DuplicateBlock(ChainError):
    """A block id was inserted twice."""


class MissingParent(ChainError):
    """A block arrived before its parent (orphan)."""


@dataclass(frozen=True, slots=True)
class Block:
    """One node of the block DAG.

    `timestamp` is the consensus timestamp the miner wrote into the block
    (integer unix-style seconds, subject to the acceptance rules), while
    `found_at` is the ground-truth simulation instant of discovery and is
    not consensus data.  `cumulative_work` is the parent's plus this
    block's difficulty.  The fields, in order, are the chain-dump columns.
    A run keeps every block it finds, so the class is slotted: a block
    has no per-instance `__dict__`.
    """

    id: int
    parent: Optional[int]  # None only for genesis
    height: int
    miner: int
    timestamp: int
    difficulty: float
    cumulative_work: float
    found_at: float


def make_genesis(difficulty: float) -> Block:
    return Block(GENESIS_ID, None, 0, GENESIS_MINER, 0, difficulty, difficulty, 0.0)


def spell(value) -> str:
    """`value` as a refusal shows it, never raising: its repr, or its type
    where repr raises (an integer past the int-to-str digit limit, or
    nesting too deep)."""
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"<{type(value).__name__} too large to print>"


def _real(value, name: str):
    """`value` itself; ConfigError unless it is a real number.  Booleans
    are refused (`bool` subclasses `int`, so JSON `true` would read as 1),
    and so are strings, which `float` and `int` would parse."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {spell(value)}")
    return value


def finite_number(value, name: str) -> float:
    """`value` as a float; ConfigError unless it is a finite real number
    (JSON admits NaN and Infinity literals, and integers beyond the float
    range)."""
    try:
        x = float(_real(value, name))
    except OverflowError:
        raise ConfigError(f"{name} must be a finite number, "
                          "got an integer beyond the float range") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {spell(value)}")
    return x


def config_object(value, name: str, keys, kind: Optional[str] = None) -> dict:
    """`value` itself; ConfigError unless it is a JSON object whose keys all
    lie in `keys`.  `name` names the value and `kind` (`name` by default)
    its entries in the unknown-key message."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {spell(value)}")
    unknown = set(value) - set(keys)
    if unknown:
        # sorted by their spelling: keys of mixed types do not compare
        raise ConfigError(f"unknown {kind or name} keys: {spell(sorted(unknown, key=spell))}")
    return value


def config_list(value, name: str, length: Optional[int] = None) -> tuple:
    """`value` as a tuple; ConfigError unless it is a JSON array (a list or
    tuple), of `length` entries when that is given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        shape = "a JSON array" if length is None else f"a JSON array of {length}"
        raise ConfigError(f"{name} must be {shape}, got {spell(value)}")
    return tuple(value)


def whole_number(value, name: str, least: Optional[int] = None) -> int:
    """`value` as an int; ConfigError unless it is an integral real number
    (2.0 passes; 2.5, NaN, Infinity, booleans and strings do not) of at
    least `least`, when that is given."""
    if not isinstance(_real(value, name), numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {spell(value)}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {spell(value)}")
    return int(value)


def set_fields(section, **values) -> None:
    """Store checked values on a frozen dataclass from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(section, name, value)


@dataclass(frozen=True)
class ConsensusRules:
    """The consensus setting a run may choose: `retarget_interval`, the
    blocks per difficulty-adjustment window."""

    retarget_interval: int = 2016

    def __post_init__(self):
        set_fields(self, retarget_interval=whole_number(self.retarget_interval, "retarget_interval", 1))

    @classmethod
    def from_dict(cls, d: dict) -> "ConsensusRules":
        return cls(**config_object(d, "rules", [f.name for f in fields(cls)], "consensus rule"))


def _valid_id(block_id) -> bool:
    """Whether `block_id` can name a block: a non-negative int.  Ids index the
    views' and the median cache's buffers, where -1 would read the last slot
    and True (a bool is an int) or 1.0 (equal to 1 as a dict key) pass for 1."""
    return type(block_id) is int and block_id >= 0


def _check_id(block: Block) -> None:
    """ChainError unless the block's id is valid (`_valid_id`)."""
    if not _valid_id(block.id):
        raise ChainError(f"block id must be a non-negative int, got {spell(block.id)}")


class ChainStore:
    """All known blocks, each extending its parent's height and work.

    Block ids must be non-negative ints (ChainError otherwise).  Insertion
    is parents-first: an orphan raises MissingParent and it is
    the caller's job to buffer it until the parent shows up (the simulator
    keeps a pending pool per node for exactly that).  Single-writer: all
    mutations must come from the thread that owns the store.
    """

    def __init__(self, genesis: Block):
        if genesis.height != 0 or genesis.parent is not None:
            raise ChainError("genesis must have height 0 and no parent")
        if genesis.cumulative_work != genesis.difficulty:
            raise ChainError("genesis cumulative work must equal its difficulty")
        _check_id(genesis)
        self.blocks: dict[int, Block] = {genesis.id: genesis}
        self.genesis: int = genesis.id
        # median_past_time results indexed by parent id, None where not yet
        # computed: a block's ancestors never change, so neither does its
        # median
        self._mpt: list[Optional[int]] = []

    def get(self, block_id: int) -> Block:
        """The stored block `block_id`; UnknownBlock for any other id, one
        insert refuses included (1.0 and True equal 1 as dict keys)."""
        block = self.blocks.get(block_id) if _valid_id(block_id) else None
        if block is None:
            raise UnknownBlock(f"unknown block id {spell(block_id)}")
        return block

    def insert(self, block: Block) -> None:
        """Store a block that extends its parent's height and work."""
        _check_id(block)
        if block.id in self.blocks:
            raise DuplicateBlock(f"block id {block.id} already present")
        if block.parent not in self.blocks:
            raise MissingParent(f"parent {block.parent} of block {block.id} not present")
        parent = self.blocks[block.parent]
        if block.height != parent.height + 1:
            raise ChainError(
                f"block {block.id} height {block.height} does not extend parent height {parent.height}"
            )
        if block.difficulty <= 0:
            raise ChainError("block difficulty must be positive")
        if block.cumulative_work != parent.cumulative_work + block.difficulty:
            raise ChainError(f"block {block.id} work does not extend its parent's")
        self.blocks[block.id] = block

    def fork_point(self, a: int, b: int) -> int:
        """Deepest common ancestor of two blocks."""
        ba, bb = self.get(a), self.get(b)
        while ba.height > bb.height:
            ba = self.blocks[ba.parent]
        while bb.height > ba.height:
            bb = self.blocks[bb.parent]
        while ba.id != bb.id:
            ba = self.blocks[ba.parent]
            bb = self.blocks[bb.parent]
        return ba.id


class TipView:
    """One participant's view of a store: the ids it has accepted (genesis
    from the start) and the tip the tip rule chose among them.

    `known[i]` is 1 when id i is accepted and 0 when not.  The buffer grows,
    at least doubling, to hold the largest accepted id, and an id past its
    end is not accepted."""

    __slots__ = ("store", "known", "tip")

    def __init__(self, store: ChainStore):
        self.store = store
        self.known = bytearray(store.genesis + 1)
        self.known[store.genesis] = 1
        self.tip: int = store.genesis

    def accept(self, block_id: int) -> Optional[int]:
        """The tip rule: accept the stored block `block_id`; return None
        when the tip stays, else the reorg depth of the move to it.

        The tip moves only when the block has strictly more cumulative work,
        so at equal work the earlier-accepted block stays.  A move always
        lands on the accepted block and abandons old tip height minus fork
        point height blocks of the old canonical path: 0 for a plain
        extension.
        """
        blocks, old, known = self.store.blocks, self.tip, self.known
        block = blocks.get(block_id)
        if block is None or block.id is not block_id:  # see median_past_time
            block = self.store.get(block_id)
        try:
            known[block_id] = 1
        except IndexError:  # past the end: at least double, so growth is rare
            known.extend(bytes(max(block_id + 1, 2 * len(known)) - len(known)))
            known[block_id] = 1
        if block.cumulative_work <= blocks[old].cumulative_work:
            return None
        self.tip = block_id
        if block.parent == old:
            return 0
        return blocks[old].height - blocks[self.store.fork_point(old, block_id)].height


def median_past_time(store: ChainStore, parent_id: int) -> int:
    """Median timestamp of the last MPT_WINDOW blocks ending at (and
    including) `parent_id`.

    Near genesis, fewer than MPT_WINDOW ancestors exist and all available
    ones are used.  For an even count the lower-middle element is taken,
    so the result is always an actual recorded timestamp.  Results are
    cached in the store, so each parent is computed once.
    """
    cache = store._mpt
    # a stored block's own id object passed insert's check; any other (1.0
    # and True find block 1) goes through get's, which refuses what insert does
    b = store.blocks.get(parent_id)
    if b is None or b.id is not parent_id:
        b = store.get(parent_id)
    try:
        mpt = cache[parent_id]
    except IndexError:  # past the end: not computed yet
        mpt = None
    if mpt is not None:
        return mpt
    stamps = []
    for _ in range(MPT_WINDOW):
        stamps.append(b.timestamp)
        if b.parent is None:
            break
        b = store.blocks[b.parent]
    stamps.sort()
    if parent_id >= len(cache):
        cache.extend([None] * (parent_id + 1 - len(cache)))
    mpt = cache[parent_id] = stamps[(len(stamps) - 1) // 2]
    return mpt


def validate_timestamp(block: Block, store: ChainStore, local_clock: float) -> Optional[str]:
    """Check a block's timestamp against a node's local clock.

    Returns None on acceptance, or the name of the violated rule:
    "mpt" when the timestamp is not strictly greater than the median past
    time of its ancestors, "future" when it leads the local clock by more
    than MAX_FUTURE_OFFSET.  A timestamp earlier than the parent's is
    fine as long as it clears the median, so negative inter-block deltas
    are representable and never rejected by themselves.

    An unknown parent raises MissingParent: orphanhood is a delivery-order
    problem, not a rule violation.
    """
    if block.parent not in store.blocks:
        raise MissingParent(f"parent {block.parent} of block {block.id} not present")
    if block.timestamp <= median_past_time(store, block.parent):
        return "mpt"
    if block.timestamp > local_clock + MAX_FUTURE_OFFSET:
        return "future"
    return None


def retarget(difficulty: float, first_ts: int, last_ts: int, interval: int) -> float:
    """New difficulty after one adjustment window of `interval` blocks.

    Scales the current difficulty by expected span / actual span, where the
    expected span is interval * TARGET_SPACING and the actual span is the
    timestamp distance across the window.  The correction ratio is clamped
    to [1/RETARGET_CLAMP, RETARGET_CLAMP]; a nonpositive span (legal under
    adversarial timestamps) clamps to the maximum upward step instead of
    crashing.
    """
    if difficulty <= 0:
        raise ValueError("difficulty must be positive")
    expected = interval * TARGET_SPACING
    actual = last_ts - first_ts
    if actual <= 0:
        ratio = RETARGET_CLAMP
    else:
        ratio = expected / actual
        ratio = min(max(ratio, 1.0 / RETARGET_CLAMP), RETARGET_CLAMP)
    return difficulty * ratio


BLOCK_CSV_FIELDS = tuple(f.name for f in fields(Block))
block_row = operator.attrgetter(*BLOCK_CSV_FIELDS)


_encode_str = json.encoder.encode_basestring_ascii
# a flat list of cells, one per line: `ensure_ascii` escapes every newline
_encode_cells = json.JSONEncoder(separators=("\n", ":")).encode
# rows per encode call and write: the chunk's cells and text stay small
_CHUNK = 512
# cell types `%s` spells as csv.writer does, none of them quoted
_PLAIN_CELLS = {int, float, bool}


def _json_row_template(fields: Sequence[str]) -> str:
    if not fields:
        return " {}"
    items = ",\n".join(f"  {_encode_str(f).replace('%', '%%')}: %s" for f in fields)
    return f" {{\n{items}\n }}"


def _chunks(rows: Iterable, n: int):
    """The rows in lists of up to _CHUNK, each checked to hold `n` cells a row."""
    it = iter(rows)
    while chunk := list(itertools.islice(it, _CHUNK)):
        if (lengths := set(map(len, chunk))) != {n}:
            raise ValueError(f"row of {max(lengths - {n})} cells under {n} fields")
        yield chunk


def _json_chunk(template: str, chunk: list) -> str:
    cells = list(itertools.chain.from_iterable(chunk))
    for t in set(map(type, cells)):
        if issubclass(t, (list, tuple, dict)):
            raise TypeError(f"table cells must be scalars, got {t.__name__}")
    spelled = _encode_cells(cells)[1:-1].split("\n") if cells else ()
    return ",\n".join([template] * len(chunk)) % tuple(spelled)


def write_table(path, fields: Sequence[str], rows: Iterable, fmt: str = "csv") -> None:
    """Write rows of typed cells (ints, floats, strings, None) under `fields`.

    fmt "csv" writes the bytes one `csv.writer(fh, lineterminator="\\n")`
    writes for the header row and then every row.  A chunk of _CHUNK rows
    whose cells are all exact ints, floats and bools is filled into
    `"%s,%s,...\\n"`, repeated once per row, with one `%`: `%s` spells such
    a cell as csv does (`str`, which is `repr` for a float, `nan`, `inf`
    and `-0.0` included), and no such spelling needs quoting.  Any other
    chunk goes to that writer: None, which csv writes empty, and strings
    and subclasses (np.float64, an IntEnum), whose `str` may need quoting,
    so quoting is always csv's.

    fmt "json" writes the bytes `json.dump([dict(zip(fields, row)) ...],
    fh, indent=1)` plus a final newline would, without that encoder: one
    row template per table (`' {\\n  "id": %s,\\n  "parent": %s, ...\\n }'`,
    keys spelled by `encode_basestring_ascii`, `' {}'` for no fields) is
    filled for _CHUNK rows at a time, whose cells json's C encoder spells
    in one call as `json.dumps` would: non-finite floats as `Infinity`,
    `-Infinity`, `NaN`, and a type JSON cannot hold, or a list, tuple or
    dict, raises TypeError.

    So neither format holds a table's text whole.  Duplicate field names raise
    ValueError before the file is opened.  A row whose length differs from
    `fields` (in either format), or a JSON cell that raises, raises when
    its chunk is reached, so the file holds only the whole chunks before
    it.  Both formats print floats as their shortest round-trip repr; None
    is an empty CSV cell and JSON null.
    """
    if len(set(fields)) != len(fields):
        raise ValueError(f"duplicate field names in {list(fields)!r}")
    chunks = _chunks(rows, len(fields))
    if fmt == "csv":
        template = ",".join(["%s"] * len(fields)) + "\n"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(fields)
            for chunk in chunks:
                cells = tuple(itertools.chain.from_iterable(chunk))
                if set(map(type, cells)) <= _PLAIN_CELLS:
                    fh.write(template * len(chunk) % cells)
                else:
                    w.writerows(chunk)
    elif fmt == "json":
        template = _json_row_template(fields)
        with open(path, "w") as fh:
            sep = "[\n"
            for chunk in chunks:
                fh.write(sep + _json_chunk(template, chunk))
                sep = ",\n"
            fh.write("[]\n" if sep == "[\n" else "\n]\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
