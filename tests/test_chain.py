"""Unit tests for block storage, timestamp rules, and retargeting."""

import csv
import json
import math
import re
import statistics
import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocktime.chain as C
from blocktime.chain import (
    BLOCK_CSV_FIELDS,
    Block,
    ChainError,
    ChainStore,
    ConsensusRules,
    DuplicateBlock,
    MAX_FUTURE_OFFSET,
    MissingParent,
    MPT_WINDOW,
    RETARGET_CLAMP,
    TARGET_SPACING,
    TipView,
    UnknownBlock,
    block_row,
    make_genesis,
    median_past_time,
    retarget,
    validate_timestamp,
    write_table,
)


def child(parent, block_id, timestamp, difficulty=1.0, miner=0, found_at=0.0):
    """A block on `parent`, with the height and cumulative work that follow."""
    return Block(block_id, parent.id, parent.height + 1, miner, timestamp, difficulty,
                 parent.cumulative_work + difficulty, found_at)


def chain_of(timestamps, difficulty=1.0, start_id=1):
    """Linear chain on a fresh store: one block per timestamp."""
    genesis = make_genesis(difficulty)
    store = ChainStore(genesis)
    parent = genesis
    for i, ts in enumerate(timestamps):
        b = child(parent, start_id + i, ts, difficulty, found_at=float(i + 1))
        store.insert(b)
        parent = b
    return store, parent


# ids insert refuses (bool, float, str, negative), each equal to or spelling
# the id of a stored block 1
REFUSED_IDS = (True, 1.0, "1", -1)


class TestMedianPastTime:
    def test_consecutive(self):
        store, tip = chain_of(list(range(1, 12)))
        assert median_past_time(store, tip.id) == 6

    def test_scrambled(self):
        stamps = [10, 5, 20, 15, 8, 30, 25, 12, 40, 35, 50]
        store, tip = chain_of(stamps)
        assert median_past_time(store, tip.id) == 20

    def test_genesis_only(self):
        store = ChainStore(make_genesis(1.0))
        assert median_past_time(store, 0) == 0

    def test_short_chain_uses_all_available(self):
        store, tip = chain_of([100, 200, 300])
        # genesis(0) + three blocks -> sorted [0, 100, 200, 300], lower middle
        assert median_past_time(store, tip.id) == 100

    def test_even_count_lower_middle(self):
        store, tip = chain_of([100, 200, 300, 400, 500])
        # genesis(0) + five blocks -> six stamps [0..500], lower middle
        assert median_past_time(store, tip.id) == 200

    def test_unknown_parent(self):
        store = ChainStore(make_genesis(1.0))
        with pytest.raises(UnknownBlock):
            median_past_time(store, 999)
        # the store takes no negative id, and a negative id does not read a
        # cached median from the end of the cache
        store, tip = chain_of([100, 200, 300])
        assert median_past_time(store, tip.id) == 100
        with pytest.raises(ChainError):
            store.insert(replace(child(tip, 4, 400), id=-1))
        cache = list(store._mpt)
        for bid in (-tip.id - 1, tip.id + 1) + REFUSED_IDS:
            with pytest.raises(UnknownBlock, match=f"^unknown block id {re.escape(repr(bid))}$"):
                median_past_time(store, bid)
            assert store._mpt == cache


class TestValidateTimestamp:
    def make(self, store, parent, ts):
        return child(parent, 500, ts)

    def test_equal_to_median_rejected(self):
        store, tip = chain_of(list(range(1, 12)))
        mpt = median_past_time(store, tip.id)
        assert validate_timestamp(self.make(store, tip, mpt), store, 1e6) == "mpt"
        assert validate_timestamp(self.make(store, tip, mpt + 1), store, 1e6) is None

    def test_future_bound_inclusive(self):
        store, tip = chain_of(list(range(1, 12)))
        clock = 10_000
        assert validate_timestamp(self.make(store, tip, clock + 7200), store, clock) is None
        assert validate_timestamp(self.make(store, tip, clock + 7201), store, clock) == "future"

    def test_earlier_than_parent_accepted(self):
        # the negative-delta case: below the parent's stamp but above the median
        store, tip = chain_of([100, 200, 300, 400, 900])
        mpt = median_past_time(store, tip.id)
        assert mpt == 200  # sorted [0,100,200,300,400,900], lower middle
        block = self.make(store, tip, 201)
        assert block.timestamp < tip.timestamp
        assert validate_timestamp(block, store, 1e6) is None

    def test_orphan_is_not_a_rule_rejection(self):
        store, tip = chain_of([100])
        orphan = Block(77, 60, 5, 0, 400, 1.0, 6.0, 0.0)
        with pytest.raises(MissingParent):
            validate_timestamp(orphan, store, 1e6)


def fig2_store():
    """The two-continuation topology: G-A-B, then siblings C/C', then D on C."""
    g = make_genesis(1.0)
    store = ChainStore(g)
    a = child(g, 1, 10, found_at=1.0)
    b = child(a, 2, 20, found_at=2.0)
    c = child(b, 3, 30, found_at=3.0)
    c2 = child(b, 4, 31, miner=1, found_at=3.5)
    d = child(c, 5, 40, found_at=9.0)
    return store, (a, b, c, c2, d)


def arrive(store, view, blk):
    """Store a block and let the view accept it: one participant hearing
    blocks in arrival order."""
    store.insert(blk)
    return view.accept(blk.id)


def path_to(store, bid):
    """Block ids from genesis to `bid`."""
    return _ancestors(store.blocks, bid)[::-1]


class TestInsertAndTip:
    def test_extension(self):
        store, (a, b, c, c2, d) = fig2_store()
        view = TipView(store)
        old = view.tip
        depth = arrive(store, view, a)
        assert (old, view.tip, depth) == (store.genesis, a.id, 0)

    def test_first_seen_tie_break(self):
        store, (a, b, c, c2, d) = fig2_store()
        view = TipView(store)
        for blk in (a, b, c):
            arrive(store, view, blk)
        old = view.tip
        depth = arrive(store, view, c2)  # equal work, seen later
        assert depth is None
        assert view.tip == old == c.id

    def test_depth_one_reorg(self):
        store, (a, b, c, c2, d) = fig2_store()
        view = TipView(store)
        for blk in (a, b):
            arrive(store, view, blk)
        arrive(store, view, c2)  # this node heard C' first
        assert view.tip == c2.id
        arrive(store, view, c)   # equal work, stays on C'
        assert view.tip == c2.id
        old = view.tip
        depth = arrive(store, view, d)  # D extends C: more work, switch branches
        assert (old, view.tip, depth) == (c2.id, d.id, 1)

    def test_duplicate(self):
        store, (a, *_ ) = fig2_store()
        store.insert(a)
        with pytest.raises(DuplicateBlock):
            store.insert(a)

    def test_orphan(self):
        store, (a, b, *_ ) = fig2_store()
        with pytest.raises(MissingParent):
            store.insert(b)

    def test_bad_height(self):
        store, (a, *_ ) = fig2_store()
        store.insert(a)
        with pytest.raises(ChainError):
            store.insert(replace(child(a, 9, 50), height=7))
        for genesis in (replace(make_genesis(1.0), parent=5), replace(make_genesis(1.0), height=1)):
            with pytest.raises(ChainError, match="^genesis must have height 0 and no parent$"):
                ChainStore(genesis)

    @pytest.mark.parametrize("bid", [-1, 2.0, 2.5, "2", True, None])
    def test_bad_id(self, bid):
        # ids index each view's buffer and the median cache
        store, (a, *_ ) = fig2_store()
        store.insert(a)
        with pytest.raises(ChainError, match="^block id must be a non-negative int, got "):
            store.insert(replace(child(a, 2, 20), id=bid))
        assert list(store.blocks) == [0, a.id]
        with pytest.raises(ChainError, match="^block id must be a non-negative int, got "):
            ChainStore(replace(make_genesis(1.0), id=bid))

    def test_zero_difficulty(self):
        store, _ = fig2_store()
        with pytest.raises(ChainError, match="^block difficulty must be positive$"):
            store.insert(child(store.get(0), 1, 10, difficulty=0.0))
        assert 1 not in store.blocks

    def test_bad_cumulative_work(self):
        store, (a, *_ ) = fig2_store()
        store.insert(a)
        for work in (a.cumulative_work, a.cumulative_work + 2.0):
            with pytest.raises(ChainError):
                store.insert(replace(child(a, 9, 50), cumulative_work=work))
            assert 9 not in store.blocks
        with pytest.raises(ChainError):
            ChainStore(replace(make_genesis(1.0), cumulative_work=2.0))

    def test_work_never_regresses(self):
        store, blocks = fig2_store()
        view = TipView(store)
        last_work = store.get(view.tip).cumulative_work
        for blk in blocks:
            arrive(store, view, blk)
            assert store.get(view.tip).cumulative_work >= last_work
            last_work = store.get(view.tip).cumulative_work

    def test_work_strictly_increasing_along_path(self):
        store, blocks = fig2_store()
        view = TipView(store)
        for blk in blocks:
            arrive(store, view, blk)
        works = [store.get(i).cumulative_work for i in path_to(store, view.tip)]
        assert all(x < y for x, y in zip(works, works[1:]))

    def test_replay_gives_identical_tips(self):
        _, blocks = fig2_store()
        def tips(seq):
            store = ChainStore(make_genesis(1.0))
            view = TipView(store)
            out = []
            for b in seq:
                arrive(store, view, b)
                out.append(view.tip)
            return out
        seq = [blocks[0], blocks[1], blocks[3], blocks[2], blocks[4]]
        assert tips(seq) == tips(seq)

    def test_reorg_prefix_stability(self):
        # a depth-k reorg replaces exactly the last k entries of the path
        store, (a, b, c, c2, d) = fig2_store()
        view = TipView(store)
        for blk in (a, b, c2, c):
            arrive(store, view, blk)
        before = path_to(store, view.tip)
        k = arrive(store, view, d)
        after = path_to(store, view.tip)
        assert before[:-k] == after[:len(before) - k]
        assert after[:len(before) - k] + [c.id, d.id] == after


def accepted_ids(view):
    """The ids whose byte is set in the view's buffer; every byte is 0 or 1."""
    assert set(view.known) <= {0, 1}
    return {i for i, byte in enumerate(view.known) if byte}


class TestTipView:
    def test_starts_at_genesis(self):
        store, _ = fig2_store()
        view = TipView(store)
        assert accepted_ids(view) == {0} and view.tip == 0

    def test_unknown_ids_raise_and_change_nothing(self):
        store, (a, *_) = fig2_store()
        store.insert(a)
        view = TipView(store)
        view.accept(a.id)
        for bid in (-2, a.id + 1, 999) + REFUSED_IDS:
            with pytest.raises(UnknownBlock, match=f"^unknown block id {re.escape(repr(bid))}$"):
                view.accept(bid)
            assert accepted_ids(view) == {0, a.id} and view.tip == a.id

    def test_buffer_grows_past_its_end(self):
        # a store fed out of id order: an id past the buffer's end is not
        # accepted, and accepting it grows the buffer
        g = make_genesis(1.0)
        store = ChainStore(g)
        far = child(g, 5000, 10)
        store.insert(far)
        view = TipView(store)
        assert len(view.known) <= far.id
        assert view.accept(far.id) == 0
        assert accepted_ids(view) == {0, far.id}

    def test_accept_grows_known_and_follows_the_tip_rule(self):
        # fig2 order A, B, C', C, D on a store that holds every block: C
        # ties C' and stays out, D reorgs C' away
        store, (a, b, c, c2, d) = fig2_store()
        for blk in (a, b, c, c2, d):
            store.insert(blk)
        view = TipView(store)
        for blk, depth, tip in zip((a, b, c2, c, d), (0, 0, 0, None, 1), (a, b, c2, c2, d)):
            known = accepted_ids(view) | {blk.id}
            assert view.accept(blk.id) == depth
            assert accepted_ids(view) == known
            assert view.tip == tip.id

    def test_views_of_one_store_are_independent(self):
        # the store holds no tip; two views that heard the siblings in
        # opposite orders keep different first-seen tips
        store, (a, b, c, c2, d) = fig2_store()
        for blk in (a, b, c, c2):
            assert store.insert(blk) is None
        assert not hasattr(store, "tip")
        first, second = TipView(store), TipView(store)
        for bid in (a.id, b.id, c.id, c2.id):
            first.accept(bid)
        for bid in (a.id, b.id, c2.id, c.id):
            second.accept(bid)
        assert (first.tip, second.tip) == (c.id, c2.id)
        assert accepted_ids(first) == accepted_ids(second) == {0, a.id, b.id, c.id, c2.id}


@st.composite
def trees_in_insertion_order(draw):
    """A random block tree and one parents-first order of its blocks.

    Difficulties come from {1, 2}, so blocks of equal work abound, both at
    one height and across heights; the sums are exact in floating point."""
    n = draw(st.integers(1, 24))
    genesis = make_genesis(1.0)
    blocks = {0: genesis}
    for i in range(1, n + 1):
        parent = blocks[draw(st.integers(0, i - 1))]
        difficulty = draw(st.sampled_from([1.0, 2.0]))
        blocks[i] = child(parent, i, i, difficulty, found_at=float(i))
    order, ready = [], [i for i in range(1, n + 1) if blocks[i].parent == 0]
    while ready:
        bid = ready.pop(draw(st.integers(0, len(ready) - 1)))
        order.append(bid)
        ready += [i for i in range(1, n + 1) if blocks[i].parent == bid]
    return blocks, order


def _ancestors(blocks, bid):
    out = []
    while bid is not None:
        out.append(bid)
        bid = blocks[bid].parent
    return out


@given(trees_in_insertion_order())
def test_tip_rule_on_random_trees(tree):
    """Both shapes of a TipView -- over a store fed in arrival order and
    over a store that already holds every block, as a simulated node is --
    keep the earliest-accepted block of most work as the tip.  The tip
    moves exactly when the accepted block has more work than the old tip,
    always onto that block, and the move reports old tip height - fork
    point height; a tip that stays reports None.  Work is summed here from
    the parent links, independently of each block's own field."""
    blocks, order = tree
    work = {0: 1.0}
    shared = ChainStore(blocks[0])
    for bid in range(1, len(blocks)):
        work[bid] = work[blocks[bid].parent] + blocks[bid].difficulty
        shared.insert(blocks[bid])
    assert work == {bid: b.cumulative_work for bid, b in blocks.items()}
    store = ChainStore(blocks[0])
    view, node = TipView(store), TipView(shared)
    accepted = [0]
    for bid in order:
        old = view.tip
        depth = arrive(store, view, blocks[bid])
        assert node.accept(bid) == depth
        accepted.append(bid)
        assert accepted_ids(view) == accepted_ids(node) == set(accepted)
        best = max(work[i] for i in accepted)
        assert view.tip == node.tip == next(i for i in accepted if work[i] == best)
        assert (depth is None) == (work[bid] <= work[old])
        if depth is not None:
            assert view.tip == bid
            common = set(_ancestors(blocks, bid))
            fork = next(i for i in _ancestors(blocks, old) if i in common)
            assert store.fork_point(old, bid) == fork
            assert depth == blocks[old].height - blocks[fork].height
        else:
            assert view.tip == old


@st.composite
def stamped_trees(draw):
    """A random block tree on a fresh store whose stamps need not rise
    along a branch and often tie.  Each parent is one of the last four
    blocks, so branches run deeper than MPT_WINDOW."""
    n = draw(st.integers(0, 40))
    store = ChainStore(make_genesis(1.0))
    for i in range(1, n + 1):
        parent = store.get(i - draw(st.integers(1, min(i, 4))))
        ts = draw(st.integers(-50, 50))
        store.insert(child(parent, i, ts, found_at=float(i)))
    return store


@given(stamped_trees())
def test_median_past_time_on_random_trees(store):
    """Every block's median-past-time, when first computed and again when
    read from the cache, is the lower median of the stamps of its last
    MPT_WINDOW ancestors (all of them near genesis), itself included."""
    blocks = store.blocks
    expected = {
        bid: statistics.median_low(
            blocks[a].timestamp for a in _ancestors(blocks, bid)[:MPT_WINDOW])
        for bid in blocks
    }
    for bid in blocks:
        assert median_past_time(store, bid) == expected[bid]
    assert {bid: m for bid, m in enumerate(store._mpt) if m is not None} == expected
    for bid in blocks:
        assert median_past_time(store, bid) == expected[bid]


class TestForkPoint:
    def test_self(self):
        store, blocks = fig2_store()
        for blk in blocks:
            store.insert(blk)
        assert store.fork_point(blocks[2].id, blocks[2].id) == blocks[2].id

    def test_siblings_meet_at_shared_prefix(self):
        store, (a, b, c, c2, d) = fig2_store()
        for blk in (a, b, c, c2, d):
            store.insert(blk)
        assert store.fork_point(c.id, c2.id) == b.id
        assert store.fork_point(d.id, c2.id) == b.id

    def test_ancestor(self):
        store, (a, b, c, c2, d) = fig2_store()
        for blk in (a, b, c):
            store.insert(blk)
        assert store.fork_point(a.id, c.id) == a.id

    def test_unknown(self):
        store, _ = fig2_store()
        with pytest.raises(UnknownBlock):
            store.fork_point(0, 404)
        # ids insert refuses name no block, not even the int they equal
        store.insert(child(store.get(0), 1, 10))
        for bid in REFUSED_IDS:
            with pytest.raises(UnknownBlock, match=f"^unknown block id {re.escape(repr(bid))}$"):
                store.get(bid)
            for a, b in ((bid, 0), (0, bid)):
                with pytest.raises(UnknownBlock):
                    store.fork_point(a, b)


class TestRetarget:
    def test_on_target_unchanged(self):
        assert retarget(1.0, 0, 1_209_600, 2016) == pytest.approx(1.0, rel=1e-12)

    def test_half_span_doubles(self):
        assert retarget(1.0, 0, 604_800, 2016) == pytest.approx(2.0, rel=1e-12)

    def test_clamp(self):
        assert retarget(1.0, 0, 60_480, 2016) == 4.0       # ratio 20 clamps
        assert retarget(1.0, 0, 120_960_000, 2016) == 0.25  # ratio 0.01 clamps

    def test_degenerate_span_clamps_up(self):
        assert retarget(1.0, 1000, 1000, 2016) == 4.0
        assert retarget(1.0, 5000, 100, 2016) == 4.0

    def test_scale_free(self):
        for c in [0.01, 3.0, 1e6]:
            assert retarget(c * 1.7, 0, 900_000, 2016) == pytest.approx(
                c * retarget(1.7, 0, 900_000, 2016), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            retarget(0.0, 0, 600, 2016)


@given(st.floats(1e-300, 1e300), st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
       st.integers(1, 10**6))
def test_retarget_ratio_stays_clamped(difficulty, first_ts, last_ts, interval):
    """Whatever the span, the correction ratio lies in
    [1/RETARGET_CLAMP, RETARGET_CLAMP], and a span <= 0 takes the top."""
    ratio = retarget(difficulty, first_ts, last_ts, interval) / difficulty
    assert 1 / RETARGET_CLAMP <= ratio <= RETARGET_CLAMP
    if last_ts <= first_ts:
        assert ratio == RETARGET_CLAMP


class TestRulesValidation:
    def test_defaults(self):
        assert MAX_FUTURE_OFFSET == 7200.0
        assert MPT_WINDOW == 11
        assert TARGET_SPACING == 600.0
        assert RETARGET_CLAMP == 4.0
        assert ConsensusRules().retarget_interval == 2016

    def test_bad_values(self):
        with pytest.raises(ValueError):
            ConsensusRules(retarget_interval=0)
        with pytest.raises(ValueError):
            ConsensusRules.from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="unknown consensus rule keys"):
            ConsensusRules.from_dict({"mpt_window": 11})


class TestChainDump:
    def test_roundtrip(self, tmp_path):
        store, blocks = fig2_store()
        allb = [store.get(0)] + list(blocks)
        for blk in blocks:
            store.insert(blk)
        path = tmp_path / "blocks.csv"
        write_table(path, BLOCK_CSV_FIELDS, map(block_row, allb))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert rows[0]["parent"] == ""
        by_id = {int(r["id"]): r for r in rows}
        assert by_id[5]["height"] == "4"
        assert float(by_id[5]["cumulative_work"]) == store.get(5).cumulative_work == 5.0
        with open(path, "rb") as fh:
            assert b"\r" not in fh.read()  # LF endings only


def _json_dump_reference(path, fields, rows):
    """The generic-encoder JSON writer that `write_table` must match byte for byte."""
    records = [dict(zip(fields, row)) for row in rows]
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


# quotes, backslashes, control characters, a template's own `%`, non-ASCII,
# line separators and astral characters, plus anything else hypothesis picks
_awkward_text = st.text(st.one_of(
    st.sampled_from('"\\\x00\x08\x1f\x7f%\u00e9\u20ac\u2028\U0001f600'),
    st.characters(),
), max_size=8)

_json_cells = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(),  # NaN and both infinities included
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
    st.none(),
    st.booleans(),
    st.floats().map(np.float64),
    _awkward_text,
)


@st.composite
def _tables(draw):
    fields = draw(st.lists(_awkward_text, unique=True, max_size=5))
    row = st.lists(_json_cells, min_size=len(fields), max_size=len(fields))
    return fields, draw(st.lists(row, max_size=12))


class TestWriteTableJson:
    # chunks of 1 to 3 rows make most drawn tables cross chunk boundaries
    @settings(max_examples=300)
    @given(table=_tables(), chunk=st.sampled_from([C._CHUNK, 1, 2, 3]))
    @example(table=([], []), chunk=C._CHUNK)
    @example(table=([], [[], []]), chunk=C._CHUNK)
    @example(table=(["id"], []), chunk=C._CHUNK)
    @example(table=([], [[], [], []]), chunk=2)
    @example(table=(["a", "b"], [[i, i / 7] for i in range(6)]), chunk=3)
    @example(table=(["a\nb", "\u2028"], [["x\ny", "\u2028"], ["\n", "z\u2028\n"]] * 2), chunk=2)
    def test_same_bytes_as_json_dump(self, tmp_path_factory, table, chunk):
        fields, rows = table
        d = tmp_path_factory.mktemp("json")
        _json_dump_reference(d / "ref.json", fields, rows)
        with mock.patch.object(C, "_CHUNK", chunk):
            write_table(d / "new.json", fields, rows, "json")
        assert (d / "new.json").read_bytes() == (d / "ref.json").read_bytes()

    # chunks of 1 to 3 rows mix chunks of plain numbers, filled by `%`, with
    # chunks that csv.writer writes
    @settings(max_examples=300)
    @given(table=_tables(), chunk=st.sampled_from([C._CHUNK, 1, 2, 3]))
    @example(table=(["a", "b"], [[1, 2.5], [3, 4], [None, 5], [6, 7.0], [8, True]]), chunk=2)
    @example(table=(["a"], [[None], [""], [None], [""]]), chunk=C._CHUNK)
    @example(table=([], [[], [], []]), chunk=2)
    @example(table=([], []), chunk=C._CHUNK)
    @example(table=(["a", "b"], [[math.nan, -0.0], [math.inf, -math.inf], [5e-324, 2**70]]),
             chunk=C._CHUNK)
    @example(table=(["a"], [[1], ["\ud800"]]), chunk=1)
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, table, chunk):
        fields, rows = table
        d = tmp_path_factory.mktemp("csv")
        try:
            with open(d / "ref.csv", "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(fields)
                w.writerows(rows)
        except UnicodeEncodeError:
            # text the file's encoding cannot spell (a lone surrogate): both
            # writers refuse it
            with mock.patch.object(C, "_CHUNK", chunk), pytest.raises(UnicodeEncodeError):
                write_table(d / "new.csv", fields, rows, "csv")
            return
        with mock.patch.object(C, "_CHUNK", chunk):
            write_table(d / "new.csv", fields, rows, "csv")
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()

    # an empty dict subclass would spell as one token, `{}`, so it is
    # refused by type, not by the count of spelled cells
    @pytest.mark.parametrize("cell", [np.int64(3), (1, 2), OrderedDict()],
                             ids=["np.int64", "tuple", "dict-subclass"])
    def test_unsupported_cell_raises_type_error(self, tmp_path, cell):
        with pytest.raises(TypeError):
            write_table(tmp_path / "t.json", ("a", "b"), [[1, cell]], "json")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_short_row_raises_value_error(self, tmp_path, fmt):
        with pytest.raises(ValueError):
            write_table(tmp_path / f"t.{fmt}", ("a", "b"), [[1, 2], [3]], fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_duplicate_field_raises_value_error(self, tmp_path, fmt):
        with pytest.raises(ValueError):
            write_table(tmp_path / f"t.{fmt}", ("a", "a"), [[1, 2]], fmt)
        assert not (tmp_path / f"t.{fmt}").exists()

    @pytest.mark.parametrize("fmt, bad, error", [
        ("json", [5], ValueError), ("csv", [5], ValueError), ("json", [5, (6,)], TypeError),
    ], ids=["short-row-json", "short-row-csv", "tuple-cell-json"])
    def test_bad_row_in_second_chunk_keeps_first_chunk(self, tmp_path, monkeypatch, fmt, bad,
                                                       error):
        # a chunk is checked whole before it is written, so the file holds
        # the first chunk and nothing of the second
        monkeypatch.setattr(C, "_CHUNK", 2)
        good = [[1, 2.5], [3, None], [4, "x"]]
        with pytest.raises(error):
            write_table(tmp_path / f"t.{fmt}", ("a", "b"), good + [bad], fmt)
        write_table(tmp_path / f"first.{fmt}", ("a", "b"), good[:2], fmt)
        first = (tmp_path / f"first.{fmt}").read_text()
        assert (tmp_path / f"t.{fmt}").read_text() == (first[:-3] if fmt == "json" else first)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_chunk_transient_stays_small(self, tmp_path, fmt):
        # 100,000 tip-event-like rows with 17-digit float times: the JSON
        # writer's traced peak is 0.23 MB with 512-row chunks and 1.75 MB
        # with 4,096-row chunks, which raised forkrate_export peak RSS 6%;
        # the CSV `%` fill holds one chunk's cells and text at a time
        rows = [((i + 1) / 7, i % 32, 10**6 + i, i % 3) for i in range(100_000)]
        path = tmp_path / f"t.{fmt}"
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            write_table(path, ("time", "node", "new_tip", "reorg_depth"), rows, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = path.read_text()
        n = len(json.loads(text)) if fmt == "json" else text.count("\n") - 1
        assert n == len(rows)
        assert peak - start < 1_000_000

    def test_unknown_format_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            write_table(tmp_path / "t.xml", ("a",), [[1]], "xml")
        assert not (tmp_path / "t.xml").exists()
