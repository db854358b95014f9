"""Unit tests for block storage, timestamp rules, and retargeting."""

import csv
import json
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    select_tip,
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


class TestTipView:
    def test_starts_at_genesis(self):
        store, _ = fig2_store()
        view = TipView(store)
        assert view.known == {0} and view.tip == 0

    def test_accept_grows_known_and_returns_select_tip(self):
        store, (a, b, c, c2, d) = fig2_store()
        for blk in (a, b, c, c2, d):
            store.insert(blk)
        view = TipView(store)
        for blk in (a, b, c2, c, d):
            old = view.tip
            expected = select_tip(store, old, blk.id)
            known = view.known | {blk.id}
            assert view.accept(blk.id) == expected
            assert view.known == known
            assert view.tip == (old if expected is None else blk.id)

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
        assert first.known == second.known == {0, a.id, b.id, c.id, c2.id}


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


@settings(deadline=None, database=None)
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
        assert view.known == node.known == set(accepted)
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


@settings(deadline=None, database=None)
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
    assert store._mpt == expected
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


@settings(deadline=None, database=None)
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
    return fields, draw(st.lists(row, max_size=6))


class TestWriteTableJson:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_tables())
    @example(([], []))
    @example(([], [[], []]))
    @example((["id"], []))
    def test_same_bytes_as_json_dump(self, tmp_path_factory, table):
        fields, rows = table
        d = tmp_path_factory.mktemp("json")
        _json_dump_reference(d / "ref.json", fields, rows)
        write_table(d / "new.json", fields, rows, "json")
        assert (d / "new.json").read_bytes() == (d / "ref.json").read_bytes()

    @pytest.mark.parametrize("cell", [np.int64(3), (1, 2)], ids=["np.int64", "tuple"])
    def test_unsupported_cell_raises_type_error(self, tmp_path, cell):
        with pytest.raises(TypeError):
            write_table(tmp_path / "t.json", ("a", "b"), [[1, cell]], "json")

    def test_short_row_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.json", ("a", "b"), [[1, 2], [3]], "json")

    def test_duplicate_field_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.json", ("a", "a"), [[1, 2]], "json")
        assert not (tmp_path / "t.json").exists()
