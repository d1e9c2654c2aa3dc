"""Unit + property tests for the page/fragment model."""

import math
from typing import Iterable, List

import pytest
from hypothesis import example, given, strategies as st

from repro.blobseer.pages import (
    Fragment,
    PageFragments,
    first_ending_after,
    fragments_cover,
    fragments_fill,
    fresh_page_id,
    overlay,
)


def frag(start, length, tag="w", data_offset=0):
    return Fragment(
        start=start,
        length=length,
        page_id=fresh_page_id(1, tag),
        data_offset=data_offset,
        providers=("p0",),
    )


class TestPageId:
    def test_unique(self):
        ids = {fresh_page_id(1, "w") for _ in range(100)}
        assert len(ids) == 100

    def test_key_stable(self):
        pid = fresh_page_id(3, "writer")
        assert pid.key() == pid.key()
        assert pid.key().startswith(b"page/3/writer/")


class TestFragment:
    def test_validation(self):
        with pytest.raises(ValueError):
            frag(-1, 5)
        with pytest.raises(ValueError):
            frag(0, 0)
        with pytest.raises(ValueError):
            Fragment(0, 1, fresh_page_id(1, "w"), -1, ("p",))
        with pytest.raises(ValueError):
            Fragment(0, 1, fresh_page_id(1, "w"), 0, ())

    def test_end_and_primary(self):
        f = Fragment(5, 10, fresh_page_id(1, "w"), 0, ("a", "b"))
        assert f.end == 15
        assert f.primary == "a"

    def test_clip_inside(self):
        f = frag(10, 10, data_offset=100)
        c = f.clip(12, 18)
        assert (c.start, c.length, c.data_offset) == (12, 6, 102)

    def test_clip_disjoint(self):
        assert frag(10, 10).clip(0, 10) is None
        assert frag(10, 10).clip(20, 30) is None

    def test_clip_identity(self):
        f = frag(3, 7)
        assert f.clip(0, 100) == f


class TestOverlay:
    def test_overlay_empty(self):
        f = frag(0, 10)
        assert overlay((), f) == (f,)

    def test_overlay_replaces_covered(self):
        old = frag(0, 10, "old")
        new = frag(0, 10, "new")
        assert overlay((old,), new) == (new,)

    def test_overlay_keeps_head(self):
        old = frag(0, 10, "old")
        new = frag(6, 10, "new")
        result = overlay((old,), new)
        assert [(f.start, f.end) for f in result] == [(0, 6), (6, 16)]
        assert result[0].page_id == old.page_id
        assert result[1].page_id == new.page_id

    def test_overlay_keeps_tail(self):
        old = frag(0, 20, "old")
        new = frag(5, 5, "new")
        result = overlay((old,), new)
        assert [(f.start, f.end) for f in result] == [(0, 5), (5, 10), (10, 20)]
        # the surviving tail addresses the old stored object at the
        # matching inner offset
        assert result[2].data_offset == 10

    def test_fill_and_cover(self):
        frags = overlay((frag(0, 8, "a"),), frag(8, 4, "b"))
        assert fragments_fill(frags) == 12
        assert fragments_cover(frags, 0, 12)
        assert not fragments_cover(frags, 0, 13)

    def test_cover_detects_hole(self):
        frags = (frag(0, 4), frag(6, 4))
        assert not fragments_cover(frags, 0, 10)
        assert fragments_cover(frags, 6, 10)


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=90),
            st.integers(min_value=1, max_value=40),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_overlay_matches_byte_oracle(ops):
    """Repeated overlays behave exactly like writing into a byte array."""
    page = [-1] * 160
    frags = ()
    for writer, (start, length) in enumerate(ops):
        frags = overlay(frags, frag(start, length, f"w{writer}"))
        for i in range(start, start + length):
            page[i] = writer
    # reconstruct ownership from the fragment list
    rebuilt = [-1] * 160
    for f in frags:
        writer = int(f.page_id.writer[1:])
        for i in range(f.start, f.end):
            # fragment offsets address the original write's buffer
            assert 0 <= f.data_offset
            rebuilt[i] = writer
    assert rebuilt == page
    # fragments are sorted and non-overlapping
    for a, b in zip(frags, frags[1:]):
        assert a.end <= b.start


# -- bisect overlay vs. the linear walk it replaced -----------------------------


# The previous, linear-time implementation, kept verbatim as the oracle
# for the differential test below.
def linear_overlay(previous: Iterable[Fragment], new: Fragment) -> PageFragments:
    """The previous fragment list with *new* written over it.

    Pure metadata: pieces of older fragments outside the new range
    survive (clipped); the region ``[new.start, new.end)`` now belongs
    to *new*. The result stays sorted and non-overlapping.
    """
    # The input is sorted and non-overlapping, so starts AND ends are
    # strictly increasing: fragments wholly left of the new range come
    # first, then (at most a few) overlapping ones, then wholly-right
    # ones. The outside fragments survive by reference — only the
    # overlap region needs clipping — which keeps the dominant append
    # pattern (new fragment at the tail) O(list copy) instead of
    # reconstructing every Fragment.
    ns, ne = new.start, new.end
    out: List[Fragment] = []
    tail: List[Fragment] = []
    for frag in previous:
        if frag.end <= ns:
            out.append(frag)
        elif frag.start >= ne:
            tail.append(frag)
        else:
            left = frag.clip(0, ns)
            if left is not None:
                out.append(left)
            right = frag.clip(ne, frag.end)
            if right is not None:
                tail.append(right)
    out.append(new)
    out.extend(tail)
    for a, b in zip(out, out[1:]):
        if a.end > b.start:  # pragma: no cover - invariant guard
            raise AssertionError(f"overlapping fragments {a} / {b}")
    return tuple(out)


PAGE = 64


@st.composite
def fragment_lists(draw):
    """Sorted, non-overlapping fragments over a PAGE-byte page, with
    random gaps between them (a leaf after an aborted neighbour)."""
    cuts = sorted(draw(st.sets(st.integers(0, PAGE), max_size=24)))
    out = []
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if draw(st.booleans()):
            off = draw(st.integers(0, 16))
            out.append(frag(lo, hi - lo, f"old{k}", data_offset=off))
    return tuple(out)


@st.composite
def overlay_cases(draw):
    """A previous list plus a new fragment whose edges often sit exactly
    on existing fragment boundaries."""
    previous = draw(fragment_lists())
    edges = sorted({0, PAGE} | {f.start for f in previous} | {f.end for f in previous})
    point = st.one_of(st.sampled_from(edges), st.integers(0, PAGE))
    a, b = draw(point), draw(point)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        hi = lo + 1
    return previous, frag(lo, hi - lo, "new", data_offset=draw(st.integers(0, 8)))


_P = frag(0, PAGE, "full")
_SPLIT = (frag(0, 16, "a"), frag(16, 16, "b"), frag(40, 24, "c"))


@given(case=overlay_cases())
@example(case=((), frag(10, 5, "new")))  # empty previous
@example(case=((_P,), frag(10, 20, "new")))  # mid-page overwrite
@example(case=(_SPLIT, frag(16, 16, "new")))  # exact boundaries
@example(case=(_SPLIT, frag(0, PAGE, "new")))  # full cover
@example(case=(_SPLIT, frag(8, 40, "new")))  # clips both ends, spans a gap
@example(case=(_SPLIT, frag(64, 8, "new")))  # tail append
def test_bisect_overlay_matches_linear_oracle(case):
    previous, new = case
    assert overlay(previous, new) == linear_overlay(previous, new)
    assert overlay(list(previous), new) == linear_overlay(previous, new)


class _CountingTuple(tuple):
    """A fragment list that counts the elements a caller touches: one
    per ``__getitem__`` call, the whole length per ``__iter__`` call."""

    def __getitem__(self, index):
        self.touches += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.touches += len(self)
        return super().__iter__()


def _counting(frags) -> _CountingTuple:
    out = _CountingTuple(frags)
    out.touches = 0
    return out


class TestOverlayIsLogarithmic:
    N = 10_000

    def _tail_leaf(self, n):
        pid = fresh_page_id(1, "w")
        return tuple(Fragment(4 * i, 4, pid, 0, ("p0",)) for i in range(n))

    def test_tail_append_touches_log_n_elements(self):
        frags = self._tail_leaf(self.N)
        prev = _counting(frags)
        new = frag(4 * self.N, 4, "new")
        result = overlay(prev, new)
        assert result == linear_overlay(frags, new)
        bound = 4 * math.ceil(math.log2(self.N)) + 16
        assert 0 < prev.touches <= bound, prev.touches

    def test_unaligned_tail_append_touches_log_n_elements(self):
        # the live path's shape: a record ending mid-fragment is
        # followed by one starting there, clipping the last fragment
        frags = self._tail_leaf(self.N)
        prev = _counting(frags)
        new = frag(4 * self.N - 2, 6, "new")
        result = overlay(prev, new)
        assert result == linear_overlay(frags, new)
        assert prev.touches <= 4 * math.ceil(math.log2(self.N)) + 16

    def test_the_linear_walk_would_fail_the_bound(self):
        # guards the counter itself: an O(n) walk must register as such
        prev = _counting(self._tail_leaf(self.N))
        linear_overlay(prev, frag(4 * self.N, 4, "new"))
        assert prev.touches >= self.N


class TestFirstEndingAfter:
    def test_positions(self):
        frags = (frag(0, 4), frag(4, 4), frag(10, 2))
        assert first_ending_after(frags, 0) == 0
        assert first_ending_after(frags, 3) == 0
        assert first_ending_after(frags, 4) == 1
        assert first_ending_after(frags, 8) == 2  # gap [8, 10) → next one
        assert first_ending_after(frags, 12) == 3
        assert first_ending_after((), 5) == 0
