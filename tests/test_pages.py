"""Tests for page objects and physical extents."""

from repro.core.pages import PageState, PhysicalExtent, SmallPage


class TestSmallPage:
    def test_initial_state(self):
        page = SmallPage(page_id=0, group_id="g", large_page_id=0)
        assert page.is_empty
        assert not page.is_used
        assert not page.is_evictable
        assert page.ref_count == 0

    def test_reset_preserves_placement(self):
        page = SmallPage(page_id=23, group_id="g", large_page_id=7)
        page.state = PageState.USED
        page.request_id = "r1"
        page.ref_count = 2
        page.last_access = 9.0
        page.prefix_length = 5.0
        page.block_hash = 42
        page.num_tokens = 16
        page.reset()
        assert page.is_empty
        assert page.large_page_id == 7
        assert page.request_id is None
        assert page.ref_count == 0
        assert page.block_hash is None
        assert page.num_tokens == 0

    def test_state_predicates(self):
        page = SmallPage(page_id=0, group_id="g", large_page_id=0)
        page.state = PageState.USED
        assert page.is_used and not page.is_empty
        page.state = PageState.EVICTABLE
        assert page.is_evictable and not page.is_used


class TestPhysicalExtent:
    def test_end(self):
        assert PhysicalExtent(100, 50).end == 150

    def test_overlap_detection(self):
        a = PhysicalExtent(0, 100)
        b = PhysicalExtent(100, 100)
        c = PhysicalExtent(99, 2)
        assert not a.overlaps(b)
        assert not b.overlaps(a)
        assert a.overlaps(c)
        assert c.overlaps(b)

    def test_self_overlap(self):
        a = PhysicalExtent(10, 5)
        assert a.overlaps(a)

    def test_as_tuple(self):
        assert PhysicalExtent(4, 8).as_tuple() == (4, 8)
