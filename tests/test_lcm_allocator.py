"""Tests for the first-level (large page) allocator."""

import pytest

from repro.core.lcm_allocator import LCMAllocator, OutOfLargePagesError


def make(total=768 * 10, sizes=None):
    return LCMAllocator(total, sizes or {"image": 256, "text": 384})


def allocate(alloc, group_id):
    """Take one large page for ``group_id``; returns its id."""
    (page_id,) = alloc.take(group_id, 1)
    return page_id


class TestConstruction:
    def test_page_size_is_lcm(self):
        alloc = make()
        assert alloc.large_page_bytes == 768  # Figure 6's example

    def test_num_pages(self):
        alloc = make(total=768 * 10)
        assert alloc.num_pages == 10
        assert alloc.slack_bytes == 0

    def test_slack_accounting(self):
        alloc = make(total=768 * 10 + 100)
        assert alloc.num_pages == 10
        assert alloc.slack_bytes == 100

    def test_too_small_region_raises(self):
        with pytest.raises(ValueError):
            make(total=100)

    def test_zero_bytes_raises(self):
        with pytest.raises(ValueError):
            make(total=0)

    def test_no_groups_raises(self):
        with pytest.raises(ValueError):
            LCMAllocator(1024, {})


class TestAllocateFree:
    def test_allocate_assigns_owner(self):
        alloc = make()
        page_id = allocate(alloc, "text")
        assert alloc.owner_of(page_id) == "text"
        assert alloc.num_pages - alloc.num_free == 1

    def test_exhaustion_raises(self):
        alloc = make(total=768 * 2)
        allocate(alloc, "text")
        allocate(alloc, "image")
        with pytest.raises(OutOfLargePagesError) as exc:
            allocate(alloc, "text")
        assert exc.value.requester == "text"

    def test_take_hands_out_pages_in_free_order(self):
        alloc = make(total=768 * 4)
        assert alloc.take("text", 0) == []
        first = alloc.take("text", 2)
        assert first == [0, 1] and [alloc.owner[i] for i in first] == ["text", "text"]
        alloc.free(0)
        assert alloc.take("image", 2) == [2, 3]
        with pytest.raises(OutOfLargePagesError):
            alloc.take("image", 2)  # one free: nothing is taken
        assert alloc.take("image", 1) == [0] and alloc.owner[0] == "image"

    def test_free_returns_to_pool(self):
        alloc = make(total=768 * 1)
        page_id = allocate(alloc, "text")
        assert alloc.num_free == 0
        alloc.free(page_id)
        assert alloc.num_free == 1

    def test_double_free_raises(self):
        alloc = make()
        page_id = allocate(alloc, "text")
        alloc.free(page_id)
        with pytest.raises(ValueError):
            alloc.free(page_id)

    def test_freed_page_reusable_by_any_group(self):
        # No external fragmentation: a page freed by one type serves another.
        alloc = make(total=768 * 1)
        page_id = allocate(alloc, "text")
        alloc.free(page_id)
        assert alloc.owner_of(page_id) is None
        assert allocate(alloc, "image") == page_id
        assert alloc.owner_of(page_id) == "image"


class TestGeometry:
    def test_small_pages_per_large(self):
        alloc = make()
        assert alloc.small_pages_per_large("image") == 3  # 768 / 256
        assert alloc.small_pages_per_large("text") == 2  # 768 / 384

    def test_extents_do_not_overlap(self):
        alloc = make()
        extents = [alloc.extent_of(i) for i in range(alloc.num_pages)]
        for i, a in enumerate(extents):
            for b in extents[i + 1:]:
                assert not a.overlaps(b)

    def test_extent_bounds(self):
        alloc = make()
        last = alloc.extent_of(alloc.num_pages - 1)
        assert last.end <= alloc.total_bytes
        with pytest.raises(IndexError):
            alloc.extent_of(alloc.num_pages)

