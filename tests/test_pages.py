"""Tests for small-page slots and physical extents."""

from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.pages import PageState, PhysicalExtent
from repro.core.sequence import TEXT
from repro.core.two_level import TwoLevelAllocator


def carved(num_large=2):
    """An allocator whose group "g" has four pages per large page (the
    large page is a page of group "big")."""
    specs = {
        name: GroupSpec(name, FULL_ATTENTION, 1, per_token_bytes=size, tokens_per_page=4,
                        accepted_tags=frozenset({TEXT}))
        for name, size in (("g", 16), ("big", 64))
    }
    large = specs["big"].page_bytes
    alloc = TwoLevelAllocator(
        large * num_large, specs, {name: make_policy(s) for name, s in specs.items()}
    )
    assert alloc.groups["g"].small_per_large == 4
    return alloc, alloc.groups["g"]


class TestSlots:
    def test_a_carved_slot_starts_empty(self):
        alloc, group = carved()
        assert group.state == [None] * 8
        page = alloc.allocate_page("g", "r1")
        for slot in group.slots(page // 4):
            if slot != page:
                assert group.state[slot] is PageState.EMPTY
                assert group.ref_count[slot] == 0
                assert group.request_id[slot] == "r1"
        assert group.state[page] is PageState.USED and group.ref_count[page] == 1

    def test_emptying_clears_the_slot_but_keeps_its_placement(self):
        alloc, group = carved()
        pinned, page = alloc.allocate_pages("g", "r1", 2)
        alloc.register_block_hash("g", page, 42)
        group.num_tokens[page] = 4
        group.last_access[page] = 9.0
        group.prefix_length[page] = 5.0
        alloc.release_page("g", page, cacheable=False)
        assert group.state[page] is PageState.EMPTY  # still carved
        assert page // 4 == pinned // 4
        assert group.request_id[page] == "r1"  # kept for step 1
        assert group.ref_count[page] == 0
        assert group.block_hash[page] is None
        assert group.num_tokens[page] == 0
        assert (group.last_access[page], group.prefix_length[page]) == (-1.0, 0.0)
        alloc.check_invariants()

    def test_returning_the_large_page_uncarves_every_slot(self):
        alloc, group = carved(num_large=1)
        pages = alloc.allocate_pages("g", "r1", 2)
        alloc.release_pages("g", pages, cacheable=False)
        assert group.state == [None] * 4
        assert group.carve == [1]
        assert alloc.allocate_page("g", "r2") == pages[0]  # the same id ...
        assert group.carve == [2]  # ... of the next carve
        alloc.check_invariants()


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

