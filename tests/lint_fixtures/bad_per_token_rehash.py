# jengalint: module=repro/core/kv_manager.py
"""Fixture: from-scratch rehash + per-page emit loop (rule per-token-rehash)."""


def chain_hashes(token_ids, boundaries):
    return list(boundaries)


class PageAllocated:
    def __init__(self, group_id, request_id, page_id, step):
        self.group_id = group_id
        self.request_id = request_id
        self.page_id = page_id
        self.step = step


class PrefixLookup:
    def __init__(self, events):
        self.events = events

    def lookup(self, stream, boundaries):
        # Folds the whole stream every probe instead of reusing the
        # memoized chain on the sequence.
        return chain_hashes(stream, boundaries)

    def allocate_batch(self, group_id, request_id, pages, step):
        # Guarded, so unguarded-emit stays quiet -- but still one event
        # dataclass per page where one PagesAllocated would do.
        if self.events is not None and self.events.has_subscribers(PageAllocated):
            for page in pages:
                self.events.emit(PageAllocated(group_id, request_id, page, step))
