"""Unit tests for the MSI coherence directory."""

import pytest

from repro.errors import CoherenceError
from repro.runtime.coherence import AccessMode, CoherenceDirectory
from repro.runtime.data import DataHandle


@pytest.fixture
def handle():
    return DataHandle(shape=(1024, 1024), name="A")  # home node 0


class TestAccessMode:
    @pytest.mark.parametrize("text,mode", [
        ("r", AccessMode.READ), ("read", AccessMode.READ),
        ("w", AccessMode.WRITE), ("write", AccessMode.WRITE),
        ("rw", AccessMode.READWRITE), ("readwrite", AccessMode.READWRITE),
        ("READWRITE", AccessMode.READWRITE), (" Read ", AccessMode.READ),
    ])
    def test_parse(self, text, mode):
        assert AccessMode.parse(text) is mode

    def test_parse_bad(self):
        with pytest.raises(
            CoherenceError,
            match=r"^unknown access mode 'readonly-ish'; use read\|write\|readwrite$",
        ):
            AccessMode.parse("readonly-ish")

    def test_flags(self):
        assert AccessMode.READ.reads and not AccessMode.READ.writes
        assert AccessMode.WRITE.writes and not AccessMode.WRITE.reads
        assert AccessMode.READWRITE.reads and AccessMode.READWRITE.writes


class TestDirectory:
    def test_initially_valid_at_home(self, handle):
        d = CoherenceDirectory()
        assert d.valid_nodes(handle) == {0}
        assert d.is_valid_on(handle, 0)
        assert not d.is_valid_on(handle, 1)

    def test_read_at_home_needs_nothing(self, handle):
        d = CoherenceDirectory()
        assert d.required_transfer(handle, 0, AccessMode.READ) is None

    def test_read_elsewhere_needs_transfer(self, handle):
        d = CoherenceDirectory()
        need = d.required_transfer(handle, 1, AccessMode.READ)
        assert need is not None
        assert (need.src_node, need.dst_node) == (0, 1)
        assert need.nbytes == handle.nbytes

    def test_pure_write_needs_no_copy(self, handle):
        d = CoherenceDirectory()
        assert d.required_transfer(handle, 2, AccessMode.WRITE) is None

    def test_read_spreads_sharers(self, handle):
        d = CoherenceDirectory()
        need = d.required_transfer(handle, 1, AccessMode.READ)
        d.note_transfer(need)
        d.note_access(handle, 1, AccessMode.READ)
        assert d.valid_nodes(handle) == {0, 1}
        # second reader on node 1 is now free
        assert d.required_transfer(handle, 1, AccessMode.READ) is None

    def test_write_invalidates_others(self, handle):
        d = CoherenceDirectory()
        d.note_transfer(d.required_transfer(handle, 1, AccessMode.READ))
        d.note_access(handle, 1, AccessMode.READ)
        d.note_access(handle, 2, AccessMode.WRITE)
        assert d.valid_nodes(handle) == {2}
        assert d.invalidation_count >= 1

    def test_rw_fetches_then_owns(self, handle):
        d = CoherenceDirectory()
        need = d.required_transfer(handle, 1, AccessMode.READWRITE)
        assert need is not None  # must read the old content
        d.note_transfer(need)
        d.note_access(handle, 1, AccessMode.READWRITE)
        assert d.valid_nodes(handle) == {1}

    def test_preferred_source_is_home(self, handle):
        d = CoherenceDirectory()
        d.note_transfer(d.required_transfer(handle, 3, AccessMode.READ))
        d.note_access(handle, 3, AccessMode.READ)
        need = d.required_transfer(handle, 5, AccessMode.READ)
        assert need.src_node == 0  # home preferred over node 3

    def test_source_after_home_invalidated(self, handle):
        d = CoherenceDirectory()
        d.note_access(handle, 4, AccessMode.WRITE)
        need = d.required_transfer(handle, 2, AccessMode.READ)
        assert need.src_node == 4

    def test_unsourced_transfer_rejected(self, handle):
        from repro.runtime.coherence import TransferNeed

        d = CoherenceDirectory()
        with pytest.raises(CoherenceError, match="valid copies"):
            d.note_transfer(TransferNeed(handle, 7, 1))

    def test_read_without_copy_rejected(self, handle):
        d = CoherenceDirectory()
        with pytest.raises(CoherenceError, match="without a valid copy"):
            d.note_access(handle, 1, AccessMode.READ)

    def test_flush_to_home(self, handle):
        d = CoherenceDirectory()
        d.note_access(handle, 2, AccessMode.WRITE)
        need = d.flush_to_home(handle)
        assert (need.src_node, need.dst_node) == (2, 0)
        d.note_transfer(need)
        assert d.is_valid_on(handle, 0)
        assert d.flush_to_home(handle) is None

    def test_stats(self, handle):
        d = CoherenceDirectory()
        d.note_transfer(d.required_transfer(handle, 1, AccessMode.READ))
        assert d.transfer_count == 1
        assert d.bytes_transferred == handle.nbytes
        d.reset()
        assert d.transfer_count == 0
        assert d.valid_nodes(handle) == {0}

    def test_independent_handles(self):
        d = CoherenceDirectory()
        a = DataHandle(shape=(4,), name="a")
        b = DataHandle(shape=(4,), name="b")
        d.note_access(a, 1, AccessMode.WRITE)
        assert d.valid_nodes(b) == {0}


class TestNeedMemo:
    """The memoized read-source lane used by the vectorized engine must
    track every validity transition the reference methods see."""

    def test_needed_src_matches_required_transfer(self, handle):
        d = CoherenceDirectory()
        # resident on home: no transfer either way
        assert d.needed_src(handle, 0) == -1
        assert d.required_transfer_cached(handle, 0, AccessMode.READ) is None
        # absent on node 2: both pick the home copy
        need = d.required_transfer(handle, 2, AccessMode.READ)
        assert d.needed_src(handle, 2) == need.src_node == 0

    def test_memo_invalidated_by_transfer(self, handle):
        d = CoherenceDirectory()
        assert d.needed_src(handle, 1) == 0
        d.note_transfer(d.required_transfer(handle, 1, AccessMode.READ))
        assert d.needed_src(handle, 1) == -1  # now resident

    def test_memo_invalidated_by_write(self, handle):
        d = CoherenceDirectory()
        assert d.needed_src(handle, 0) == -1
        d.note_access(handle, 2, AccessMode.WRITE)  # node 2 exclusive
        assert d.needed_src(handle, 0) == 2
        assert d.needed_src(handle, 1) == 2

    def test_needed_src_many_one_pass(self, handle):
        d = CoherenceDirectory()
        d.note_access(handle, 3, AccessMode.WRITE)
        srcs = d.needed_src_many(handle, [0, 1, 2, 3])
        assert srcs == [3, 3, 3, -1]
        # agrees with the per-node method after caching
        assert [d.needed_src(handle, n) for n in (0, 1, 2, 3)] == srcs

    def test_write_only_needs_nothing(self, handle):
        d = CoherenceDirectory()
        assert d.required_transfer_cached(handle, 5, AccessMode.WRITE) is None

    def test_epoch_bumps_on_transitions(self, handle):
        d = CoherenceDirectory()
        e0 = d.epoch_of(handle)
        d.note_transfer(d.required_transfer(handle, 1, AccessMode.READ))
        e1 = d.epoch_of(handle)
        assert e1 > e0
        d.note_access(handle, 2, AccessMode.WRITE)
        e2 = d.epoch_of(handle)
        assert e2 > e1
        d.invalidate_need_cache(handle)
        assert d.epoch_of(handle) > e2

    def test_epoch_stable_on_reads(self, handle):
        d = CoherenceDirectory()
        e0 = d.epoch_of(handle)
        d.note_access(handle, 0, AccessMode.READ)
        assert d.needed_src(handle, 4) == 0
        assert d.epoch_of(handle) == e0

    def test_epoch_stable_on_sole_owner_write(self, handle):
        """A write by the only node holding a valid copy changes no
        state, so the epoch (and the memo keyed on it) stays."""
        d = CoherenceDirectory()
        d.note_access(handle, 2, AccessMode.WRITE)
        assert d.needed_src(handle, 0) == 2
        e0 = d.epoch_of(handle)
        d.note_access(handle, 2, AccessMode.READWRITE)
        assert d.epoch_of(handle) == e0
        assert d.valid_nodes(handle) == {2}
        assert d.invalidation_count == 1  # the first write dropped home

    def test_reset_clears_memo(self, handle):
        d = CoherenceDirectory()
        d.note_access(handle, 2, AccessMode.WRITE)
        assert d.needed_src(handle, 0) == 2
        d.reset()
        assert d.needed_src(handle, 0) == -1  # back to home-only

    def test_eviction_invalidation_hook(self, handle):
        """The capacity manager edits validity sets in place and must be
        able to drop stale memo entries explicitly."""
        d = CoherenceDirectory()
        d.note_transfer(d.required_transfer(handle, 1, AccessMode.READ))
        assert d.needed_src(handle, 1) == -1
        # out-of-band eviction (what MemoryCapacityManager._evict does)
        d.valid_nodes(handle).discard(1)
        d.invalidate_need_cache(handle)
        assert d.needed_src(handle, 1) == 0  # re-derived, not stale
