"""Tests for the deletable min-heap backing fully dynamic CSSTs."""

import pytest

from repro.core import NO_SUCCESSOR, DeletableMinHeap
from repro.errors import ReproError


class TestBasicOperations:
    def test_empty_heap_has_infinite_min(self):
        assert DeletableMinHeap().min() == NO_SUCCESSOR

    def test_empty_heap_is_falsy(self):
        assert not DeletableMinHeap()

    def test_empty_heap_has_length_zero(self):
        assert len(DeletableMinHeap()) == 0

    def test_insert_updates_min(self):
        heap = DeletableMinHeap()
        heap.insert(7)
        assert heap.min() == 7

    def test_min_is_smallest_of_many(self):
        heap = DeletableMinHeap([9, 3, 5, 8])
        assert heap.min() == 3

    def test_constructor_accepts_iterable(self):
        heap = DeletableMinHeap(range(10, 0, -1))
        assert len(heap) == 10
        assert heap.min() == 1

    def test_length_tracks_inserts(self):
        heap = DeletableMinHeap()
        for value in (4, 2, 9):
            heap.insert(value)
        assert len(heap) == 3

    def test_contains_live_value(self):
        heap = DeletableMinHeap([1, 2, 3])
        assert 2 in heap
        assert 5 not in heap


class TestDeletion:
    def test_delete_non_minimum_keeps_min(self):
        heap = DeletableMinHeap([1, 5, 9])
        heap.delete(5)
        assert heap.min() == 1
        assert len(heap) == 2

    def test_delete_minimum_exposes_next(self):
        heap = DeletableMinHeap([1, 5, 9])
        heap.delete(1)
        assert heap.min() == 5

    def test_delete_all_values_empties_heap(self):
        heap = DeletableMinHeap([4, 2])
        heap.delete(2)
        heap.delete(4)
        assert heap.min() == NO_SUCCESSOR
        assert len(heap) == 0

    def test_delete_missing_value_raises(self):
        heap = DeletableMinHeap([1])
        with pytest.raises(ReproError):
            heap.delete(2)

    def test_delete_same_value_twice_raises(self):
        heap = DeletableMinHeap([3])
        heap.delete(3)
        with pytest.raises(ReproError):
            heap.delete(3)

    def test_duplicate_values_delete_one_copy(self):
        heap = DeletableMinHeap([2, 2, 7])
        heap.delete(2)
        assert heap.min() == 2
        assert len(heap) == 2
        heap.delete(2)
        assert heap.min() == 7

    def test_reinsert_after_lazy_delete(self):
        heap = DeletableMinHeap([5, 10])
        heap.delete(10)          # lazy: 10 stays buried in the list
        heap.insert(10)          # cancels the pending deletion
        assert 10 in heap
        heap.delete(5)
        assert heap.min() == 10

    def test_contains_respects_lazy_deletion(self):
        heap = DeletableMinHeap([4, 6])
        heap.delete(6)
        assert 6 not in heap
        assert 4 in heap


class TestPopAndIteration:
    def test_pop_min_returns_values_in_order(self):
        heap = DeletableMinHeap([5, 1, 4, 2, 3])
        assert [heap.pop_min() for _ in range(5)] == [1, 2, 3, 4, 5]

    def test_pop_min_on_empty_raises(self):
        with pytest.raises(ReproError):
            DeletableMinHeap().pop_min()

    def test_pop_min_skips_deleted(self):
        heap = DeletableMinHeap([1, 2, 3])
        heap.delete(1)
        assert heap.pop_min() == 2

    def test_iteration_yields_live_values(self):
        heap = DeletableMinHeap([1, 2, 2, 3])
        heap.delete(2)
        assert sorted(heap) == [1, 2, 3]

    def test_mixed_insert_delete_sequence(self):
        heap = DeletableMinHeap()
        heap.insert(10)
        heap.insert(4)
        heap.delete(4)
        heap.insert(6)
        heap.insert(2)
        heap.delete(10)
        assert heap.min() == 2
        assert sorted(heap) == [2, 6]
