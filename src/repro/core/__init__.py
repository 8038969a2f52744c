"""Core data structures: CSSTs, their building blocks, and the baselines.

The package follows the structure of the paper:

* :mod:`repro.core.suffix_minima` -- the dynamic suffix-minima problem
  (Section 3.1) and a naive reference implementation.
* :mod:`repro.core.segment_tree` -- classic dense segment trees, the "STs"
  building block of [31].
* :mod:`repro.core.sparse_segment_tree` -- Sparse Segment Trees with minima
  indexing, sparse representation and block nodes (Section 3.2), stored as
  parallel int arrays.
* :mod:`repro.core.csst` -- the chain-pair matrix shared by every CSST and
  fully dynamic CSSTs (Section 3.3, Algorithm 2).
* :mod:`repro.core.incremental_csst` -- incremental CSSTs (Section 4,
  Algorithm 3).
* :mod:`repro.core.vector_clock`, :mod:`repro.core.graph_po`,
  :mod:`repro.core.st_partial_order` -- the evaluation baselines
  (Section 5.1).  ``st`` is the incremental CSST over dense segment trees;
  ``vc-flat`` is the vector clocks, packed into one int list per chain.

Each structure has one implementation.
"""

from repro.core.csst import CSST
from repro.core.factory import (
    AUTO_BACKEND,
    BACKENDS,
    DYNAMIC_BACKENDS,
    INCREMENTAL_BACKENDS,
    dynamic_backends,
    incremental_backends,
    make_partial_order,
    register_backend,
    unregister_backend,
)
from repro.core.graph_po import GraphOrder
from repro.core.growable import GrowableOrder
from repro.core.heap import DeletableMinHeap
from repro.core.incremental_csst import IncrementalCSST
from repro.core.instrumented import InstrumentedOrder
from repro.core.interface import NO_SUCCESSOR, Node, PartialOrder
from repro.core.segment_tree import SegmentTree
from repro.core.sparse_segment_tree import DEFAULT_BLOCK_SIZE, SparseSegmentTree
from repro.core.st_partial_order import SegmentTreeOrder
from repro.core.suffix_minima import NaiveSuffixMinima, SuffixMinima
from repro.core.vector_clock import VectorClockOrder

__all__ = [
    "AUTO_BACKEND",
    "BACKENDS",
    "CSST",
    "DEFAULT_BLOCK_SIZE",
    "DYNAMIC_BACKENDS",
    "DeletableMinHeap",
    "GraphOrder",
    "GrowableOrder",
    "INCREMENTAL_BACKENDS",
    "IncrementalCSST",
    "InstrumentedOrder",
    "NO_SUCCESSOR",
    "NaiveSuffixMinima",
    "Node",
    "PartialOrder",
    "SegmentTree",
    "SegmentTreeOrder",
    "SparseSegmentTree",
    "SuffixMinima",
    "VectorClockOrder",
    "dynamic_backends",
    "incremental_backends",
    "make_partial_order",
    "register_backend",
    "unregister_backend",
]
