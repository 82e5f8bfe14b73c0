"""Core data structures used by the profiling runtime.

The paper (section 2.2) keeps object-extent information "in a sorted array
for variables and a red-black tree for heap blocks (since this data will
change as allocations and deallocations take place)"; the search keeps
measured regions in a priority queue ranked by miss percentage. These are
implemented from scratch here so the instrumentation cost model can charge
cycles per probe/rotation/heap operation.
"""

from repro.datastructs.rbtree import RedBlackTree
from repro.datastructs.sorted_table import SortedTable
from repro.datastructs.heap_pq import MaxPriorityQueue

__all__ = ["RedBlackTree", "SortedTable", "MaxPriorityQueue"]
