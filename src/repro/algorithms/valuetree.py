"""The balanced binary search tree over ``V`` used by Algorithm 3 (§7.4).

Algorithm 3 navigates a balanced BST whose nodes carry the values of ``V``;
each search iteration votes on (value at current node, left subtree, right
subtree).  All anonymous processes must build the *same* tree from the same
``V``, so construction is canonical: sort ``V``, recurse on the midpoint.

Every subtree covers a contiguous run of the sorted value tuple, so a node
stores only its rank interval ``[lo, hi)`` and its own rank ``mid``; the
left subtree is ``[lo, mid)`` and the right ``(mid, hi)``.  With one dict
per tree from each value to its node (whose ``mid`` is the value's rank),
membership in a subtree is two integer comparisons, and the tree is built
in O(|V|) time and memory: no slicing, no per-node value sets.

``parent`` of the root is the root itself, making the paper's "ascend to
the parent" move total (ascending from the root is a harmless no-op — it
can only occur transiently after crashes).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.types import Value
from .encoding import distinct_canonical_values


class TreeNode:
    """One node: its value and the rank interval ``[lo, hi)`` of its subtree.

    ``mid`` is the node's own rank in the tree's sorted value tuple.
    """

    __slots__ = (
        "value", "lo", "mid", "hi", "left", "right", "parent", "depth",
        "_values",
    )

    def __init__(
        self, values: Tuple[Value, ...], lo: int, hi: int, depth: int
    ) -> None:
        self._values = values
        self.lo = lo
        self.mid = mid = (lo + hi) // 2
        self.hi = hi
        self.value: Value = values[mid]
        self.depth = depth
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None
        self.parent: Optional[TreeNode] = None

    @property
    def left_values(self) -> FrozenSet[Value]:
        """The values of the left subtree."""
        return frozenset(self._values[self.lo:self.mid])

    @property
    def right_values(self) -> FrozenSet[Value]:
        """The values of the right subtree."""
        return frozenset(self._values[self.mid + 1:self.hi])

    def __repr__(self) -> str:
        return f"TreeNode({self.value!r}, depth={self.depth})"


class ValueTree:
    """A canonical balanced BST over a value set."""

    def __init__(self, values: Iterable[Value]) -> None:
        self._values = distinct_canonical_values(values)
        # value -> its node; the node's ``mid`` is the value's rank.
        self._node_of: Dict[Value, TreeNode] = {}
        self.root = self._build(0, len(self._values), 0)
        self.root.parent = self.root  # ascending from the root is a no-op

    def _build(self, lo: int, hi: int, depth: int) -> TreeNode:
        node = TreeNode(self._values, lo, hi, depth)
        self._node_of[node.value] = node
        if lo < node.mid:
            node.left = self._build(lo, node.mid, depth + 1)
            node.left.parent = node
        if node.mid + 1 < hi:
            node.right = self._build(node.mid + 1, hi, depth + 1)
            node.right.parent = node
        return node

    # ------------------------------------------------------------------
    @property
    def values(self) -> Tuple[Value, ...]:
        """The canonically ordered value set."""
        return self._values

    @property
    def height(self) -> int:
        """Longest root-to-leaf edge count — at most ``⌈lg|V|⌉``."""
        return max(node.depth for node in self._node_of.values())

    def rank(self, value: Value) -> int:
        """``value``'s index in :attr:`values`, or -1 for a value outside V."""
        node = self._node_of.get(value)
        return -1 if node is None else node.mid

    def find(self, value: Value) -> TreeNode:
        """Locate ``value``'s node (values are unique, so exactly one)."""
        node = self._node_of.get(value)
        if node is None:
            raise ConfigurationError(f"value {value!r} not in the tree")
        return node

    def nodes(self) -> List[TreeNode]:
        """All nodes in-order (sorted by value)."""
        return [self._node_of[v] for v in self._values]

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"ValueTree(|V|={len(self._values)}, height={self.height})"
