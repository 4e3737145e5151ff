"""Algorithm 3's value tree against the frozenset-per-node reference.

The tree stores each node's rank interval into the sorted value tuple
instead of two frozensets per node.  These tests pin that rewrite to the
original construction:

* node-for-node equality with a copy of the original recursive
  ``_build`` (value, depth, parent, children, both subtree value sets);
* Theorem 3's bound equals the original tree-height formula;
* Algorithm 3 executions under NOCF with ``IIDLoss(0.3)``, with and
  without crashes, reproduce digests recorded with the original tree,
  with the array kernel on and off;
* a built tree retains a bounded number of bytes per value.
"""

import functools
import hashlib
import random
import tracemalloc

import pytest

from repro.adversary.crash import ScheduledCrashes
from repro.adversary.loss import IIDLoss
from repro.algorithms.alg3 import algorithm_3, termination_bound
from repro.algorithms.encoding import canonical_order
from repro.algorithms.valuetree import ValueTree
from repro.core.environment import array_kernel_module
from repro.core.execution import run_consensus
from repro.core.records import RecordPolicy
from repro.experiments.scenarios import nocf_environment


# ----------------------------------------------------------------------
# Reference: the original recursive construction, one frozenset per side
# ----------------------------------------------------------------------
class _RefNode:
    def __init__(self, value, left_values, right_values, depth):
        self.value = value
        self.left_values = left_values
        self.right_values = right_values
        self.depth = depth
        self.left = self.right = self.parent = None


def _reference_build(vals, depth=0):
    mid = len(vals) // 2
    node = _RefNode(
        vals[mid], frozenset(vals[:mid]), frozenset(vals[mid + 1:]), depth
    )
    if vals[:mid]:
        node.left = _reference_build(vals[:mid], depth + 1)
        node.left.parent = node
    if vals[mid + 1:]:
        node.right = _reference_build(vals[mid + 1:], depth + 1)
        node.right.parent = node
    return node


def _reference_tree(values):
    root = _reference_build(list(canonical_order(values)))
    root.parent = root
    return root


@functools.lru_cache(maxsize=None)
def _reference_height(count):
    """The reference tree's height, from the sizes ``_build`` recurses on."""
    if count == 0:
        return -1
    mid = count // 2
    return 1 + max(
        _reference_height(mid), _reference_height(count - mid - 1)
    )


def _value_of(node):
    return None if node is None else node.value


def _assert_same_tree(node, ref):
    assert (node is None) == (ref is None)
    if ref is None:
        return
    assert node.value == ref.value
    assert type(node.value) is type(ref.value)
    assert node.depth == ref.depth
    assert node.parent.value == ref.parent.value
    assert _value_of(node.left) == _value_of(ref.left)
    assert _value_of(node.right) == _value_of(ref.right)
    assert node.left_values == ref.left_values
    assert node.right_values == ref.right_values
    _assert_same_tree(node.left, ref.left)
    _assert_same_tree(node.right, ref.right)


@pytest.mark.parametrize("size", range(1, 301))
def test_tree_matches_reference_node_for_node(size):
    tree = ValueTree(range(size))
    _assert_same_tree(tree.root, _reference_tree(range(size)))
    assert tree.root.parent is tree.root
    assert tree.height == _reference_height(size)


def test_mixed_type_tree_matches_reference():
    # Not mutually comparable, so V is ordered by repr.
    values = ["b", 3, (1, 2), 2.5, None, "a", frozenset({7}), -4, b"x"]
    with pytest.raises(TypeError):
        sorted(values)
    tree = ValueTree(reversed(values))
    _assert_same_tree(tree.root, _reference_tree(values))
    assert [n.value for n in tree.nodes()] == sorted(values, key=repr)


def test_termination_bound_matches_reference_tree_height():
    for k in range(1, 5001):
        expected = 8 * max(1, _reference_height(k)) + 4
        assert termination_bound(k) == expected, k
        assert termination_bound(k, after_round=7) == expected + 7, k


# ----------------------------------------------------------------------
# Executions pinned to digests recorded with the frozenset tree
# ----------------------------------------------------------------------
SEEDS = (0, 1, 2)

#: sha256 (first 16 hex digits) of ``(rounds, decisions,
#: decision_rounds)`` over SEEDS, keyed by (n, |V|, crashes).
EXPECTED_DIGESTS = {
    (4, 1, False): 'aebb5c47fa32ccb9',
    (4, 1, True): '314cbbf3e4d640de',
    (4, 2, False): '9c60471927abb623',
    (4, 2, True): '471a2338a5594d42',
    (4, 3, False): 'ed06832eaeb27d03',
    (4, 3, True): 'cfd217e88f3a581d',
    (4, 17, False): '6f55c20a8960270b',
    (4, 17, True): '0bf54ee795c0a731',
    (4, 1024, False): 'd0c45f67a25a2080',
    (4, 1024, True): 'b595e8dacb949fd8',
    (16, 1, False): '7757711a6e219558',
    (16, 1, True): '33bd2091153028e1',
    (16, 2, False): '76e725e75d3d226e',
    (16, 2, True): '34753f5bd0e4325e',
    (16, 3, False): '76e725e75d3d226e',
    (16, 3, True): '9910fdbe68fcf79b',
    (16, 17, False): 'a35d46fba998eece',
    (16, 17, True): '020c6f3b4ac6f75f',
    (16, 1024, False): 'e38c294c92475c33',
    (16, 1024, True): 'dfaa425de16f59f9',
    (64, 1, False): '56a17e5fe06eff2e',
    (64, 1, True): 'bd778d1060dfda3f',
    (64, 2, False): 'bf7911051f68a206',
    (64, 2, True): '4e588633e71cde3c',
    (64, 3, False): 'bf7911051f68a206',
    (64, 3, True): 'c490d6f22d5229f1',
    (64, 17, False): '97a5fee0c930ff8f',
    (64, 17, True): '2f20b26935601663',
    (64, 1024, False): '9bd2f95a78eec739',
    (64, 1024, True): 'c2bcb0db7bc69de7',
}


def _run(n, value_count, crashes, seed, use_array_kernel):
    values = list(range(value_count))
    rng = random.Random(seed * 1009 + n * 31 + value_count)
    assignment = {i: rng.choice(values) for i in range(n)}
    crash = None
    after = 0
    if crashes:
        # Crash a quarter of the processes mid-search, some before and
        # some after sending, so the survivors may have to re-ascend.
        victims = rng.sample(range(n), max(1, n // 4))
        schedule = {}
        for k, pid in enumerate(victims):
            schedule.setdefault(2 + 3 * k, []).append(pid)
        crash = ScheduledCrashes.at(schedule, after_send=bool(seed % 2))
        after = max(schedule)
    env = nocf_environment(
        n, crash=crash, loss=IIDLoss(0.3, seed=seed + 11)
    )
    result = run_consensus(
        env, algorithm_3(values), assignment,
        max_rounds=termination_bound(value_count, after_round=after) + 8,
        record_policy=RecordPolicy.SUMMARY,
        use_array_kernel=use_array_kernel,
    )
    return (
        result.rounds,
        sorted(result.decisions.items()),
        sorted(result.decision_rounds.items()),
    )


def _digest(n, value_count, crashes, use_array_kernel):
    outcomes = [
        _run(n, value_count, crashes, seed, use_array_kernel)
        for seed in SEEDS
    ]
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]


KERNEL_MODES = [False] + ([None] if array_kernel_module() else [])


@pytest.mark.parametrize("crashes", [False, True])
@pytest.mark.parametrize("value_count", [1, 2, 3, 17, 1024])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_alg3_executions_match_recorded_digests(n, value_count, crashes):
    expected = EXPECTED_DIGESTS[(n, value_count, crashes)]
    for use_array_kernel in KERNEL_MODES:
        assert _digest(n, value_count, crashes, use_array_kernel) == expected


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def test_tree_retains_under_400_bytes_per_value():
    count = 2 ** 14
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = ValueTree(range(count))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tree) == count
    assert retained / count < 400, retained / count
