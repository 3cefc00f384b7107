"""Document scoring: the machine-learned model evaluator (§4.6).

The last stage of the pipeline takes features and free-form expressions
as inputs and produces a single floating-point score, which determines
the document's position in the ranked results.  The model occupies
three FPGAs (Scoring 0/1/2 in Figure 5), so the evaluator is an
additive ensemble of decision trees partitioned into three banks whose
partial sums combine down the pipeline.

``DecisionTree.evaluate`` walks ``TreeNode`` objects and is the
reference.  ``BoostedTreeScorer`` compiles each bank, on the scorer's
first use, into one Python function of the packed vector per group of
``GROUP`` consecutive trees, returning the tuple of their leaf values.
Each tree is a nested conditional expression such as ``(0.5) if x[3] <=
1.25 else -1.0``, so a walk is straight-line bytecode with every
threshold and leaf a constant, and a bank call makes one Python call
per group, not one per tree.  A packed vector too short for the largest
feature index is padded with ``0.0`` once per bank call, which is what
the reference reads for an out-of-range feature.

Scores must match the reference bit for bit.  Leaf values are therefore
collected in tree order and added by one ``sum()``, as the reference
does; the full score interleaves the three banks' leaves back into tree
order rather than adding their partial sums.  Python 3.12's ``sum()``
of floats is compensated, so neither the order nor ``sum()`` itself may
change.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class TreeNode:
    """A binary decision node (``left``/``right``) or a leaf (``value``).

    ``feature`` indexes the *packed* feature vector produced by the
    Compression stage, not raw feature slots.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclasses.dataclass(frozen=True)
class DecisionTree:
    """One regression tree over the packed feature vector."""

    root: TreeNode

    def __post_init__(self) -> None:
        # A malformed node would otherwise fail (or read ``packed[-1]``)
        # only when a request first takes its path.
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.left is None and node.right is None:
                continue
            if node.left is None or node.right is None:
                raise ValueError("a decision node needs both children")
            if node.feature < 0:
                raise ValueError(f"decision node has feature {node.feature}")
            stack.append(node.left)
            stack.append(node.right)

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        node = self.root
        while not node.is_leaf:
            value = packed[node.feature] if node.feature < len(packed) else 0.0
            node = node.left if value <= node.threshold else node.right
        return node.value

    def node_count(self) -> int:
        def count(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def depth(self) -> int:
        def measure(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self.root)


def _source(node: TreeNode, features: set) -> tuple[str, int]:
    """Python source of the subtree at ``node``, and its parenthesis depth.

    A decision node is a conditional expression.  Its child with the
    deeper nesting goes in the ``else`` branch, which needs no
    parentheses, so nesting grows with log2 of the node count and not
    with tree depth (the parser refuses 200 nested parentheses).  When
    that child is the left one, the test is negated: ``not x <= t`` is
    true for a NaN input, which goes right, as in the reference.
    """
    if node.left is None:
        return repr(node.value), 0
    features.add(node.feature)
    test = f"x[{node.feature}] <= {node.threshold!r}"
    left, left_depth = _source(node.left, features)
    right, right_depth = _source(node.right, features)
    if left_depth > right_depth:
        return f"({right}) if not {test} else {left}", max(left_depth, right_depth + 1)
    return f"({left}) if {test} else {right}", max(right_depth, left_depth + 1)


# ``repr`` spells infinities and NaN as names.
_CONSTANTS = {"inf": math.inf, "nan": math.nan}

# Trees per compiled function, by measurement on a paper-scale model
# (200 trees a bank; Python 3.11, 2-core x86 container): a bank call
# takes 35 us with one function per tree, 31 with groups of 10, 26.5
# with 25, 25.3 with 50 and 24.3 with the whole bank as one function.
# The parser's memory stays resident after compiling, growing with the
# group: 5 MB more than 25 at 50, 30 MB more at a whole bank.
GROUP = 25


class BoostedTreeScorer:
    """An additive tree ensemble split into three scoring banks."""

    BANKS = 3

    def __init__(self, trees: list, learning_rate: float = 0.1):
        if not trees:
            raise ValueError("scorer needs at least one tree")
        self.trees = list(trees)
        self.learning_rate = learning_rate
        self._banks: tuple | None = None  # per bank, its group functions; built on first use
        self._width = 0  # largest feature index + 1

    def _compile(self) -> tuple:
        """Per bank, one function per group of ``GROUP`` consecutive trees
        returning the tuple of their leaf values."""
        features: set = set()
        shared: dict = {}
        banks = []
        for index in range(self.BANKS):
            trees = self.bank(index)
            groups = []
            for start in range(0, len(trees), GROUP):
                leaves = "".join(
                    _source(tree.root, features)[0] + ", " for tree in trees[start : start + GROUP]
                )
                f = eval(f"lambda x: ({leaves})", _CONSTANTS)
                # One object per distinct constant across the trees (keyed
                # by repr, which keeps -0.0 apart from 0.0): a quarter
                # less memory, and fewer cache misses per walk.
                f.__code__ = f.__code__.replace(
                    co_consts=tuple(
                        shared.setdefault((c.__class__, repr(c)), c) for c in f.__code__.co_consts
                    )
                )
                groups.append(f)
            banks.append(tuple(groups))
        self._width = max(features, default=-1) + 1
        self._banks = tuple(banks)
        return self._banks

    def _leaves(self, index: int, packed: collections.abc.Sequence[float]) -> list:
        """The leaf values of bank ``index``'s trees on ``packed``, in order."""
        banks = self._banks or self._compile()
        x = packed
        if len(x) < self._width:
            x = list(x) + [0.0] * (self._width - len(x))
        leaves = []
        for group in banks[index]:
            leaves += group(x)
        return leaves

    def bank(self, index: int) -> list:
        """The trees evaluated on scoring FPGA ``index`` (round-robin)."""
        if not 0 <= index < self.BANKS:
            raise ValueError(f"bank index {index} out of range")
        return self.trees[index :: self.BANKS]

    def evaluate_bank(self, index: int, packed: collections.abc.Sequence[float]) -> float:
        """Partial sum contributed by one scoring FPGA."""
        if not 0 <= index < self.BANKS:
            raise ValueError(f"bank index {index} out of range")
        return self.learning_rate * sum(self._leaves(index, packed))

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        """The full score: what the three banks' partial sums add up to.

        Tree ``i`` is in bank ``i % 3``, so interleaving the banks' leaves
        puts them back in tree order.
        """
        leaves = [0.0] * len(self.trees)
        for index in range(self.BANKS):
            leaves[index :: self.BANKS] = self._leaves(index, packed)
        return self.learning_rate * sum(leaves)

    def bank_node_count(self, index: int) -> int:
        return sum(tree.node_count() for tree in self.bank(index))

    @property
    def tree_count(self) -> int:
        return len(self.trees)
