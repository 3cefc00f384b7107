"""Document scoring: the machine-learned model evaluator (§4.6).

The last stage of the pipeline takes features and free-form expressions
as inputs and produces a single floating-point score, which determines
the document's position in the ranked results.  The model occupies
three FPGAs (Scoring 0/1/2 in Figure 5), so the evaluator is an
additive ensemble of decision trees partitioned into three banks whose
partial sums combine down the pipeline.

``DecisionTree.evaluate`` walks ``TreeNode`` objects and is the
reference.  ``BoostedTreeScorer`` compiles each tree, on the scorer's
first use, into one Python function of the packed vector: a nested
conditional expression such as ``lambda x: (0.5) if x[3] <= 1.25 else
-1.0``, so a walk is straight-line bytecode with every threshold and
leaf a constant.  A packed vector too short for the largest feature
index is padded with ``0.0`` once per call, which is what the reference
reads for an out-of-range feature.

Scores must match the reference bit for bit.  Leaf values are therefore
collected in tree order and added by one ``sum()``, as the reference
does: Python 3.12's ``sum()`` of floats is compensated, so neither the
order nor ``sum()`` itself may change.
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


class NeuralScorer:
    """A two-layer MLP scorer (the RankNet-style alternative).

    Bing-era ranking mixed boosted trees with neural models; the
    scoring FPGAs hold whichever the selected model uses.  The hidden
    layer is split across the three scoring banks: each bank evaluates
    a third of the hidden units and contributes its partial sum of
    ``v_j * tanh(w_j . x + b_j)``; the output bias rides with bank 2.
    """

    BANKS = 3

    def __init__(self, weights, hidden_bias, output_weights, output_bias=0.0):
        if not weights:
            raise ValueError("need at least one hidden unit")
        if len(weights) != len(hidden_bias) or len(weights) != len(output_weights):
            raise ValueError("hidden bias / output weights must match hidden units")
        self.weights = [list(w) for w in weights]  # hidden x features
        self.hidden_bias = list(hidden_bias)
        self.output_weights = list(output_weights)
        self.output_bias = output_bias

    @property
    def hidden_units(self) -> int:
        return len(self.weights)

    def _unit(self, j: int, packed: collections.abc.Sequence[float]) -> float:
        w = self.weights[j]
        activation = self.hidden_bias[j] + sum(
            w[i] * packed[i] for i in range(min(len(w), len(packed)))
        )
        return self.output_weights[j] * math.tanh(activation)

    def evaluate_bank(self, index: int, packed: collections.abc.Sequence[float]) -> float:
        if not 0 <= index < self.BANKS:
            raise ValueError(f"bank index {index} out of range")
        partial = sum(
            self._unit(j, packed)
            for j in range(index, self.hidden_units, self.BANKS)
        )
        if index == 2:
            partial += self.output_bias
        return partial

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        return sum(self.evaluate_bank(i, packed) for i in range(self.BANKS))

    def bank_node_count(self, index: int) -> int:
        """Parameter count proxy for Model Reload sizing."""
        units = len(range(index, self.hidden_units, self.BANKS))
        width = len(self.weights[0]) if self.weights else 0
        return units * (width + 2)

    @property
    def tree_count(self) -> int:  # uniform scorer interface
        return self.hidden_units


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


class BoostedTreeScorer:
    """An additive tree ensemble split into three scoring banks."""

    BANKS = 3

    def __init__(self, trees: list, learning_rate: float = 0.1):
        if not trees:
            raise ValueError("scorer needs at least one tree")
        self.trees = list(trees)
        self.learning_rate = learning_rate
        self._compiled: tuple | None = None  # (trees, banks), built on first use
        self._width = 0  # largest feature index + 1

    def _functions(self) -> tuple:
        """One compiled function per tree in tree order, and per bank."""
        if self._compiled is None:
            features: set = set()
            shared: dict = {}
            trees = []
            for tree in self.trees:
                f = eval("lambda x: " + _source(tree.root, features)[0], _CONSTANTS)
                # One object per distinct constant across the trees (keyed
                # by repr, which keeps -0.0 apart from 0.0): a quarter
                # less memory, and fewer cache misses per walk.
                f.__code__ = f.__code__.replace(
                    co_consts=tuple(
                        shared.setdefault((c.__class__, repr(c)), c) for c in f.__code__.co_consts
                    )
                )
                trees.append(f)
            self._width = max(features, default=-1) + 1
            self._compiled = (trees, [trees[i :: self.BANKS] for i in range(self.BANKS)])
        return self._compiled

    def _sum(self, functions: list, packed: collections.abc.Sequence[float]) -> float:
        """``learning_rate`` times the sum of ``functions`` on ``packed``."""
        x = packed
        if len(x) < self._width:
            x = list(x) + [0.0] * (self._width - len(x))
        return self.learning_rate * sum([f(x) for f in functions])

    def bank(self, index: int) -> list:
        """The trees evaluated on scoring FPGA ``index`` (round-robin)."""
        if not 0 <= index < self.BANKS:
            raise ValueError(f"bank index {index} out of range")
        return self.trees[index :: self.BANKS]

    def evaluate_bank(self, index: int, packed: collections.abc.Sequence[float]) -> float:
        """Partial sum contributed by one scoring FPGA."""
        if not 0 <= index < self.BANKS:
            raise ValueError(f"bank index {index} out of range")
        return self._sum(self._functions()[1][index], packed)

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        """The full score: what the three banks' partial sums add up to."""
        return self._sum(self._functions()[0], packed)

    def bank_node_count(self, index: int) -> int:
        return sum(tree.node_count() for tree in self.bank(index))

    @property
    def tree_count(self) -> int:
        return len(self.trees)
