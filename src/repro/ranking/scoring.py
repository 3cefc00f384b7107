"""Document scoring: the machine-learned model evaluator (§4.6).

The last stage of the pipeline takes features and free-form expressions
as inputs and produces a single floating-point score, which determines
the document's position in the ranked results.  The model occupies
three FPGAs (Scoring 0/1/2 in Figure 5), so the evaluator is an
additive ensemble of decision trees partitioned into three banks whose
partial sums combine down the pipeline.

``DecisionTree.evaluate`` walks ``TreeNode`` objects and is the
reference.  ``BoostedTreeScorer`` scores over a flat form of each tree,
built on the scorer's first use: a decision node is the tuple
``(feature, threshold, left, right)`` and a leaf is its bare value, so
one walk step is a class check and two tuple reads.  A packed vector
too short for the largest feature index is padded with ``0.0`` once per
call, which is what the reference reads for an out-of-range feature.

Scores must match the reference bit for bit.  Leaf values are therefore
collected in tree order and added by one ``sum()``, as the reference
does: Python 3.12's ``sum()`` of floats is compensated, so neither the
order nor ``sum()`` itself may change.
"""

from __future__ import annotations

import collections.abc
import dataclasses


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
        import math

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


def _flatten(node: TreeNode, features: list):
    """The flat form of the subtree at ``node`` (see the module docstring)."""
    if node.left is None:
        return node.value
    features.append(node.feature)
    return (
        node.feature,
        node.threshold,
        _flatten(node.left, features),
        _flatten(node.right, features),
    )


class BoostedTreeScorer:
    """An additive tree ensemble split into three scoring banks."""

    BANKS = 3

    def __init__(self, trees: list, learning_rate: float = 0.1):
        if not trees:
            raise ValueError("scorer needs at least one tree")
        self.trees = list(trees)
        self.learning_rate = learning_rate
        self._flat: tuple | None = None  # (trees, banks), built on first use
        self._width = 0  # largest feature index + 1

    def _flat_form(self) -> tuple:
        """The flat trees in tree order, and the flat trees of each bank."""
        if self._flat is None:
            features: list = []
            trees = [_flatten(tree.root, features) for tree in self.trees]
            self._width = max(features, default=-1) + 1
            self._flat = (trees, [trees[i :: self.BANKS] for i in range(self.BANKS)])
        return self._flat

    def _leaves(self, roots: list, packed: collections.abc.Sequence[float]) -> list:
        """Leaf values of the flat trees ``roots`` on ``packed``, in order."""
        x = packed
        if len(x) < self._width:
            x = list(x) + [0.0] * (self._width - len(x))
        leaves = []
        for n in roots:
            while n.__class__ is tuple:
                n = n[2] if x[n[0]] <= n[1] else n[3]
            leaves.append(n)
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
        banks = self._flat_form()[1]
        return self.learning_rate * sum(self._leaves(banks[index], packed))

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        """The full score: what the three banks' partial sums add up to."""
        return self.learning_rate * sum(self._leaves(self._flat_form()[0], packed))

    def bank_node_count(self, index: int) -> int:
        return sum(tree.node_count() for tree in self.bank(index))

    @property
    def tree_count(self) -> int:
        return len(self.trees)
