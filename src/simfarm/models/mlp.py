"""Minimal fully-connected network trained by plain mini-batch SGD.

One or two ReLU hidden layers; identity output with mean-squared-error loss
for regression, softmax with cross-entropy for classification.  No momentum,
adaptive rates, or early stopping: the gradient computation stays small
enough to audit against finite differences (see the test suite).  Weight
initialization and batch shuffling come from seeded substreams, so training
is bit-reproducible.
"""

from __future__ import annotations

import copy

import numpy as np

from ..errors import TrainingError
from ..rng import substream

__all__ = ["MlpModel"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# The passes below take one problem's 2-D matrices, or K problems stacked
# along a leading axis: weights (K, a, b), biases (K, 1, b).  Batched
# ``matmul`` runs the same kernel on every slice, and the bias gradient sums
# over the rows of each slice, so stacked problem k gets the bits that its
# own 2-D pass would.


def _forward_pass(X: np.ndarray, weights: list, biases: list) -> list[np.ndarray]:
    """Activations of every layer, input first."""
    acts = [X]
    for layer in range(len(weights) - 1):
        acts.append(_relu(acts[-1] @ weights[layer] + biases[layer]))
    acts.append(acts[-1] @ weights[-1] + biases[-1])
    return acts


def _backward_pass(task: str, acts: list[np.ndarray], target: np.ndarray, weights: list):
    """Gradients of the mean batch loss for every weight and bias.

    A bias gradient keeps the summed row axis with length 1.
    """
    out = acts[-1]
    if task == "regression":
        delta = 2.0 * (out - target) / (out.shape[-2] * out.shape[-1])
    else:
        delta = (_softmax(out) - target) / out.shape[-2]
    grads_w = [np.empty(0)] * len(weights)
    grads_b = [np.empty(0)] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].swapaxes(-1, -2) @ delta
        grads_b[layer] = delta.sum(axis=-2, keepdims=True)
        if layer > 0:
            delta = (delta @ weights[layer].swapaxes(-1, -2)) * (acts[layer] > 0.0)
    return grads_w, grads_b


class MlpModel:
    def __init__(
        self,
        hidden=(16,),
        learning_rate: float = 0.01,
        epochs: int = 100,
        batch_size: int = 32,
        task: str = "regression",
    ):
        hidden = tuple(int(h) for h in (hidden if isinstance(hidden, (tuple, list)) else (hidden,)))
        if not (1 <= len(hidden) <= 2) or any(h < 1 for h in hidden):
            raise TrainingError(f"hidden must be 1 or 2 positive layer sizes, got {hidden}")
        if learning_rate <= 0:
            raise TrainingError(f"learning_rate must be > 0, got {learning_rate}")
        if epochs < 1 or batch_size < 1:
            raise TrainingError("epochs and batch_size must be >= 1")
        self.hidden = hidden
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.task = task
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self.classes_: np.ndarray | None = None

    # -- core ----------------------------------------------------------------

    def _init_params(self, n_in: int, n_out: int, seed: int) -> None:
        sizes = [n_in, *self.hidden, n_out]
        self.weights = []
        self.biases = []
        for layer, (a, b) in enumerate(zip(sizes, sizes[1:])):
            g = substream(seed, 0, layer)
            scale = np.sqrt(2.0 / a) if layer < len(sizes) - 2 else np.sqrt(1.0 / a)
            self.weights.append(g.normal(0.0, scale, size=(a, b)))
            self.biases.append(np.zeros(b))

    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        return _forward_pass(X, self.weights, self.biases)

    def _encode_targets(self, y: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            return np.asarray(y, dtype=np.float64).reshape(-1, 1)
        onehot = np.zeros((len(y), len(self.classes_)))
        onehot[np.arange(len(y)), np.searchsorted(self.classes_, y)] = 1.0
        return onehot

    def loss_and_grads(self, X: np.ndarray, target: np.ndarray):
        """Mean loss over the batch plus gradients for every weight and bias.

        ``target`` is the encoded target (column vector / one-hot rows).
        """
        acts = self._forward(X)
        out = acts[-1]
        if self.task == "regression":
            loss = float(np.mean((out - target) ** 2))
        else:
            loss = float(-np.mean(np.sum(target * np.log(_softmax(out) + 1e-12), axis=1)))
        return (loss, *self._gradients(acts, target))

    def _gradients(self, acts: list[np.ndarray], target: np.ndarray):
        """Gradients of the mean loss for every weight and bias, from ``_forward``'s output."""
        grads_w, grads_b = _backward_pass(self.task, acts, target, self.weights)
        return grads_w, [g[0] for g in grads_b]

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "MlpModel":
        weights, biases = self._train(
            np.asarray(X, dtype=np.float64)[None], np.asarray(y)[None], seed
        )
        self.weights = [w[0] for w in weights]
        self.biases = [b[0, 0] for b in biases]
        return self

    def fit_stack(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> list["MlpModel"]:
        """Fit K problems of one shape, ``X`` (K, n, a) and ``y`` (K, n), at once.

        Model k is bit-identical to ``fit(X[k], y[k], seed)``: every problem
        starts from the same weights and sees the same batch order.  In
        classification all problems must hold the same set of classes.
        """
        X = np.asarray(X, dtype=np.float64)
        trainer = copy.copy(self)
        weights, biases = trainer._train(X, np.asarray(y), seed)
        models = []
        for k in range(len(X)):
            model = copy.copy(trainer)
            model.weights = [w[k].copy() for w in weights]
            model.biases = [b[k, 0].copy() for b in biases]
            models.append(model)
        return models

    def _train(self, X: np.ndarray, y: np.ndarray, seed: int):
        """SGD on stacked problems; returns weights (K, a, b) and biases (K, 1, b).

        Sets ``classes_`` and leaves the initial weights in ``weights``.
        """
        n_problems, n, n_in = X.shape
        if n < 2:
            raise TrainingError("need at least 2 training rows")
        if self.task == "classification":
            self.classes_ = np.unique(y[0])
            if len(self.classes_) < 2:
                raise TrainingError("classification needs at least 2 classes")
            if any(not np.array_equal(np.unique(yk), self.classes_) for yk in y[1:]):
                raise TrainingError("stacked problems must hold the same classes")
            n_out = len(self.classes_)
        else:
            n_out = 1
        self._init_params(n_in, n_out, seed)
        weights = [np.repeat(w[None], n_problems, axis=0) for w in self.weights]
        biases = [np.repeat(b[None, None], n_problems, axis=0) for b in self.biases]
        target = np.stack([self._encode_targets(yk) for yk in y])
        for epoch in range(self.epochs):
            order = substream(seed, 1, epoch).permutation(n)
            X_epoch, target_epoch = X[:, order], target[:, order]
            for start in range(0, n, self.batch_size):
                stop = start + self.batch_size
                acts = _forward_pass(X_epoch[:, start:stop], weights, biases)
                grads_w, grads_b = _backward_pass(
                    self.task, acts, target_epoch[:, start:stop], weights
                )
                for layer in range(len(weights)):
                    weights[layer] -= self.learning_rate * grads_w[layer]
                    biases[layer] -= self.learning_rate * grads_b[layer]
        return weights, biases

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.weights:
            raise TrainingError("model is not fitted")
        out = self._forward(np.asarray(X, dtype=np.float64))[-1]
        if self.task == "regression":
            return out.ravel()
        return self.classes_[np.argmax(out, axis=1)]

    def to_state(self) -> dict:
        return {
            "hidden": list(self.hidden),
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "task": self.task,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "classes": None if self.classes_ is None else self.classes_.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MlpModel":
        model = cls(
            hidden=tuple(state["hidden"]),
            learning_rate=state["learning_rate"],
            epochs=state["epochs"],
            batch_size=state["batch_size"],
            task=state["task"],
        )
        model.weights = [np.asarray(w, dtype=np.float64) for w in state["weights"]]
        model.biases = [np.asarray(b, dtype=np.float64) for b in state["biases"]]
        if state["classes"] is not None:
            model.classes_ = np.asarray(state["classes"], dtype=np.int64)
        return model
