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

from ..errors import ModelFormatError, TrainingError
from ..rng import substream
from ..schema import either, fail, integer, list_of, obj, real, reporting
from .preprocess import fit_data
from .state import STATE_CLASSES, STATE_TASK, array, hyperparameters, state_classes

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
    HYPERPARAMETERS = {
        # one layer size, or a list of one or two
        "hidden": either(integer(ge=1), list_of(integer(ge=1), 1, 2, what="a list of integers")),
        "learning_rate": real(gt=0),
        "epochs": integer(ge=1),
        "batch_size": integer(ge=1),
    }

    def __init__(
        self,
        hidden=(16,),
        learning_rate: float = 0.01,
        epochs: int = 100,
        batch_size: int = 32,
        task: str = "regression",
    ):
        hidden, self.learning_rate, self.epochs, self.batch_size = hyperparameters(
            self, "mlp", hidden=hidden, learning_rate=learning_rate, epochs=epochs,
            batch_size=batch_size)
        self.hidden = tuple(hidden) if isinstance(hidden, list) else (hidden,)
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
        grads_w, grads_b = _backward_pass(self.task, acts, target, self.weights)
        return loss, grads_w, [g[0] for g in grads_b]

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "MlpModel":
        weights, biases = self._train(np.asarray(X)[None], np.asarray(y)[None], seed)
        self.weights = [w[0] for w in weights]
        self.biases = [b[0, 0] for b in biases]
        return self

    def fit_stack(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> list["MlpModel"]:
        """Fit K problems of one shape, ``X`` (K, n, a) and ``y`` (K, n), at once.

        Model k is bit-identical to ``fit(X[k], y[k], seed)``: every problem
        starts from the same weights and sees the same batch order.  In
        classification all problems must hold the same set of classes.
        """
        trainer = copy.copy(self)
        weights, biases = trainer._train(X, y, seed)
        models = []
        for k in range(len(X)):
            model = copy.copy(trainer)
            model.weights = [w[k].copy() for w in weights]
            model.biases = [b[k, 0].copy() for b in biases]
            models.append(model)
        return models

    def _train(self, X: np.ndarray, y: np.ndarray, seed: int):
        """SGD on stacked problems; returns weights (K, a, b) and biases (K, 1, b).

        Each problem ``(X[k], y[k])`` goes through ``fit_data``.  Sets
        ``classes_`` and leaves the initial weights in ``weights``.
        """
        problems = [fit_data(self.task, x, yk) for x, yk in zip(X, y, strict=True)]
        self.classes_ = problems[0][2]
        if any(not np.array_equal(p[2], self.classes_) for p in problems[1:]):
            raise TrainingError("stacked problems must hold the same classes")
        X, y = (np.stack([p[j] for p in problems]) for j in (0, 1))
        n_problems, n, n_in = X.shape
        self._init_params(n_in, 1 if self.classes_ is None else len(self.classes_), seed)
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
    def from_state(cls, state: dict, n_features: int | None = None) -> "MlpModel":
        """Rebuild from :meth:`to_state`; ``n_features`` is the row width to expect, if known.

        Layer ``l`` holds a ``weights`` matrix of shape ``(sizes[l], sizes[l + 1])``
        and a ``biases`` vector of ``sizes[l + 1]``, where ``sizes`` is the row
        width, the ``hidden`` sizes and the output width (1, or one per class).
        """
        path = ("state",)
        with reporting(ModelFormatError, "model file"):
            s = STATE(state, path)
            classes = state_classes(s, path)
            model = cls(**{key: s[key] for key in cls.HYPERPARAMETERS}, task=s["task"])
            weights, biases = s["weights"], s["biases"]
            width = n_features if n_features is not None or not weights else len(weights[0])
            sizes = [width, *model.hidden, 1 if classes is None else len(classes)]
            for key, arrays in (("weights", weights), ("biases", biases)):
                if len(arrays) != len(sizes) - 1:
                    fail((*path, key), f"a list of {len(sizes) - 1} layers", arrays, typed=True)
            for layer, (w, b) in enumerate(zip(weights, biases)):
                if w.shape != tuple(sizes[layer : layer + 2]):
                    fail((*path, "weights", layer), f"a {sizes[layer]} x {sizes[layer + 1]} matrix",
                         w, typed=True)
                if b.shape != (sizes[layer + 1],):
                    fail((*path, "biases", layer), f"a list of {sizes[layer + 1]} items", b,
                         typed=True)
        model.weights, model.biases, model.classes_ = weights, biases, classes
        return model


STATE = obj({**MlpModel.HYPERPARAMETERS, "task": STATE_TASK,
             "weights": list_of(array(np.float64, 2)), "biases": list_of(array(np.float64)),
             "classes": STATE_CLASSES})
