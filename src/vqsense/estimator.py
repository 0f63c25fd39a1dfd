"""Sequential phase estimator: a 2-layer recurrent net over shot sequences.

Shots are fed one at a time through two stacked gated recurrent (GRU-style)
cells; a linear head on the final hidden state gives logits over the M
candidate phases. Each cell keeps its update (z), reset (r) and candidate (c)
gates as row blocks of one W, U and b, and the first cell reads a shot s as
column W0[:, s], the product of W0 with the one-hot vector of s.
Backpropagation through time is written out by hand so gradients can be
checked against finite differences.

The output head is zero-initialized, so an untrained model returns the
exact uniform posterior. Posteriors are floored at EPS before the log so
conformity scores stay finite.
"""
from __future__ import annotations

import numpy as np

from .conformal import sigmoid
from .probe import ConfigurationError

EPS = 1e-12


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


class SequentialPhaseEstimator:
    """Recurrent posterior model p(x | shots) over M grid phases.

    Parameters live in one flat vector `weights`, the arrays in _key_order
    laid end to end; `params` maps each key to a reshaped view into it. fit()
    performs repeated single-sample gradient steps over a dataset;
    train_step() is the online update used inside the sensing loop.
    """

    def __init__(
        self,
        input_dim: int,
        n_levels: int,
        hidden_size: int = 64,
        dropout: float = 0.0,
        seed: int = 0,
    ):
        if input_dim < 1 or n_levels < 2 or hidden_size < 1:
            raise ConfigurationError("bad estimator dimensions")
        self.input_dim = input_dim
        self.n_levels = n_levels
        self.hidden = hidden_size
        self.dropout = dropout
        rng = np.random.default_rng(seed)
        H = hidden_size
        bound = 1.0 / np.sqrt(H)
        arrays: dict[str, np.ndarray] = {}
        for layer, d_in in enumerate((input_dim, H)):
            # W (3H, D_in), U (3H, H), b (3H,) with gate rows z, r, c; the seed's
            # initial weights depend on drawing W, U, b per gate in that order.
            gates = [
                [rng.uniform(-bound, bound, size=s) for s in ((H, d_in), (H, H), (H,))]
                for _ in "zrc"
            ]
            for name, blocks in zip("WUb", zip(*gates)):
                arrays[f"{name}{layer}"] = np.concatenate(blocks)
        # Zero head => exactly uniform posterior before any training.
        arrays["Wo"] = np.zeros((n_levels, H))
        arrays["bo"] = np.zeros(n_levels)
        self._key_order = sorted(arrays)
        self._shapes = [arrays[k].shape for k in self._key_order]
        self.weights = np.concatenate([arrays[k].reshape(-1) for k in self._key_order])
        self.params = self._views(self.weights)

    # -- flat weight vector (checkpoints, gradient checks) ---------------------
    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter array as a reshaped view into `flat`, in _key_order."""
        views, pos = {}, 0
        for k, shape in zip(self._key_order, self._shapes):
            size = int(np.prod(shape))
            views[k] = flat[pos : pos + size].reshape(shape)
            pos += size
        return views

    def get_weights(self) -> np.ndarray:
        return self.weights.copy()

    def set_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.weights.size:
            raise ConfigurationError(
                f"checkpoint has {flat.size} values, model needs {self.weights.size}"
            )
        self.weights[:] = flat

    # -- forward / backward ---------------------------------------------------
    def _cell(self, layer: int, x: int | np.ndarray, h: np.ndarray):
        """One GRU step; layer 0 takes a shot index x, layer 1 a hidden vector."""
        H = self.hidden
        W, U, b = (self.params[f"{k}{layer}"] for k in "WUb")
        wx = W[:, x] if layer == 0 else W @ x
        zr = sigmoid(wx[: 2 * H] + U[: 2 * H] @ h + b[: 2 * H])
        z, r = zr[:H], zr[H:]
        rh = r * h
        c = np.tanh(wx[2 * H :] + U[2 * H :] @ rh + b[2 * H :])
        h_new = (1 - z) * h + z * c
        return h_new, {"x": x, "h": h, "z": z, "r": r, "rh": rh, "c": c}

    def _run(self, shots: np.ndarray, masks=None):
        """Forward over the shot sequence; returns (logits, caches, h2_out)."""
        shots = np.asarray(shots, dtype=np.int64)
        if shots.ndim != 1 or len(shots) == 0:
            raise ConfigurationError("shots must be a nonempty 1-d integer array")
        if np.any(shots < 0) or np.any(shots >= self.input_dim):
            raise ConfigurationError("shot outcome out of range for input dimension")
        h = [np.zeros(self.hidden), np.zeros(self.hidden)]
        caches = []
        for x in shots:
            step = []
            for layer in (0, 1):
                h[layer], cache = self._cell(layer, x, h[layer])
                x = h[layer] if masks is None else h[layer] * masks[layer]
                step.append(cache)
            caches.append(step)
        h2_out = x  # final (possibly masked) top-layer output
        logits = self.params["Wo"] @ h2_out + self.params["bo"]
        return logits, caches, h2_out

    def _make_masks(self, rng: np.random.Generator | None):
        """Inverted-dropout masks per layer, or None unless dropout is on and
        an rng is given."""
        if self.dropout <= 0 or rng is None:
            return None
        keep = 1.0 - self.dropout
        return [
            (rng.random(self.hidden) < keep).astype(float) / keep for _ in range(2)
        ]

    def forward(
        self, shots: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Posterior over the M phases; stochastic only if dropout is active."""
        logits, _, _ = self._run(shots, self._make_masks(rng))
        post = np.maximum(_softmax(logits), EPS)
        return post / post.sum()

    def scores(self, shots: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Conformity score -log p(x | shots) of every phase; finite by the floor."""
        return -np.log(self.forward(shots, rng=rng))

    def nll(self, shots: np.ndarray, x_index: int) -> float:
        """Cross-entropy of the true label (no floor); target of train_step."""
        logits, _, _ = self._run(shots)
        return float(-np.log(_softmax(logits)[x_index]))

    def loss_grads(
        self, shots: np.ndarray, x_index: int, masks=None
    ) -> tuple[float, np.ndarray]:
        """Cross-entropy loss and its gradient via BPTT, laid out like `weights`."""
        logits, caches, h2_out = self._run(shots, masks)
        probs = _softmax(logits)
        loss = float(-np.log(max(probs[x_index], 1e-300)))
        d_logits = probs.copy()
        d_logits[x_index] -= 1.0

        flat_grad = np.zeros_like(self.weights)
        grads = self._views(flat_grad)
        grads["Wo"][:] = np.outer(d_logits, h2_out)
        grads["bo"][:] = d_logits

        H = self.hidden
        dh = [np.zeros(H), np.zeros(H)]
        d_top = self.params["Wo"].T @ d_logits
        if masks is not None:
            d_top = d_top * masks[1]
        dh[1] += d_top
        for step in reversed(caches):
            dx_down = 0.0
            for layer in (1, 0):
                cache = step[layer]
                U = self.params[f"U{layer}"]
                z, r, c, h_prev, x = (cache[k] for k in ("z", "r", "c", "h", "x"))
                d = dh[layer] + dx_down
                dz = d * (c - h_prev)
                dc = d * z
                dh_prev = d * (1 - z)
                dac = dc * (1 - c**2)
                drh = U[2 * H :].T @ dac
                dr = drh * h_prev
                dh_prev = dh_prev + drh * r
                dar = dr * r * (1 - r)
                daz = dz * z * (1 - z)
                da = np.concatenate((daz, dar, dac))
                grads[f"U{layer}"][: 2 * H] += np.outer(da[: 2 * H], h_prev)
                grads[f"U{layer}"][2 * H :] += np.outer(dac, cache["rh"])
                grads[f"b{layer}"] += da
                # per-gate products: a packed U[:2H].T product reorders the sum
                dh[layer] = dh_prev + U[:H].T @ daz + U[H : 2 * H].T @ dar
                if layer == 0:
                    grads["W0"][:, x] += da  # outer(da, onehot(x)) as a column add
                else:
                    grads["W1"] += np.outer(da, x)
                    W = self.params["W1"]
                    dx_down = W[:H].T @ daz + W[H : 2 * H].T @ dar + W[2 * H :].T @ dac
                    if masks is not None:
                        dx_down = dx_down * masks[0]
        return loss, flat_grad

    # -- training --------------------------------------------------------------
    def train_step(
        self,
        shots: np.ndarray,
        x_index: int,
        lr: float,
        l2: float,
        rng: np.random.Generator | None = None,
    ) -> bool:
        """One gradient step on -log p(x_index | shots) + L2; returns False if
        the step was skipped because of a non-finite gradient."""
        _, grad = self.loss_grads(shots, x_index, self._make_masks(rng))
        if lr == 0.0:
            return True
        grad += l2 * self.weights
        if not np.all(np.isfinite(grad)):
            return False
        self.weights -= lr * grad
        return True

    def fit(
        self,
        dataset: list[tuple[np.ndarray, int]],
        lr: float,
        l2: float,
        epochs: int,
        rng: np.random.Generator | None = None,
    ) -> "SequentialPhaseEstimator":
        """Repeated single-sample sweeps over the dataset, in order."""
        if not dataset:
            raise ConfigurationError("pretraining dataset is empty")
        for _ in range(epochs):
            for shots, x_index in dataset:
                self.train_step(shots, x_index, lr, l2, rng=rng)
        return self


def forward_bayesian(
    models: list[SequentialPhaseEstimator],
    shots: np.ndarray,
    passes: int = 1,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Averaged posterior over ensemble members or stochastic dropout passes."""
    if not models:
        raise ConfigurationError("empty ensemble")
    posts = []
    for m in models:
        if m.dropout > 0:
            for _ in range(passes):
                posts.append(m.forward(shots, rng=rng))
        else:
            posts.append(m.forward(shots))
    mean = np.mean(posts, axis=0)
    mean = np.maximum(mean, EPS)
    return mean / mean.sum()
