"""Sequential phase estimator: a 2-layer recurrent net over shot sequences.

Shots are fed one at a time through two stacked gated recurrent (GRU-style)
cells; a linear head on the final hidden state gives logits over the M
candidate phases. Each cell keeps its update (z), reset (r) and candidate (c)
gates as row blocks of one W, U and b, and the first cell reads a shot s as
column W0[:, s], the product of W0 with the one-hot vector of s.
Layer 0 never reads layer 1, so each cell runs over the whole sequence before
the next one starts, forward and backward; layer 1's input projection and
every weight gradient are then one matrix product per sequence.
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
        # (key, start, stop, shape) of each array in the flat vector
        self._layout, pos = [], 0
        for k in self._key_order:
            self._layout.append((k, pos, pos + arrays[k].size, arrays[k].shape))
            pos += arrays[k].size
        self.weights = np.concatenate([arrays[k].reshape(-1) for k in self._key_order])
        self.params = self._views(self.weights)
        self._step = np.empty_like(self.weights)  # train_step's update, reused every step

    # -- flat weight vector (checkpoints, gradient checks) ---------------------
    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter array as a reshaped view into `flat`, in _key_order."""
        return {k: flat[a:b].reshape(shape) for k, a, b, shape in self._layout}

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
    def _layer(self, layer: int, WX: np.ndarray):
        """One cell over the whole sequence, given its input projections WX
        (L, 3H); returns the hidden states Hs (L+1, H), Hs[0] = 0, and the
        gates ZR (L, 2H), RH and C (L, H). The bias joins WX once, and each
        step writes its gates straight into their rows."""
        H = self.hidden
        U = self.params[f"U{layer}"]
        U_zr, U_c = U[: 2 * H], U[2 * H :]
        A = WX + self.params[f"b{layer}"]
        A_zr, A_c = A[:, : 2 * H], A[:, 2 * H :]
        L = len(A)
        Hs = np.zeros((L + 1, H))
        ZR, RH, C = np.empty((L, 2 * H)), np.empty((L, H)), np.empty((L, H))
        for t in range(L):
            h, zr, c, h_next = Hs[t], ZR[t], C[t], Hs[t + 1]
            np.dot(U_zr, h, out=zr)
            zr += A_zr[t]
            sigmoid(zr, out=zr)
            rh = np.multiply(zr[H:], h, out=RH[t])
            np.dot(U_c, rh, out=c)
            c += A_c[t]
            np.tanh(c, out=c)
            # h + z (c - h), which is (1 - z) h + z c
            np.subtract(c, h, out=h_next)
            h_next *= zr[:H]
            h_next += h
        return Hs, ZR, RH, C

    def _run(self, shots: np.ndarray, masks=None):
        """Forward over the shot sequence, one layer at a time; returns
        (logits, caches, h2_out); caches are the validated shots, layer 1's
        input X1 and the two cells' _layer results."""
        shots = self._checked_shots(shots)
        # Layer 0 reads shot s as column W0[:, s].
        cache0 = self._layer(0, self.params["W0"][:, shots].T)
        X1 = cache0[0][1:] if masks is None else cache0[0][1:] * masks[0]
        cache1 = self._layer(1, X1 @ self.params["W1"].T)
        h2_out = cache1[0][-1] if masks is None else cache1[0][-1] * masks[1]
        logits = self.params["Wo"] @ h2_out + self.params["bo"]
        return logits, (shots, X1, cache0, cache1), h2_out

    def _checked_shots(self, shots: np.ndarray) -> np.ndarray:
        shots = np.asarray(shots, dtype=np.int64)
        if shots.ndim != 1 or len(shots) == 0:
            raise ConfigurationError("shots must be a nonempty 1-d integer array")
        if np.any(shots < 0) or np.any(shots >= self.input_dim):
            raise ConfigurationError("shot outcome out of range for input dimension")
        return shots

    def _check_label(self, x_index: int) -> None:
        if not 0 <= x_index < self.n_levels:
            raise ConfigurationError(
                f"phase index {x_index} out of range for {self.n_levels} phases"
            )

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
        self._check_label(x_index)
        logits, _, _ = self._run(shots)
        return float(-np.log(_softmax(logits)[x_index]))

    def loss_grads(
        self, shots: np.ndarray, x_index: int, masks=None
    ) -> tuple[float, np.ndarray]:
        """Cross-entropy loss and its gradient via BPTT, laid out like `weights`."""
        self._check_label(x_index)
        logits, (shots, X1, cache0, cache1), h2_out = self._run(shots, masks)
        d_logits = _softmax(logits)
        loss = float(-np.log(max(d_logits[x_index], 1e-300)))
        d_logits[x_index] -= 1.0

        flat_grad = np.zeros_like(self.weights)
        grads = self._views(flat_grad)
        np.multiply.outer(d_logits, h2_out, out=grads["Wo"])
        grads["bo"][:] = d_logits

        d_out = np.zeros((len(shots), self.hidden))
        d_out[-1] = self.params["Wo"].T @ d_logits
        if masks is not None:
            d_out[-1] *= masks[1]
        DA1 = self._layer_back(1, cache1, d_out, grads)
        grads["W1"][:] = DA1.T @ X1
        dX1 = DA1 @ self.params["W1"]
        if masks is not None:
            dX1 *= masks[0]
        DA0 = self._layer_back(0, cache0, dX1, grads)
        np.add.at(grads["W0"].T, shots, DA0)  # column adds; repeated shots add up
        return loss, flat_grad

    def _layer_back(self, layer: int, cache, d_out: np.ndarray, grads) -> np.ndarray:
        """BPTT through one cell given the gradient d_out (L, H) that reaches
        each step's output from above. Writes the cell's U and b gradients into
        grads and returns the gate pre-activation gradients DA (L, 3H).
        Every factor the forward caches alone fix is one (L, H) array made
        before the loop, which then does only the d-dependent products."""
        H = self.hidden
        Hs, ZR, RH, C = cache
        H_prev, Z, R = Hs[:-1], ZR[:, :H], ZR[:, H:]
        U = self.params[f"U{layer}"]
        U_zr, U_c = U[: 2 * H], U[2 * H :]
        F_c = Z * (1 - C**2)
        F_r = H_prev * R * (1 - R)
        F_z = (C - H_prev) * Z * (1 - Z)
        G = 1 - Z
        DA = np.empty((len(C), 3 * H))
        dh, d, drh = np.zeros(H), np.empty(H), np.empty(H)
        for t in reversed(range(len(C))):
            da = DA[t]
            np.add(dh, d_out[t], out=d)
            dac = np.multiply(d, F_c[t], out=da[2 * H :])
            np.dot(dac, U_c, out=drh)
            np.multiply(drh, F_r[t], out=da[H : 2 * H])
            np.multiply(d, F_z[t], out=da[:H])
            # dh = d (1 - z) + drh r + U_zr^T da_zr
            d *= G[t]
            drh *= R[t]
            d += drh
            np.dot(da[: 2 * H], U_zr, out=dh)
            dh += d
        grads[f"U{layer}"][: 2 * H] = DA[:, : 2 * H].T @ H_prev
        grads[f"U{layer}"][2 * H :] = DA[:, 2 * H :].T @ RH
        grads[f"b{layer}"][:] = DA.sum(0)
        return DA

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
        masks = self._make_masks(rng)  # drawn even at lr 0: the rng stream stays the same
        if lr == 0.0:
            self._checked_shots(shots)
            self._check_label(x_index)
            return True
        _, grad = self.loss_grads(shots, x_index, masks)
        # lr (grad + l2 w), built in place in one buffer
        step = np.multiply(self.weights, l2, out=self._step)
        step += grad
        if not np.isfinite(step).all():
            return False
        step *= lr
        self.weights -= step
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
    if passes < 1:
        raise ConfigurationError("passes must be >= 1")
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
