"""Sequential phase estimator: a 2-layer recurrent net over shot sequences.

Shots are fed one at a time through two stacked gated recurrent (GRU-style)
cells; a linear head on the final hidden state gives logits over the M
candidate phases. Each cell keeps its update (z), reset (r) and candidate (c)
gates as row blocks of one W, U and b, and the first cell reads a shot s as
column W0[:, s], the product of W0 with the one-hot vector of s.
Layer 0 never reads layer 1, so each cell runs over the whole sequence before
the next one starts, forward and backward; layer 1's input projection and
every weight gradient are then one matrix product per sequence or block.
`forward` also scores a block of sequences at once: the cells then carry a
trailing batch axis, so each time step is one matrix product for the whole
block, and layer 0 runs once per sequence however many dropout passes
layer 1 runs over it. Backpropagation takes the same block axis, so `fit`
steps once per minibatch of BATCH sequences on their summed gradient.
Backpropagation through time is written out by hand so gradients can be
checked against finite differences.

The output head is zero-initialized, so an untrained model returns the
exact uniform posterior. Posteriors are floored at EPS before the log so
conformity scores stay finite.
"""
from __future__ import annotations

import numpy as np

from .probe import ConfigurationError

EPS = 1e-12
# Largest conformity score -log p a posterior can give: flooring at EPS adds
# at most M * EPS < 1 to the sum before renormalization on any grid of fewer
# than 1/EPS phases, so every probability stays above EPS / 2.
SCORE_MAX = float(-np.log(EPS / 2))
# Sequences per pretraining step. A single-sequence step is bound by numpy
# call overhead on H-wide vectors, so default pretraining (n = 4, H = 64)
# takes 2.3x less time in blocks of 5 (BENCH_fit.json). Blocks of 10 took
# about 20% less again but raised a default run's peak RSS by 1.0 MB, and
# blocks of 20 by 2.0 MB; blocks of 5 add none.
BATCH = 5


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 0: the M phases, ahead of any batch axis."""
    shifted = logits - logits.max(0)
    e = np.exp(shifted)
    return e / e.sum(0)


def _posterior(logits: np.ndarray) -> np.ndarray:
    """Softmax floored at EPS and renormalized, over axis 0."""
    post = np.maximum(_softmax(logits), EPS)
    return post / post.sum(0)


class SequentialPhaseEstimator:
    """Recurrent posterior model p(x | shots) over M grid phases.

    Parameters live in one flat vector `weights`, the arrays in _key_order
    laid end to end; `params` maps each key to a reshaped view into it. fit()
    takes one gradient step per minibatch of BATCH rows of shots (N, L);
    train_step() on one sequence is the online update of the sensing loop.
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
        if not 0 <= dropout < 1:
            raise ConfigurationError(f"dropout must be in [0, 1), got {dropout!r}")
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
        (L, 3H), or (L, 3H, B) for B sequences side by side; returns the
        hidden states Hs (L+1, H[, B]), Hs[0] = 0, and the gates ZR
        (L, 2H[, B]), RH and C (L, H[, B]). The bias joins WX once, in
        place (WX is always a fresh product or gather), and each step writes
        its gates straight into the row views it is handed.
        z and r are sigmoid(a) = 0.5 tanh(a / 2) + 0.5, so U_zr and the z, r
        columns of A are halved once here (exactly, a power of two)."""
        H = self.hidden
        U, b = self.params[f"U{layer}"], self.params[f"b{layer}"]
        U_zr, U_c = 0.5 * U[: 2 * H], U[2 * H :]
        A = WX
        A += b if WX.ndim == 2 else b[:, None]
        A[:, : 2 * H] *= 0.5
        L, batch = len(A), A.shape[2:]
        Hs = np.zeros((L + 1, H, *batch))
        ZR = np.empty((L, 2 * H, *batch))
        RH, C = np.empty((L, H, *batch)), np.empty((L, H, *batch))
        dot, mul, sub, tanh = np.dot, np.multiply, np.subtract, np.tanh
        rows = zip(Hs[:-1], Hs[1:], A[:, : 2 * H], A[:, 2 * H :],
                   ZR, ZR[:, :H], ZR[:, H:], RH, C)
        for h, h_next, a_zr, a_c, zr, z, r, rh, c in rows:
            dot(U_zr, h, out=zr)
            zr += a_zr
            tanh(zr, out=zr)
            zr *= 0.5
            zr += 0.5
            mul(r, h, out=rh)
            dot(U_c, rh, out=c)
            c += a_c
            tanh(c, out=c)
            # h + z (c - h), which is (1 - z) h + z c
            sub(c, h, out=h_next)
            h_next *= z
            h_next += h
        return Hs, ZR, RH, C

    def _run(self, shots: np.ndarray, masks=None):
        """Forward over one checked shot sequence, one layer at a time;
        returns (logits, caches, h2_out); caches are the shots, layer 1's
        input X1 and the two cells' _layer results. masks, if given, are
        layer 0's and layer 1's inverted-dropout masks (2, H)."""
        # Layer 0 reads shot s as column W0[:, s].
        cache0 = self._layer(0, self.params["W0"][:, shots].T)
        X1 = cache0[0][1:] if masks is None else cache0[0][1:] * masks[0]
        cache1 = self._layer(1, X1 @ self.params["W1"].T)
        h2_out = cache1[0][-1] if masks is None else cache1[0][-1] * masks[1]
        logits = self.params["Wo"] @ h2_out + self.params["bo"]
        return logits, (shots, X1, cache0, cache1), h2_out

    def _run_block(self, shots: np.ndarray, masks=None):
        """Forward over a block of shot sequences (B, L); returns (logits
        (M, C), caches, h2_out (H, C)) laid out as _run's with a trailing
        column axis. Layer 0 runs once over all B sequences; layer 1 runs
        over C = B columns, or with masks (B, P, 2, H) over C = B P columns,
        column b P + p being pass p of sequence b."""
        L, H = shots.shape[1], self.hidden
        # (3H, L, B) gathered columns seen as (L, 3H, B)
        cache0 = self._layer(0, self.params["W0"][:, shots.T].transpose(1, 0, 2))
        X1 = cache0[0][1:]
        if masks is not None:
            # (L, H, B, 1) * (H, B, P) -> (L, H, B P)
            X1 = (X1[..., None] * masks[:, :, 0].transpose(2, 0, 1)).reshape(L, H, -1)
        cache1 = self._layer(1, self.params["W1"] @ X1)
        h2_out = cache1[0][-1]
        if masks is not None:
            h2_out = h2_out * masks[:, :, 1].reshape(-1, H).T
        logits = self.params["Wo"] @ h2_out + self.params["bo"][:, None]
        return logits, (shots, X1, cache0, cache1), h2_out

    def _checked_shots(self, shots: np.ndarray, ndims: tuple = (1,)) -> np.ndarray:
        """shots as a nonempty int64 array of one of the allowed ndims, every
        outcome in range; a ragged block, or floats, bools or text, which a
        cast would truncate or parse, raise like any other bad input."""
        try:
            shots = np.asarray(shots)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"shots are not an integer array: {exc}") from exc
        if shots.dtype.kind not in "iu":
            raise ConfigurationError(f"shots must be integers, got dtype {shots.dtype}")
        shots = shots.astype(np.int64, copy=False)
        if shots.ndim not in ndims or shots.size == 0:
            raise ConfigurationError(
                f"shots must be a nonempty integer array with ndim in {ndims}"
            )
        if shots.min() < 0 or shots.max() >= self.input_dim:
            raise ConfigurationError("shot outcome out of range for input dimension")
        return shots

    def _checked_labels(self, x_index, batch: tuple) -> np.ndarray:
        """x_index as an integer array of shape batch (() for one sequence),
        every phase index in [0, M)."""
        labels = np.asarray(x_index)
        if labels.dtype.kind not in "iu" or labels.shape != batch:
            raise ConfigurationError(
                f"phase indices must be integers of shape {batch}, got {labels.shape}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_levels):
            raise ConfigurationError(
                f"phase index out of range for {self.n_levels} phases: {x_index}"
            )
        return labels

    def dropout_masks(
        self, rng: np.random.Generator | None, passes: tuple = ()
    ) -> np.ndarray | None:
        """Inverted-dropout masks of shape passes + (2, H), layer 0's then
        layer 1's for each pass in turn, or None when dropout is off; a
        dropout model needs an rng. One draw for P passes takes the same
        numbers as P draws for one pass each."""
        if self.dropout <= 0:
            return None
        if rng is None:
            raise ConfigurationError(f"dropout {self.dropout} needs an rng for its masks")
        keep = 1.0 - self.dropout
        return (rng.random((*passes, 2, self.hidden)) < keep) / keep

    def forward(
        self, shots: np.ndarray, masks: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple | None]:
        """(posterior, run) over the M phases.

        For one shot sequence (L,) and no masks, run is the forward pass
        behind the posterior, which train_step and loss_grads take as `run`
        while the weights stay as they are. Otherwise shots is one sequence
        or a block (B, L), masks is None or holds P dropout passes per
        sequence, shape shots.shape[:-1] + (P, 2, H) as dropout_masks draws
        them, the posterior has shape shots.shape[:-1] + ((P,) if masks is
        not None else ()) + (M,), and run is None. Layer 0 runs once per
        sequence, layer 1 once per pass, and each time step of a cell is
        one matrix product over the whole block."""
        shots = self._checked_shots(shots, ndims=(1, 2))
        if masks is None and shots.ndim == 1:
            run = self._run(shots)
            return _posterior(run[0]), run
        lead, n_seq = shots.shape[:-1], shots.size // shots.shape[-1]
        if masks is not None:
            masks = np.asarray(masks, dtype=float)
            if (masks.ndim != shots.ndim + 2 or masks.shape[: len(lead)] != lead
                    or masks.shape[-2:] != (2, self.hidden) or masks.size == 0):
                raise ConfigurationError(
                    f"masks must have shape {lead} + (passes, 2, {self.hidden}), "
                    f"got {masks.shape}"
                )
            lead += (masks.shape[-3],)
            masks = masks.reshape(n_seq, -1, 2, self.hidden)
        logits = self._run_block(shots.reshape(n_seq, -1), masks)[0]
        return _posterior(logits).T.reshape(*lead, self.n_levels), None

    def loss_grads(
        self, shots: np.ndarray, x_index, masks=None, run=None
    ) -> tuple[float, np.ndarray]:
        """Cross-entropy loss and its gradient via BPTT, laid out like `weights`.

        shots is one sequence (L,) with its phase index and masks None or
        (2, H), or a block (B, L) with B indices and masks None or (B, 2, H);
        a block's loss and gradient are sums over its sequences. `run` is
        forward's pass on one sequence at the current weights, with no
        dropout masks; without it the forward pass runs here."""
        if run is None:
            shots = self._checked_shots(shots, ndims=(1, 2))
            if shots.ndim == 1:
                run = self._run(shots, masks)
            else:
                run = self._run_block(shots, None if masks is None else masks[:, None])
        elif masks is not None or not np.array_equal(run[1][0], shots):
            raise ConfigurationError("run must be an unmasked pass on the same shots")
        logits, (shots, X1, cache0, cache1), h2_out = run
        batch = shots.shape[:-1]
        labels = self._checked_labels(x_index, batch)
        at = (labels, np.arange(len(labels))) if batch else labels  # each column's phase
        d_logits = _softmax(logits)
        loss = float(-np.log(np.maximum(d_logits[at], 1e-300)).sum())
        d_logits[at] -= 1.0

        # every block but W0 is written whole; W0 gets column adds
        flat_grad = np.empty_like(self.weights)
        grads = self._views(flat_grad)
        grads["W0"].fill(0.0)
        if batch:
            np.matmul(d_logits, h2_out.T, out=grads["Wo"])
            d_logits.sum(1, out=grads["bo"])
        else:
            np.multiply.outer(d_logits, h2_out, out=grads["Wo"])
            grads["bo"][:] = d_logits

        d_out = np.zeros((len(X1), self.hidden, *batch))
        d_out[-1] = self.params["Wo"].T @ d_logits
        if masks is not None:
            d_out[-1] *= masks[..., 1, :].T
        DA1 = self._layer_back(1, cache1, d_out, grads)
        _sum_outer(DA1, X1, grads["W1"])
        W1 = self.params["W1"]
        dX1 = np.matmul(W1.T, DA1) if batch else DA1 @ W1
        if masks is not None:
            dX1 *= masks[..., 0, :].T
        DA0 = self._layer_back(0, cache0, dX1, grads)
        # shot s at step t of sequence b adds DA0[t, :, b] to column s of W0,
        # in (t, b) order; repeated shots add up
        dW0, rows = grads["W0"].T, DA0.swapaxes(1, -1).reshape(-1, 3 * self.hidden)
        for s, da in zip(shots.T.reshape(-1).tolist(), rows):
            dW0[s] += da
        return loss, flat_grad

    def _layer_back(self, layer: int, cache, d_out: np.ndarray, grads) -> np.ndarray:
        """BPTT through one cell given the gradient d_out (L, H[, B]) that
        reaches each step's output from above. Writes the cell's U and b
        gradients, summed over steps and the block, into grads and returns
        the gate pre-activation gradients DA (L, 3H[, B]).
        Every factor the forward caches alone fix is one (L, H[, B]) array
        made before the loop, which then does only the d-dependent products."""
        H = self.hidden
        Hs, ZR, RH, C = cache
        H_prev, Z, R = Hs[:-1], ZR[:, :H], ZR[:, H:]
        U = self.params[f"U{layer}"]
        U_zr_T, U_c_T = U[: 2 * H].T, U[2 * H :].T
        F_c = Z * (1 - C**2)
        F_r = H_prev * R * (1 - R)
        F_z = (C - H_prev) * Z * (1 - Z)
        G = 1 - Z
        DA = np.empty((len(C), 3 * H, *C.shape[2:]))
        dh, d, drh = np.zeros(C.shape[1:]), np.empty(C.shape[1:]), np.empty(C.shape[1:])
        dot, mul, add = np.dot, np.multiply, np.add
        rows = zip(DA[:, : 2 * H], DA[:, :H], DA[:, H : 2 * H], DA[:, 2 * H :],
                   d_out, F_c, F_r, F_z, G, R)
        for da_zr, da_z, da_r, da_c, d_o, f_c, f_r, f_z, g, r in reversed(list(rows)):
            add(dh, d_o, out=d)
            mul(d, f_c, out=da_c)
            dot(U_c_T, da_c, out=drh)
            mul(drh, f_r, out=da_r)
            mul(d, f_z, out=da_z)
            # dh = d (1 - z) + drh r + U_zr^T da_zr
            d *= g
            drh *= r
            d += drh
            dot(U_zr_T, da_zr, out=dh)
            dh += d
        dU = grads[f"U{layer}"]
        _sum_outer(DA[:, : 2 * H], H_prev, dU[: 2 * H])
        _sum_outer(DA[:, 2 * H :], RH, dU[2 * H :])
        DA.sum((0, *range(2, DA.ndim)), out=grads[f"b{layer}"])
        return DA

    # -- training --------------------------------------------------------------
    def train_step(
        self,
        shots: np.ndarray,
        x_index,
        lr: float,
        l2: float,
        rng: np.random.Generator | None = None,
        run=None,
    ) -> bool:
        """One gradient step on -log p(x_index | shots) + l2/2 |w|^2; returns
        False if the step was skipped because the scaled step lr (grad + l2 w)
        is not finite, a non-finite gradient or an overflow of the product
        with lr. On a block (B, L) with B indices it descends the summed loss
        plus B l2/2 |w|^2, drawing one dropout mask per sequence. `run`, from
        forward, saves loss_grads the forward pass."""
        if run is None:
            shots = self._checked_shots(shots, ndims=(1, 2))
        batch = np.shape(shots)[:-1]
        masks = self.dropout_masks(rng, batch)
        _, grad = self.loss_grads(shots, x_index, masks, run=run)
        # lr (grad + B l2 w), built in place in one buffer
        step = np.multiply(self.weights, l2 * batch[0] if batch else l2, out=self._step)
        step += grad
        step *= lr
        # one pass: step . step is finite when every entry is; only if it is
        # not (an inf or NaN entry, or an overflow) look entry by entry
        if not np.isfinite(step @ step) and not np.isfinite(step).all():
            return False
        self.weights -= step
        return True

    def fit(
        self,
        shots: np.ndarray,
        labels: np.ndarray,
        lr: float,
        l2: float,
        epochs: int,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Minibatch sweeps over the N sequences shots (N, L), in order, with
        their phase indices labels (N,): each train_step takes a block of
        BATCH consecutive sequences (the last block of a sweep may be
        shorter) and descends their summed cross-entropy plus
        len(block) l2/2 |w|^2 at rate lr, so lr and l2 keep their
        per-sequence meaning. A block whose step is not finite is skipped
        whole; returns the number of blocks skipped. Empty, ragged or
        non-integer shots, or a phase index outside [0, M), raise
        ConfigurationError."""
        shots = self._checked_shots(shots, ndims=(2,))
        labels = self._checked_labels(labels, shots.shape[:1])
        skipped = 0
        for _ in range(epochs):
            for start in range(0, len(shots), BATCH):
                block = slice(start, start + BATCH)
                skipped += not self.train_step(shots[block], labels[block], lr, l2, rng=rng)
        return skipped


def _sum_outer(A: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
    """out = the sum over t (and over a trailing block axis b, if any) of the
    outer products A[t, :, b] X[t, :, b], for A (L, K[, B]) and X (L, N[, B])."""
    if A.ndim == 2:
        np.matmul(A.T, X, out=out)
    else:  # (K, L B) @ (L B, N)
        np.dot(A.transpose(1, 0, 2).reshape(len(out), -1),
               X.transpose(0, 2, 1).reshape(-1, X.shape[1]), out=out)
