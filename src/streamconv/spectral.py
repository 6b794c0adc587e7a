"""Spectral filter bank and a small multi-channel convolutional predictor.

The filter bank consists of the top eigenvectors of the positive
semidefinite Hankel matrix whose (i, j) entry is the Gram integral
``integral_0^1 (a-1)^2 a^{i+j-2} da``; the closed form
``2 / ((i+j)^3 - (i+j))`` was derived by symbolic integration and is
cross-checked against adaptive quadrature in the verification suite.
These filters are fixed and data-independent: only the projection
matrices of the predictor are learned. They are computed without
forming the matrix: entry (i, j) depends only on i + j, so its product
with a block of b vectors is one window of a convolution with the
sequence ``h(s) = 2 / (s^3 - s)``, b transforms of about 2L points,
and block subspace iteration needs nothing else (O(bL) memory).

The predictor comes in two flavors. Full mode keeps one projection
matrix per filter and convolves every input dimension with every
filter, k x d_in outputs each step. Its k projections are held side by
side as one (d_out, k*d_in) matrix, so a prediction is one BLAS
matrix-vector product with the raveled features and an online gradient
step one in-place BLAS rank-1 update (``dger``). Tensordot mode
factors the stacked projections into a (filters x dims) and a (dims x
dims) piece, mixes the filters into per-dimension kernels, and
convolves each dimension with its own kernel, d outputs each step; it
requires matching input/output widths. Both run all their convolutions
in one batched engine, pushed once per step.

The predictor exists to exercise the streaming engines under a
realistic multi-channel workload, not to chase downstream quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot as _ddot
from scipy.linalg.blas import dger as _dger

from .convolution import middle
from .engines import make_engine
from .errors import ConfigurationError, SequenceFormatError
from .rng import SplitMix64

# Banks are capped at this order: it is the largest at which the dense
# oracle (``hankel_matrix`` with LAPACK) still checks them in the tests.
# The matrix-free method itself needs no cap; lifting it needs a check
# of its own at the larger orders.
MAX_DENSE_EIG = 4096

# Subspace iteration: the block holds count + _OVERSAMPLE vectors, the
# wanted Ritz residuals must reach RESIDUAL_TOL * eps * lambda_1, and a
# bank that has not after _MAX_ITERATIONS products raises. The start
# block is the first draws of the SplitMix64 stream _START_SEED.
# Measured on a 2-vCPU Xeon over orders 1..4096 and counts 1..L: the
# residuals settle at 1.5-9 eps lambda_1; with 8 extra vectors every
# bank met the tolerance within four products, with 6 some took five
# and with 4 six, while 12 took as many products as 8 at more cost each.
_OVERSAMPLE = 8
RESIDUAL_TOL = 16
_MAX_ITERATIONS = 16
_START_SEED = 0x5EC7


def hankel_entry(i: int, j: int) -> float:
    """Closed form of the Hankel Gram integral at 1-based (i, j).

    Equals ``integral_0^1 (a-1)^2 a^{i+j-2} da = 2 / ((i+j)^3 - (i+j))``.
    """
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based and must be >= 1")
    n = i + j
    return 2.0 / (n * n * n - n)


def hankel_matrix(length: int) -> np.ndarray:
    """Dense symmetric Hankel Gram matrix of the given order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    idx = np.arange(length)
    return _hankel_sequence(length)[np.add.outer(idx, idx)]


@dataclass
class SpectralFilterBank:
    """Orthonormal filters as columns of ``filters`` (shape L x k).

    Filters are unit-norm and mutually orthogonal within 1e-8; when
    eigenvalues are present they are non-negative and non-increasing.
    Loaded banks carry no eigenvalues.
    """

    filters: np.ndarray
    eigenvalues: np.ndarray | None = None

    @property
    def length(self) -> int:
        return self.filters.shape[0]

    @property
    def count(self) -> int:
        return self.filters.shape[1]

    def filter_at(self, index: int) -> np.ndarray:
        """Filter ``index`` (0-based) as a 1-d array."""
        return self.filters[:, index]


def spectral_filters(length: int, count: int) -> SpectralFilterBank:
    """Top ``count`` eigenvectors of the order-``length`` Hankel matrix.

    Eigenvalue-descending; each filter is unit-norm with its
    largest-magnitude coordinate made positive so results are
    deterministic despite eigenvector sign ambiguity.

    Computed matrix-free by block subspace iteration with a
    Rayleigh-Ritz step (Halko, Martinsson & Tropp, arXiv 0909.4061)
    on a block of ``b = min(count + _OVERSAMPLE, length)`` vectors. An
    iteration is one product ``H @ Q`` -- one batched :func:`middle`
    call, ``b`` real transforms of about ``2 * length`` points (see
    :func:`_hankel_product`) -- plus a QR factorization of the
    ``length x b`` block, so memory is O(b * length) and the matrix is
    never formed. The Ritz pairs of ``Q^T H Q`` are accepted once the
    largest residual ``||H v - lambda v||`` of the ``count`` wanted
    pairs, with ``H v`` as computed, is at most ``RESIDUAL_TOL * eps *
    lambda_1``: after at most four products for every count tried up
    to order 4096, three for 16 filters at order 1024. If that has not
    happened after ``_MAX_ITERATIONS`` products, ``RuntimeError``. The
    start block is a fixed SplitMix64 stream, so equal arguments give
    bitwise-equal banks.
    """
    if not 1 <= count <= length:
        raise ConfigurationError(f"need 1 <= count <= length, got k={count}, L={length}")
    if length > MAX_DENSE_EIG:
        raise ConfigurationError(
            f"spectral filter banks are capped at order {MAX_DENSE_EIG}, got {length}"
        )
    width = min(count + _OVERSAMPLE, length)
    seq = _hankel_sequence(length)
    start = SplitMix64(_START_SEED).uniforms(length * width) - 0.5
    basis = np.linalg.qr(start.reshape(length, width))[0]
    tol = RESIDUAL_TOL * np.finfo(np.float64).eps
    for _ in range(_MAX_ITERATIONS):
        image = _hankel_product(seq, basis)
        small = basis.T @ image
        # one refinement step: the sums of length L in basis.T @ image
        # carry rounding of about sqrt(L) eps lambda_1, which the Ritz
        # values inherit and the residuals would then stall at
        small += basis.T @ (image - basis @ small)
        # the Ritz pairs, largest first
        vals, rot = np.linalg.eigh(small)
        vals, rot = vals[::-1][:count], rot[:, ::-1][:, :count]
        vecs = basis @ rot
        resid = np.linalg.norm(image @ rot - vecs * vals, axis=0)
        if resid.max() <= tol * vals[0]:
            break
        basis = np.linalg.qr(image)[0]
    else:
        raise RuntimeError("eigendecomposition did not converge")
    # the matrix is a Gram integral, hence PSD; clip rounding noise
    vals = np.maximum(vals, 0.0)
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[lead, np.arange(count)] < 0, -1.0, 1.0)
    return SpectralFilterBank(filters=vecs, eigenvalues=vals)


def _hankel_sequence(length: int) -> np.ndarray:
    """``h(s) = 2 / (s^3 - s)`` for ``s = 2 .. 2*length``: entry (i, j) is h(i+j)."""
    s = np.arange(2, 2 * length + 1, dtype=np.float64)
    return 2.0 / (s * s * s - s)


def _hankel_product(seq: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``H @ block`` for the Hankel matrix whose anti-diagonals are ``seq``.

    Row ``i`` (0-based) of the product is ``sum_j seq[i + j] x[j]``,
    output ``L - 1 + i`` of the convolution of ``seq`` with the
    reversed column ``x``: one :func:`middle` window of ``L`` outputs
    over all columns at once.
    """
    length = block.shape[0]
    return middle(block.T[:, ::-1], seq, length - 1, length).T


def save_filter_bank(bank: SpectralFilterBank, path: str) -> None:
    """Write a bank as CSV: header line ``L,k`` then L rows of k floats.

    Values use shortest round-trip decimal form; the file reloads to
    bit-identical filters.
    """
    rows, cols = bank.filters.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{rows},{cols}\n")
        for r in range(rows):
            fh.write(",".join(repr(float(v)) for v in bank.filters[r]) + "\n")


def load_filter_bank(path: str) -> SpectralFilterBank:
    """Read a bank written by :func:`save_filter_bank`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.strip().split(",")
        if len(parts) != 2:
            raise SequenceFormatError("expected header 'L,k'", path, 1)
        try:
            rows, cols = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise SequenceFormatError(f"bad header {header.strip()!r}", path, 1) from exc
        if rows < 0 or cols < 0:
            raise SequenceFormatError(f"negative dimension in header {header.strip()!r}",
                                      path, 1)
        filters = np.empty((rows, cols))
        for r in range(rows):
            line = fh.readline()
            if not line:
                raise SequenceFormatError(f"expected {rows} rows, found {r}", path, r + 2)
            cells = line.strip().split(",")
            if len(cells) != cols:
                raise SequenceFormatError(
                    f"expected {cols} values, found {len(cells)}", path, r + 2
                )
            try:
                filters[r] = [float(c) for c in cells]
            except ValueError as exc:
                raise SequenceFormatError("non-numeric cell", path, r + 2) from exc
        for lineno, line in enumerate(fh, start=rows + 2):
            if line.strip():
                raise SequenceFormatError(f"expected {rows} rows, found more", path, lineno)
    return SpectralFilterBank(filters=filters, eigenvalues=None)


class StuModel:
    """Multi-channel convolutional predictor over a filter bank.

    Full mode: prediction ``yhat_t = sum_i M_i <phi_i, recent inputs>``,
    from features (k, d_in): every filter over every input dimension.
    The projections ``M_i`` live side by side in one C-contiguous
    ``(d_out, k*d_in)`` matrix ``W = [M_0 .. M_{k-1}]``, so the
    prediction is one matrix-vector product ``W @ features.ravel()``;
    ``projections`` is that matrix seen as ``(k, d_out, d_in)``, a
    writable view, so writing through it changes the next prediction.
    Tensordot mode: inputs are first projected by the square factor,
    then dimension j is convolved with the filter mix for that
    dimension; the step output is that (d,) result.

    Either way one batched engine (``engine``) runs all the
    convolutions: taps (k, 1, L) over samples (d_in,) in full mode,
    taps (d, L) over samples (d,) in tensordot mode, one ``push`` per
    step. A model instance is single-owner mutable state.
    """

    def __init__(
        self,
        bank: SpectralFilterBank,
        *,
        projections: np.ndarray | None = None,
        factor_filters: np.ndarray | None = None,
        factor_mix: np.ndarray | None = None,
        engine_kind: str = "naive",
        max_steps: int = 1024,
    ):
        self.bank = bank
        self.max_steps = int(max_steps)
        self.engine_kind = engine_kind
        k = bank.count

        if projections is not None:
            if factor_filters is not None or factor_mix is not None:
                raise ConfigurationError("pass either projections or both factors")
            projections = np.array(projections, dtype=np.float64)
            if projections.ndim != 3 or projections.shape[0] != k:
                raise ConfigurationError(
                    f"projections must have shape (k, d_out, d_in) with k={k}"
                )
            self.mode = "full"
            self.d_out, self.d_in = projections.shape[1], projections.shape[2]
            self._weights = np.ascontiguousarray(
                projections.transpose(1, 0, 2).reshape(self.d_out, k * self.d_in))
            self._zeros = np.zeros(self.d_out)
            taps = bank.filters.T[:, None, :]  # (k, 1, L): every filter, every dimension
        elif factor_filters is not None and factor_mix is not None:
            factor_filters = np.array(factor_filters, dtype=np.float64)
            factor_mix = np.array(factor_mix, dtype=np.float64)
            if factor_filters.ndim != 2 or factor_filters.shape[0] != k:
                raise ConfigurationError(
                    f"filter factor must have shape (k, d) with k={k}"
                )
            d = factor_filters.shape[1]
            if factor_mix.shape != (d, d):
                raise ConfigurationError("mix factor must be square (d, d)")
            self.mode = "tensordot"
            self.factor_filters = factor_filters
            self.factor_mix = factor_mix
            self.d_out = self.d_in = d
            self.mixed_kernels = bank.filters @ factor_filters  # (L, d): kernel per dimension
            taps = self.mixed_kernels.T  # (d, L): kernel j for dimension j
        else:
            raise ConfigurationError("pass either projections or both factors")
        self.engine = make_engine(engine_kind, taps, self.max_steps,
                                  sample_shape=(self.d_in,))
        self._last_features: np.ndarray | None = None

    def reset(self) -> None:
        self.engine.reset()
        self._last_features = None

    def step(self, u_t: np.ndarray) -> np.ndarray:
        """Advance one time step and return the prediction vector.

        A NaN or infinite engine input is rejected with ``ValueError``
        by the engine's ``push``, before the model changes any state.
        """
        u_t = np.asarray(u_t, dtype=np.float64)
        if u_t.shape != (self.d_in,):
            raise ConfigurationError(
                f"expected input of shape ({self.d_in},), got {u_t.shape}"
            )
        if self.mode != "full":
            return self.engine.push(self.factor_mix @ u_t)
        feats = self.engine.push(u_t)
        self._last_features = feats
        return self._weights @ feats.ravel()

    @property
    def projections(self) -> np.ndarray:
        """Full-mode projections (k, d_out, d_in), a view of the flat matrix."""
        return self._weights.reshape(self.d_out, -1, self.d_in).transpose(1, 0, 2)

    @projections.setter
    def projections(self, value: np.ndarray) -> None:
        self.projections[...] = value

    @property
    def last_features(self) -> np.ndarray | None:
        """Features (k, d_in) used by the most recent full-mode step."""
        return self._last_features


def full_projections_from_factors(
    factor_filters: np.ndarray, factor_mix: np.ndarray
) -> np.ndarray:
    """Per-filter projection matrices equivalent to the factored form.

    ``M_i = diag(factor_filters[i]) @ factor_mix``; a full-mode model
    with these projections computes exactly what the tensordot model
    with the given factors computes.
    """
    factor_filters = np.asarray(factor_filters, dtype=np.float64)
    factor_mix = np.asarray(factor_mix, dtype=np.float64)
    return factor_filters[:, :, None] * factor_mix


def ogd_spectral_step(
    model: StuModel,
    u_t: np.ndarray,
    y_t: np.ndarray,
    learning_rate: float = 0.01,
) -> np.ndarray:
    """One online-gradient-descent step on the squared prediction error.

    Predicts, observes ``y_t``, and updates each projection matrix by
    ``M_i <- M_i - lr * 2 (yhat - y) F_i^T`` where ``F_i`` is the
    filter-i feature vector of this step: one in-place BLAS rank-1
    update ``W <- W - 2 lr (yhat - y) F^T`` of the flat projection
    matrix. Full mode only; returns the prediction made before the
    update.

    A target of the wrong shape, a NaN or infinite target, and a
    learning rate that is not a finite positive number are rejected
    before the model steps, so a rejected call changes no state.
    """
    if model.mode != "full":
        raise ConfigurationError("gradient updates require a full-mode model")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ConfigurationError(
            f"learning rate must be finite and positive, got {learning_rate!r}")
    y_t = np.asarray(y_t, dtype=np.float64)
    if y_t.shape != (model.d_out,):
        raise ConfigurationError(f"expected target of shape ({model.d_out},), got {y_t.shape}")
    # y . 0 is NaN iff some entry of y is NaN or infinite
    if not math.isfinite(_ddot(y_t, model._zeros)):
        raise ValueError(f"target must be finite (no NaN/Inf), got {y_t!r}")
    y_hat = model.step(u_t)
    # W^T is Fortran-ordered: dger adds -2 lr F (yhat - y)^T to it in place
    _dger(-2.0 * learning_rate, model.last_features.ravel(), y_hat - y_t,
          a=model._weights.T, overwrite_a=True)
    return y_hat
