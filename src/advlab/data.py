"""Noisy mixture sampling with reproducible per-sample random streams.

The generating process: a clean label drawn uniformly from {-1, +1}, a
feature vector ``clean_label * mu + xi`` with xi an i.i.d. unit-variance
noise vector, and an observed label equal to the clean label flipped with
probability eta.  Sample k of a dataset with seed s is drawn from its own
counter-based (Philox) stream keyed by the pair (s, k), in the fixed order
label bit, noise vector, flip uniform.  Growing n therefore never changes
the samples already drawn, and regeneration is bit-identical.

Stream key space: sample streams use k < 2**48; the tags above 2**48 are
reserved for evaluation, initialization, and attack streams elsewhere in
the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .margins import standard_margin
from .norms import PerturbationModel, lp_norm

__all__ = [
    "NOISE_DISTS",
    "MixtureSpec",
    "Dataset",
    "AssumptionReport",
    "keyed_rng",
    "mu_from_scaling",
    "generate",
    "check_assumptions",
    "save_dataset_csv",
    "load_dataset_csv",
    "write_csv",
]

NOISE_DISTS = ("gaussian", "rademacher", "uniform_pm")

# half-width of the unit-variance symmetric uniform distribution
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)

_MASK64 = (1 << 64) - 1

# delta of the probability-(1 - delta) statements: the assumption thresholds
# here and the pairwise-product bound of lemmas.sample_geometry
_CONFIDENCE = 0.1

# reserved stream tags (all >= 2**48, clear of sample indices)
STREAM_EVAL = (1 << 48) + 1
STREAM_NET_INIT = (1 << 48) + 2


def keyed_rng(seed: int, stream: int) -> np.random.Generator:
    """A Generator over the Philox stream keyed by (seed, stream).

    Distinct (seed, stream) pairs give statistically independent streams;
    the derivation is documented so the draws can be reproduced outside
    this package.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of the noisy two-component mixture.

    eta is the exact label-flip probability, constrained to [0, 0.5) so the
    observed labels remain informative.
    """

    d: int
    mu: np.ndarray
    noise_dist: str = "gaussian"
    eta: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (self.d,):
            raise ValueError(f"mu must have shape ({self.d},), got {mu.shape}")
        object.__setattr__(self, "mu", mu)
        if self.noise_dist not in NOISE_DISTS:
            raise ValueError(
                f"noise_dist must be one of {NOISE_DISTS}, got {self.noise_dist!r}"
            )
        if not (0.0 <= self.eta < 0.5):
            raise ValueError(f"eta must lie in [0, 0.5), got {self.eta}")


@dataclass(frozen=True)
class Dataset:
    """A sampled dataset with full label provenance.

    ``labels`` are the observed (possibly flipped) labels used for training;
    ``clean_labels`` are the mixture component indicators; ``noise_indices``
    lists the samples where the two disagree, in increasing order.
    """

    features: np.ndarray
    labels: np.ndarray
    clean_labels: np.ndarray
    noise_indices: np.ndarray
    spec: Optional[MixtureSpec] = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @cached_property
    def signed_features(self) -> np.ndarray:
        """Rows z_k = y_k * x_k, the quantities every margin computation consumes.

        Computed on first access and then shared, so the array is read-only.
        """
        z = self.labels[:, None] * self.features
        z.flags.writeable = False
        return z

    @cached_property
    def gram(self) -> np.ndarray:
        """The n x n Gram matrix z_j . z_k of the signed rows, read-only.

        Built one matrix-vector product per row.  A single ``z @ z.T`` (a BLAS
        syrk or gemm) grows a fresh process's peak resident memory by 128 KB
        to 2.4 MB of BLAS buffers; the row products grow it by none.
        """
        z = self.signed_features
        g = np.empty((self.n, self.n))
        for k, row in enumerate(z):
            g[k] = z @ row
        g.flags.writeable = False
        return g


def mu_from_scaling(d: int, r: float) -> np.ndarray:
    """The all-ones direction scaled so that ||mu||_2 = d**r."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return np.full(d, d ** (r - 0.5), dtype=float)


def _draw_noise(rng: np.random.Generator, dist: str, d: int) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(d)
    if dist == "rademacher":
        return rng.integers(0, 2, size=d).astype(float) * 2.0 - 1.0
    # unit-variance symmetric uniform
    return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=d)


def generate(spec: MixtureSpec, n: int) -> Dataset:
    """Draw n samples from the mixture, one keyed stream per sample."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    feats = np.empty((n, spec.d), dtype=float)
    clean = np.empty(n, dtype=np.int64)
    obs = np.empty(n, dtype=np.int64)
    for k in range(n):
        rng = keyed_rng(spec.seed, k)
        label = 1 if rng.integers(0, 2) == 0 else -1
        xi = _draw_noise(rng, spec.noise_dist, spec.d)
        flipped = rng.random() < spec.eta
        feats[k] = label * spec.mu + xi
        clean[k] = label
        obs[k] = -label if flipped else label
    noise_idx = np.nonzero(obs != clean)[0]
    return Dataset(
        features=feats,
        labels=obs,
        clean_labels=clean,
        noise_indices=noise_idx,
        spec=spec,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostic flags for the overparameterized training regime.

    Reporting only; nothing here stops a run.  The checks use unit reference
    constants and confidence parameter delta = 0.1:

    - dimension_ok:   d >= max(n*||mu||_2**2, n**2 * log(n/delta))
    - mean_norm_ok:   ||mu||_2**2 >= max(log(n/delta), epsilon*||mu||_q)
    - radius_ok:      epsilon <= the best q-normalized margin of the sample
    - separable:      that margin is positive
    """

    n: int
    d: int
    delta: float
    dimension_threshold: float
    dimension_ratio: float
    dimension_ok: bool
    mean_norm_sq: float
    mean_norm_threshold: float
    mean_norm_ok: bool
    margin_q: float
    radius_ok: bool
    separable: bool


def check_assumptions(ds: Dataset, model: PerturbationModel) -> AssumptionReport:
    """Measure how comfortably a dataset sits inside the analyzed regime."""
    if ds.spec is None:
        raise ValueError("dataset carries no generating spec; assumptions need mu")
    n, d = ds.n, ds.d
    mu = ds.spec.mu
    mu_sq = float(mu @ mu)
    dim_thresh = max(n * mu_sq, n * n * math.log(n / _CONFIDENCE))
    mean_thresh = max(math.log(n / _CONFIDENCE), model.epsilon * lp_norm(mu, model.q))
    gamma_bar = standard_margin(ds, model.q).value
    return AssumptionReport(
        n=n,
        d=d,
        delta=_CONFIDENCE,
        dimension_threshold=dim_thresh,
        dimension_ratio=d / dim_thresh if dim_thresh > 0 else math.inf,
        dimension_ok=d >= dim_thresh,
        mean_norm_sq=mu_sq,
        mean_norm_threshold=mean_thresh,
        mean_norm_ok=mu_sq >= mean_thresh,
        margin_q=gamma_bar,
        radius_ok=model.epsilon <= gamma_bar,
        separable=gamma_bar > 0.0,
    )


def save_dataset_csv(ds: Dataset, path: str) -> None:
    """Write ``y,clean_y,x_0,...,x_{d-1}`` rows through ``write_csv``."""
    rows = zip(ds.labels.tolist(), ds.clean_labels.tolist(), ds.features.tolist())
    write_csv(
        path,
        ["y", "clean_y"] + [f"x_{j}" for j in range(ds.d)],
        ([y, c, *x] for y, c, x in rows),
    )


def load_dataset_csv(path: str, spec: Optional[MixtureSpec] = None) -> Dataset:
    """Read a dataset written by ``save_dataset_csv``; round-trips bit-exactly."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["y", "clean_y"]:
            raise ValueError(f"unexpected header {header[:2]!r} in {path}")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {table.shape[1]} columns, header {len(header)}")
    labels = table[:, 0].astype(np.int64)
    clean = table[:, 1].astype(np.int64)
    return Dataset(
        features=np.ascontiguousarray(table[:, 2:]),
        labels=labels,
        clean_labels=clean,
        noise_indices=np.nonzero(labels != clean)[0],
        spec=spec,
    )


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Comma-joined rows under a header; floats as ``repr`` (round-trip), else ``str``.

    numpy float64 values count as floats and are written as plain numbers.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
            )
