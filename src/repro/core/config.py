"""Configuration for the quantum spectral clustering pipeline."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ClusteringError
from repro.linalg import BACKEND_NAMES as LINALG_BACKENDS

BACKENDS = ("circuit", "analytic")
EVOLUTIONS = ("exact", "trotter")
#: Eigensolve contracts of the analytic QPE engine (see
#: :class:`repro.core.qpe_engine.AnalyticQPEBackend`): ``"v1"`` decomposes
#: the padded D × D matrix, ``"v3"`` only the n × n graph block, with
#: LAPACK's MRRR driver.
SPECTRAL_ENGINES = ("v1", "v3")
#: Integer fields, and those that may also be ``None``: a ``bool`` or a
#: non-integral value is a typed error (NumPy integers from sweep axes pass).
_INTEGER_FIELDS = (
    "precision_bits",
    "shots",
    "histogram_shots",
    "trotter_steps",
    "trotter_order",
    "qmeans_iterations",
    "kmeans_restarts",
)
_OPTIONAL_INTEGER_FIELDS = ("readout_chunk_size",)


def is_count(value, minimum: int) -> bool:
    """True for an integral ``value`` >= ``minimum`` that is not a bool."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= minimum
    )


def is_seconds(value) -> bool:
    """True for a finite real > 0.

    A bool is not a number of seconds, and a NaN would poison every
    comparison against a clock (each one is false).
    """
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def is_deadline(value) -> bool:
    """True for a usable deadline: ``None`` or a finite positive real."""
    return value is None or is_seconds(value)


@dataclass(frozen=True)
class QSCConfig:
    """All tunables of the quantum pipeline in one place.

    Attributes
    ----------
    precision_bits:
        QPE ancilla bits p — eigenvalues are resolved to λ_scale / 2^p.
    shots:
        Measurement budget per node for row tomography (0 = noiseless
        readout, the asymptotic-shots limit).
    readout_chunk_size:
        Rows per block in the batched readout pipeline
        (:mod:`repro.core.readout`).  ``None`` (default) splits the rows
        into balanced blocks of at most ``max(64, 2^16 // dim)`` rows
        (64 rows from dim 1024 up), so the readout holds its output plus
        a few blocks; the
        circuit backend's internal circuit passes stay capped at 64
        simulated columns either way, and a finite chunk can only lower
        that cap, never raise it (each live filter block is
        ``chunk × dim`` amplitudes).  Chunking never changes results,
        except that a chunk leaving a block of exactly one row moves that
        row by float rounding (under 1e-15: its filter runs as a
        matrix-vector product).  Exposed on the CLI as
        ``--readout-chunk-size``.
    store_dir:
        Root directory of the shared content-addressed compute store
        (:mod:`repro.store`).  ``None`` (default) keeps the store
        memory-only (per process); a path attaches the on-disk tier, so
        spectral eigendecompositions / QPE kernels and stage
        checkpoints written by *any* process serve later runs as disk
        hits.  Purely an execution knob: a warm store is bit-transparent
        (hit or miss, outputs are identical) and the field never enters
        checkpoint fingerprints.  Exposed on the CLI as ``--store-dir``.
    histogram_shots:
        Shots spent on the global eigenvalue histogram used to pick the
        projection threshold.
    backend:
        ``"circuit"`` (full statevector QPE, n ≲ 64) or ``"analytic"``
        (closed-form QPE statistics, scales to thousands of nodes).
    spectral_engine:
        Eigensolve contract of the analytic QPE engine
        (:data:`SPECTRAL_ENGINES`): ``"v3"`` (default) solves the n × n
        graph block with LAPACK's MRRR driver
        (``scipy.linalg.eigh(driver="evr")``) and appends the analytic pad
        eigenpairs; ``"v1"`` runs NumPy's ``eigh`` on the full
        power-of-two padded matrix, the byte-stable legacy contract every
        paper sweep pins, so their recorded artifacts never move.  Both
        agree to floating-point rounding, so labels match but digests
        differ.  The circuit backend ignores it.  Exposed on the CLI as
        ``--spectral-engine``.
    linalg_backend:
        Matrix-representation backend for Laplacian construction:
        ``"auto"`` (default — dense below 256 nodes, sparse CSR with the
        LOBPCG midrange eigensolver up to 4096, sparse + ``eigsh``
        beyond), ``"dense"`` or ``"sparse"``; see ``repro.linalg``.
        Exposed on the CLI as ``--backend``.
    evolution:
        ``"exact"`` Hamiltonian exponential or ``"trotter"`` product
        formula (circuit backend only).
    trotter_steps / trotter_order:
        Product-formula parameters when ``evolution="trotter"``.
    theta:
        Hermitian phase angle assigned to arcs.
    eigenvalue_threshold:
        Explicit projection threshold ν; ``None`` selects it from the
        sampled eigenvalue histogram (end-to-end quantum mode).
    qmeans_delta:
        Noise parameter δ of the q-means clustering step.
    qmeans_iterations:
        q-means iteration cap.
    kmeans_restarts:
        Independent q-means restarts.
    seed:
        Master seed; all stochastic stages derive their streams from it.
    """

    precision_bits: int = 6
    shots: int = 2048
    histogram_shots: int = 4096
    readout_chunk_size: int | None = None
    store_dir: str | None = None
    backend: str = "analytic"
    spectral_engine: str = "v3"
    linalg_backend: str = "auto"
    evolution: str = "exact"
    trotter_steps: int = 4
    trotter_order: int = 2
    theta: float = float(np.pi / 2)
    eigenvalue_threshold: float | None = None
    qmeans_delta: float = 0.05
    qmeans_iterations: int = 30
    kmeans_restarts: int = 4
    seed: int | None = 7

    def __post_init__(self):
        for name in _INTEGER_FIELDS + _OPTIONAL_INTEGER_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_INTEGER_FIELDS:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ClusteringError(f"{name} must be an integer, got {value!r}")
        for name in ("theta", "qmeans_delta", "eigenvalue_threshold"):
            value = getattr(self, name)
            if value is None and name == "eigenvalue_threshold":
                continue
            if not math.isfinite(value):
                raise ClusteringError(f"{name} must be finite, got {value!r}")
        if self.precision_bits < 1:
            raise ClusteringError(
                f"precision_bits must be >= 1, got {self.precision_bits}"
            )
        if self.shots < 0 or self.histogram_shots < 1:
            raise ClusteringError("invalid shot budgets")
        if self.readout_chunk_size is not None and self.readout_chunk_size < 1:
            raise ClusteringError(
                f"readout_chunk_size must be >= 1 or None, "
                f"got {self.readout_chunk_size}"
            )
        if self.store_dir is not None and not str(self.store_dir).strip():
            raise ClusteringError(
                "store_dir must be a non-empty path or None"
            )
        if self.backend not in BACKENDS:
            raise ClusteringError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.spectral_engine not in SPECTRAL_ENGINES:
            raise ClusteringError(
                f"spectral_engine must be one of {SPECTRAL_ENGINES}, "
                f"got {self.spectral_engine!r}"
            )
        if self.linalg_backend not in LINALG_BACKENDS:
            raise ClusteringError(
                f"linalg_backend must be one of {LINALG_BACKENDS}, "
                f"got {self.linalg_backend!r}"
            )
        if self.evolution not in EVOLUTIONS:
            raise ClusteringError(
                f"evolution must be one of {EVOLUTIONS}, got {self.evolution!r}"
            )
        if self.trotter_steps < 1 or self.trotter_order not in (1, 2):
            raise ClusteringError("invalid Trotter parameters")
        if self.qmeans_delta < 0:
            raise ClusteringError(f"qmeans_delta must be >= 0, got {self.qmeans_delta}")
        if self.eigenvalue_threshold is not None and self.eigenvalue_threshold <= 0:
            raise ClusteringError("eigenvalue_threshold must be positive")

    def with_updates(self, **kwargs) -> "QSCConfig":
        """A modified copy — convenient for parameter sweeps."""
        return replace(self, **kwargs)
