"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with one ``except`` clause while
still being able to distinguish the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Invalid mixed-graph structure or graph-construction parameters."""


class CircuitError(ReproError):
    """Invalid quantum-circuit construction or simulation request."""


class QubitError(CircuitError):
    """A qubit index is out of range or duplicated within one operation."""


class EncodingError(ReproError):
    """Data cannot be encoded into the requested quantum representation."""


class ClusteringError(ReproError):
    """Clustering cannot proceed (e.g. fewer points than clusters)."""


class ConvergenceError(ReproError):
    """An iterative solver exhausted its iteration budget without converging."""


class StoreError(ClusteringError):
    """The content-addressed compute store was misconfigured or an entry
    is unusable.  Subclasses :class:`ClusteringError` because store-served
    data (spectral entries, stage checkpoints) flows straight into
    the clustering pipeline, whose callers already catch that domain."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class ParseError(ReproError):
    """A netlist or edge-list file could not be parsed."""


class ServiceError(ReproError):
    """A job-service request was malformed or cannot be honoured.

    Covers the clustering-as-a-service layer (:mod:`repro.service`):
    unknown jobs, artifacts requested before completion, protocol
    violations on the wire, and client-observed server errors.

    Every service failure carries the same two class attributes on
    both sides of the wire — subclasses in :mod:`repro.service.errors`
    refine them and the client rehydrates the matching subclass from the
    ``code`` field of an error reply:

    ``code``
        Stable machine-readable identifier, carried on the wire.
    ``retryable``
        Whether retrying the identical request can ever succeed
        (e.g. an over-quota rejection, or an artifact not ready yet).
    """

    code = "service_error"
    retryable = False
