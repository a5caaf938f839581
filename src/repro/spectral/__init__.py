"""Classical spectral machinery: eigensolvers, embeddings, k-means."""

from repro.spectral.eigensolvers import lanczos_lowest_eigenpairs
from repro.spectral.embedding import (
    complex_to_real_features,
    row_normalize,
    spectral_embedding,
)
from repro.spectral.kmeans import (
    KMeansResult,
    assign_labels,
    kmeans,
    kmeans_plusplus_init,
    update_centroids,
)
from repro.spectral.clustering import (
    ClassicalSpectralClustering,
    ClusteringResult,
)
from repro.spectral.gap import (
    eigengaps,
    estimate_num_clusters,
    relative_eigengap,
)

__all__ = [
    "eigengaps",
    "estimate_num_clusters",
    "relative_eigengap",
    "lanczos_lowest_eigenpairs",
    "complex_to_real_features",
    "row_normalize",
    "spectral_embedding",
    "KMeansResult",
    "assign_labels",
    "kmeans",
    "kmeans_plusplus_init",
    "update_centroids",
    "ClassicalSpectralClustering",
    "ClusteringResult",
]
