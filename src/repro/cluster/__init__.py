"""Clustering primitives (from-scratch DBSCAN) used by detokenization."""

from repro.cluster.dbscan import NOISE, dbscan_labels

__all__ = ["NOISE", "dbscan_labels"]
