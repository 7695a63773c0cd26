"""Evaluation utilities: statistics, clustering, tables and ASCII plots."""

from .kmeans import KMeansResult, kmeans, select_representatives, trace_features
from .stats import PairedTTestResult, paired_ttest
from .tables import format_table, metrics_table
from .plots import render_scatter, render_series

__all__ = [
    "paired_ttest",
    "PairedTTestResult",
    "kmeans",
    "KMeansResult",
    "trace_features",
    "select_representatives",
    "format_table",
    "metrics_table",
    "render_series",
    "render_scatter",
]
