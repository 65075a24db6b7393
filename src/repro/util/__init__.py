"""Small shared utilities: ASCII tables and summary statistics."""

from repro.util.stats import mean_std
from repro.util.tables import render_table

__all__ = ["mean_std", "render_table"]
