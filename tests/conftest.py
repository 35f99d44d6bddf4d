"""Test-wide settings: Hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("treepack", derandomize=True, deadline=None)
settings.load_profile("treepack")
