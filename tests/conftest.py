"""Shared test configuration.

Property-based tests run under a derandomized hypothesis profile: the same
examples on every run, and no example database written to disk.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
