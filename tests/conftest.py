"""Shared test settings.

Property tests run under a derandomized Hypothesis profile without
deadlines: every run checks the same examples, and a slow or busy machine
cannot fail a test on timing alone. No example database is written.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
