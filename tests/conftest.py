"""Shared pytest setup: every property test draws the same examples on every run."""
from hypothesis import settings

# derandomize seeds each test from a hash of its source (and turns the example
# database off); deadline=None keeps a slow shared machine from failing a test
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
