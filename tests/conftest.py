"""Hypothesis profiles.

``--hypothesis-profile=ci`` runs every property test on a fixed set of
examples with no deadline: exact arithmetic can take longer than
hypothesis's default per-example deadline on a slow runner.
"""

from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True)
