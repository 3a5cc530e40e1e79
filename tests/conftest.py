"""Suite-wide Hypothesis profiles.

``tier-1`` (loaded by default) derandomizes every property test, so a
tier-1 run draws the same examples on every machine and every run.
``ci-deep`` draws fresh random examples, twenty times as many, for the CI
job that searches for front-end differences
(``pytest tests/js/test_frontend_differential.py --hypothesis-profile=ci-deep``).
"""

from hypothesis import settings

settings.register_profile("tier-1", derandomize=True)
settings.register_profile("ci-deep", max_examples=2000, deadline=None)
settings.load_profile("tier-1")
