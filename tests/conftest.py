"""Shared test settings.

Every ``@given`` test draws its examples from a fixed seed derived from the
test itself, so each run of the suite checks the same examples; a failure
found once is found again on the next run.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
