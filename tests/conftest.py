"""Suite-wide pytest configuration."""

from hypothesis import settings

# Selected with ``--hypothesis-profile ci`` (the workflow's tier-1 step);
# the differential grid-topology property in test_multigrid.py spends it.
# Without the flag every test keeps Hypothesis' default profile.
settings.register_profile("ci", max_examples=200, deadline=None)
