from hypothesis import settings

# Derandomized: every property test draws the same examples on every run,
# so the suite's outcome does not depend on the run.
settings.register_profile("xreid", derandomize=True, deadline=None)
settings.load_profile("xreid")
