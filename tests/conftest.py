"""Suite-wide test settings.

Property tests draw the same examples on every run (``derandomize``) and
keep no example database, so a tier-1 run is reproducible and leaves no
``.hypothesis/`` directory behind.  Each test's own ``max_examples``
still applies on top of this profile.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repro")
