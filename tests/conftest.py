"""Test-session settings.

With the ``CI`` environment variable set, hypothesis runs under the ``ci``
profile: a failing property test prints the ``@reproduce_failure`` blob
that replays it, and no example fails for taking long on a slow runner.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
