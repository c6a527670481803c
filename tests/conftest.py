"""Test-suite settings shared by every module."""

from hypothesis import settings

# No per-example deadline: on a loaded or shared machine one example can take
# longer than hypothesis' default 200 ms without anything being wrong.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")
