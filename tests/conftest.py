"""Test-suite settings shared by every module."""

from hypothesis import settings

# No per-example deadline: on a loaded or shared machine one example can take
# longer than hypothesis' default 200 ms without anything being wrong.
# Hypothesis loads its own "ci" profile on CI (deadline=None too, and
# derandomized, printing the failure blob), which is kept.
settings.register_profile("no-deadline", deadline=None)
if settings.get_current_profile_name() != "ci":
    settings.load_profile("no-deadline")
