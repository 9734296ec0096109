"""Test-wide settings.

Hypothesis runs derandomized, so every run draws the same examples, with no
deadline, because example timings on a loaded machine vary, and without an
example database.  Hypothesis also caches the constants it reads from local
source files; that cache goes to a temporary directory removed at the end of
the session, so the tests write no ``.hypothesis/`` directory.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
