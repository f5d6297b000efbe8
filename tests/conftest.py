"""Shared fixtures; the degree-3 MacLane data is built once per session."""

import os
import sys

# no bytecode left beside arrlcs's sources: set before it is imported, and
# in the environment for the CLI subprocesses that some tests start
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import pytest
from hypothesis import settings

from arrlcs.config import Configuration, glue_c13
from arrlcs.lcs import build_lcs, _maclane_data
from helpers import ASYMMETRIC_9

# property tests draw the same examples on every run and are not timed
settings.register_profile("arrlcs", derandomize=True, deadline=None)
settings.load_profile("arrlcs")


@pytest.fixture(scope="session")
def maclane_data():
    # the module-level cache is shared with c13-report, which reads c8's witness from it
    return _maclane_data()


@pytest.fixture(scope="session")
def c13_data():
    return build_lcs(glue_c13())


@pytest.fixture(scope="session")
def asymmetric_config() -> Configuration:
    from arrlcs.config import load_configuration

    return load_configuration(ASYMMETRIC_9)
