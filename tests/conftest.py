"""Shared fixtures; the degree-3 MacLane data is built once per session."""

import pytest
from hypothesis import settings

from arrlcs.config import Configuration, glue_c13
from arrlcs.lcs import build_lcs, _maclane_data

# property tests draw the same examples on every run and are not timed
settings.register_profile("arrlcs", derandomize=True, deadline=None)
settings.load_profile("arrlcs")


@pytest.fixture(scope="session")
def maclane_data():
    # the module-level cache is shared with class_of_glued and friends
    return _maclane_data()


@pytest.fixture(scope="session")
def c13_data():
    return build_lcs(glue_c13())


# a 9-line configuration with trivial automorphism group (found by search,
# then frozen): eight triple points plus the forced double points
ASYMMETRIC_9 = {
    "lines": ["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8"],
    "infinity": "l0",
    "points": [
        {"name": "p01", "lines": ["l0", "l1"]},
        {"name": "p02", "lines": ["l0", "l2"]},
        {"name": "p03", "lines": ["l0", "l3"]},
        {"name": "p048", "lines": ["l0", "l4", "l8"]},
        {"name": "p056", "lines": ["l0", "l5", "l6"]},
        {"name": "p07", "lines": ["l0", "l7"]},
        {"name": "p12", "lines": ["l1", "l2"]},
        {"name": "p135", "lines": ["l1", "l3", "l5"]},
        {"name": "p14", "lines": ["l1", "l4"]},
        {"name": "p167", "lines": ["l1", "l6", "l7"]},
        {"name": "p18", "lines": ["l1", "l8"]},
        {"name": "p238", "lines": ["l2", "l3", "l8"]},
        {"name": "p245", "lines": ["l2", "l4", "l5"]},
        {"name": "p26", "lines": ["l2", "l6"]},
        {"name": "p27", "lines": ["l2", "l7"]},
        {"name": "p347", "lines": ["l3", "l4", "l7"]},
        {"name": "p36", "lines": ["l3", "l6"]},
        {"name": "p46", "lines": ["l4", "l6"]},
        {"name": "p578", "lines": ["l5", "l7", "l8"]},
        {"name": "p68", "lines": ["l6", "l8"]},
    ],
}


@pytest.fixture(scope="session")
def asymmetric_config() -> Configuration:
    from arrlcs.config import load_configuration

    return load_configuration(ASYMMETRIC_9)
