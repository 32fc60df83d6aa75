import pytest

from mcsg import gadgets


@pytest.fixture(scope="session")
def small_gadget():
    """The r = 2 gadget of one clause on two variables (917,258 points)."""
    g = gadgets.build_gadget(gadgets.parse_cnf("p mcnf 2 1\n+ 1 2\n"))
    g.instance  # materialize once for the whole session
    return g
