import pytest

from intaut import Field, build_integral_graph, automorphism_group
from oracles import semiaffine_group


@pytest.fixture(scope="session")
def f3():
    return Field(3)


@pytest.fixture(scope="session")
def f5():
    return Field(5)


@pytest.fixture(scope="session")
def f7():
    return Field(7)


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def f25():
    return Field(5, 2)


@pytest.fixture(scope="session")
def f49():
    return Field(7, 2)


@pytest.fixture(scope="session")
def sa33(f3):
    return semiaffine_group(f3, 3)


@pytest.fixture(scope="session")
def graph33(f3):
    return build_integral_graph(f3, 3)


@pytest.fixture(scope="session")
def aut33(graph33):
    return automorphism_group(graph33)
