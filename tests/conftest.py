import pytest

from qmsets import Universe


@pytest.fixture
def u3():
    return Universe.of("abc")


@pytest.fixture
def u4():
    return Universe.of("abcd")
