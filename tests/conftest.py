import pytest

from dynarag.fixtures import build_world_runtime
from worlds import write_worlds


@pytest.fixture(scope="session")
def world_runtime():
    """Immutable demo-world runtime shared by the end-to-end tests."""
    return build_world_runtime()


@pytest.fixture(scope="session")
def input_worlds(tmp_path_factory):
    """Config path of the demo world and of each small ``worldgen`` world,
    written once as files. Tests read them and write nothing there."""
    return write_worlds(tmp_path_factory.mktemp("input_worlds"))
