"""The package metadata in ``pyproject.toml`` agrees with the package."""

import sys
from pathlib import Path

import pytest

import pivotboot

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_version_is_the_package_version():
    import tomllib

    with PYPROJECT.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == pivotboot.__version__
