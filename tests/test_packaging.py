import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _floor(package):
    m = re.search(rf'"{package}>=([0-9.]+)"', PYPROJECT.read_text())
    assert m, f"pyproject.toml declares no {package} floor"
    return tuple(int(part) for part in m.group(1).split("."))


def test_declared_floors_cover_the_numpy_api_in_use():
    # the program's own time integrals no longer need NumPy 2 (they are one
    # running trapezoid built from cumsum), but NumPy 2.0 is the oldest
    # release the program has been verified against, and the test oracles
    # call np.trapezoid, which 2.0 added; SciPy 1.13 is the first release
    # built against NumPy 2
    assert _floor("numpy") >= (2, 0)
    assert _floor("scipy") >= (1, 13)
