import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _floor(package):
    m = re.search(rf'"{package}>=([0-9.]+)"', PYPROJECT.read_text())
    assert m, f"pyproject.toml declares no {package} floor"
    return tuple(int(part) for part in m.group(1).split("."))


def test_declared_floors_cover_the_numpy_api_in_use():
    # monitors and weakform call np.trapezoid, which NumPy added in 2.0;
    # SciPy 1.13 is the first release built against NumPy 2
    assert _floor("numpy") >= (2, 0)
    assert _floor("scipy") >= (1, 13)
