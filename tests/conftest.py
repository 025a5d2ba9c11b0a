import numpy as np
import pytest

from shadowevap.config import default_config
from shadowevap.geometry import WaferSite
from shadowevap.table import Table

# Measured per-wafer entries: (wafer_id, area_class um^2, R_N ohm, J_c uA/um^2).
# Wafers 3-5 are the internally consistent set; wafers 1-2 carry R_N rounded
# to two significant figures and serve as data-quality outliers.
WAFER_TABLE = [
    ("w1", 0.025, 20000.0, 0.50),
    ("w1", 0.090, 8000.0, 0.51),
    ("w2", 0.025, 18000.0, 0.46),
    ("w2", 0.090, 5300.0, 0.47),
    ("w3", 0.025, 2600.0, 5.61),
    ("w3", 0.090, 700.0, 5.80),
    ("w4", 0.025, 3200.0, 4.71),
    ("w4", 0.090, 900.0, 4.56),
    ("w5", 0.025, 13000.0, 1.12),
    ("w5", 0.090, 3300.0, 1.15),
]

CONSISTENT_WAFERS = ("w3", "w4", "w5")


@pytest.fixture
def config():
    return default_config()


def site_table(points, chip_ids=None):
    """`WaferLayout.sites` at the (x_mm, y_mm) points, built column by
    column: float coordinates, the given chip ids (None if not given) and
    no site ids."""
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    none = np.full(x.size, None, dtype=object)
    chips = none if chip_ids is None else np.fromiter(chip_ids, object, x.size)
    return Table(WaferSite, x_mm=x, y_mm=y, chip_id=chips, site_id=none)
