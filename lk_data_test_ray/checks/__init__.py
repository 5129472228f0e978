from .vocab import ISO_639_1  # noqa: F401
from .row import RowChecker  # noqa: F401
from .drift import chi_square_drift  # noqa: F401
