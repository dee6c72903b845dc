"""Coefficient time histories: the interchange unit of the package.

A CoefficientSeries is what a surrogate plant produces, what a monitor
file parses into, and what the identifier consumes.  Channels that a
source did not record (common in external solver exports) are simply
absent (None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteData, check

# Channel labels used across derivative sets, reports, and fits.
CHANNELS = ("CL", "CD", "Cm")


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Time-stamped lift/drag/moment coefficient histories."""

    times: np.ndarray
    CL: np.ndarray | None = None
    CD: np.ndarray | None = None
    Cm: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        check(t.ndim == 1 and len(t) >= 1, "times", "must be a non-empty 1-D array", t.shape)
        if not np.isfinite(t).all():
            raise NonFiniteData("times contain non-finite values")
        check(bool((t[1:] > t[:-1]).all()), "times", "must be strictly increasing")
        present = 0
        for name in CHANNELS:
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            object.__setattr__(self, name, arr)
            check(arr.shape == t.shape, name, f"must have the shape of times {t.shape}", arr.shape)
            if not np.isfinite(arr).all():
                raise NonFiniteData(f"channel {name} contains non-finite values")
            present += 1
        check(present > 0, "CL/CD/Cm", "must not all be None")

    def __len__(self) -> int:
        return len(self.times)

    def channels(self) -> dict[str, np.ndarray]:
        """Mapping of the channels actually present, in canonical order."""
        return {name: getattr(self, name) for name in CHANNELS if getattr(self, name) is not None}
