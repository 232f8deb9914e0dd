"""Published reference values for persistency exponents.

These are compiled constants used for side-by-side comparison in reports
and in the ``reproduce`` command; they are never presented as computed by
this package.  The diffusion rows carry Monte Carlo reference estimates of
the divisor and exceedance exponents with their published 95% half-widths,
plus values from a numerical Rice-formula implementation, from large
trajectory-simulation studies, and exact values where known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .covariance import CovarianceModel, Diffusion

__all__ = ["DiffusionReference", "DIFFUSION_REFERENCE", "SCALAR_MC_REFERENCE", "POLE_REFERENCE"]


@dataclass(frozen=True)
class DiffusionReference:
    divisor: float
    divisor_hw: float
    iia: float
    iia_hw: float
    numeric_rice: Optional[float] = None
    trajectory_sim: Optional[float] = None
    exact: Optional[float] = None


DIFFUSION_REFERENCE = {
    # d=1 ``iia`` 0.1360 is the published constant, kept for side-by-side
    # reports; it is not the compound exponent of the corrected E0, whose
    # pole is 0.12033 (README "Known discrepancies").
    1: DiffusionReference(0.248, 0.002, 0.1360, 0.0012, 0.1206, 0.1205, 0.1203),
    2: DiffusionReference(0.496, 0.004, 0.1858, 0.0017, 0.1874, 0.1875, 0.1875),
    3: DiffusionReference(0.750, 0.005, 0.2441, 0.0014, 0.2382, 0.2382),
    4: DiffusionReference(0.995, 0.005, 0.2901, 0.0011, 0.2805, 0.2806),
    5: DiffusionReference(1.243, 0.005, 0.3286, 0.0016, 0.3171, 0.3173),
    6: DiffusionReference(1.478, 0.008, 0.3618, 0.0025),
    7: DiffusionReference(1.709, 0.011, 0.3915, 0.0033),
    8: DiffusionReference(1.950, 0.009, 0.4195, 0.0034),
    9: DiffusionReference(2.168, 0.013, 0.4446, 0.0030),
    10: DiffusionReference(2.380, 0.011, 0.4668, 0.0034),
}

# Monte Carlo exceedance exponents (value, 95% half-width) for the
# non-diffusion models, keyed by canonical spec string.
SCALAR_MC_REFERENCE = {
    "random_acceleration": (0.2647, 0.00083),
    "shifted_gaussian(alpha=0)": (0.4116, 0.00017),
    "matern_half_integer(nu=2.5)": (0.2188, 0.0011),
}

# Pole-search exponents reported for the same models.
POLE_REFERENCE = {
    "diffusion(d=2)": 0.1862,
    "random_acceleration": 0.2647,
    "shifted_gaussian(alpha=0)": 0.4115,
}


def reference_for(model: CovarianceModel) -> dict:
    """All known reference values for a catalog model."""
    out: dict = {}
    row = DIFFUSION_REFERENCE.get(model.d) if isinstance(model, Diffusion) else None
    if row:
        out["divisor"] = row.divisor
        out["divisor_half_width"] = row.divisor_hw
        out["exceedance"] = row.iia
        out["exceedance_half_width"] = row.iia_hw
        if row.exact is not None:
            out["exact"] = row.exact
    spec = model.spec_string()
    if spec in SCALAR_MC_REFERENCE:
        val, hw = SCALAR_MC_REFERENCE[spec]
        out["exceedance"] = val
        out["exceedance_half_width"] = hw
    if spec in POLE_REFERENCE:
        out["pole"] = POLE_REFERENCE[spec]
    return out
