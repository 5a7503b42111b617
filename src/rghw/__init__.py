"""Relative generalized Hamming weights of affine Cartesian codes.

Closed formula over the exponent box, canonical maximal families
attaining every weight, and independent brute-force oracles to check
both.  See README.md for the shape of the API and the CLI.
"""

from .boxcomb import (
    BoxShape,
    DegreeBand,
    WeightQuery,
    WeightRecord,
    WeightReport,
    band_size,
    footprint,
    hierarchy,
    iter_band,
    iter_hierarchy,
    lex_rank_in_leq,
    nth_band_element,
    rghw,
    shadow,
)
from .codes import (
    CartesianCode,
    CartesianGrid,
    LeadingTerm,
    MultiPoly,
    build_code,
    build_grid,
    common_zero_count,
    make_maximal_poly,
    maximal_family,
)
from .errors import BudgetExceeded, RghwError
from .gf import Field
from .oracle import (
    OracleBudget,
    OracleResult,
    SupportOracle,
    oracle_rghw_support,
    oracle_rghw_window,
)

__version__ = "0.1.0"
