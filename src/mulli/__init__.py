"""Mullineux symbols, BG-partitions, and the bijection between their fixed-point families.

`__all__` is every name imported below that is neither private nor a submodule. `mulli.census` is
the report function; reach the module through `from mulli.census import ...` or `sys.modules["mulli.census"]`.
"""

from types import ModuleType as _ModuleType

from .bg import add_rim_star_layer, bg_symbol, bg_to_mull, mull_to_bg
from .census import CensusReport, bg_counts_from_gf, census, has_distinct_odd_parts, partitions_of
from .partitions import (
    MAX_CELLS,
    as_partition,
    conjugate,
    diagonal_hook_lengths,
    durfee_length,
    format_partition,
    hook_length,
    is_bg_partition,
    is_p_regular,
    is_self_conjugate,
    parse_partition,
    self_conjugate_from_diagonal_hooks,
    truncate_to_durfee,
)
from .render import peel_iterations, render_diagram, render_peeled
from .rims import PRim, PRimStar, p_rim, p_rim_star, remove_p_rim, remove_p_rim_star, rim
from .symbols import Symbol, is_self_mullineux, mullineux_map, mullineux_symbol, reconstruct, validate_symbol
from .verify import CheckResult, run_checks

__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
