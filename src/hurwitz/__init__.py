"""Nielsen classes, braid orbits, reduced cusp data, and lift invariants
for parametric finite-group families."""

from .groups import (make_group, central_lift, gl_orders, ConsistencyError,
                     BudgetExceeded)

__all__ = ["make_group", "central_lift", "gl_orders", "ConsistencyError",
           "BudgetExceeded"]

__version__ = "0.1.0"
