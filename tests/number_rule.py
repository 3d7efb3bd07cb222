"""Inputs the number rule of :mod:`iqsense.numerics` refuses wherever a
model type takes a number."""

import math

# A bool, a string, None, two non-finite floats and an int too large for a
# float: each raises ValueError naming the field.
REFUSED = (True, "1", None, math.nan, math.inf, 10**400)
