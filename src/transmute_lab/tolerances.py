"""Numerical tolerances and guard thresholds, collected in one place.

These are engineering budgets chosen for double-precision headroom, not
physics inputs.  Tests assert at exactly these values.
"""

# Absolute guard below which 1 + eps*I (or a sliding denominator) is treated
# as an exact pole rather than divided through.
POLE_GUARD = 1e-14

# Composition of the exact sliding relation must close to this relative level.
FLOW_GROUP_RTOL = 1e-12

# Rounding slack on |tau_Lambda| <= cutoff envelope in the theorem table.
THEOREM_ENVELOPE_RTOL = 1e-12

# Total target length via the optical theorem vs via -Im(tau)/k: the two
# routes must agree row by row to this relative level.
ROUTE_AGREEMENT_RTOL = 1e-12

# Direct regulated evaluation vs transport from an arbitrary anchor.
ANCHOR_INDEPENDENCE_RTOL = 1e-10

# Numerically extracted pole residue vs 4*pi*E_B.
RESIDUE_RTOL = 1e-6

# Im(1/tau) = 1/4 on the continuum; defect beyond this raises.
UNITARITY_DEFECT_TOL = 1e-9

# Im(tau) must be <= this on the continuum before observables are formed.
IM_TAU_POSITIVE_TOL = 1e-12

# Closed-form resolvent vs adaptive quadrature.
QUADRATURE_MATCH_RTOL = 1e-8

# Relative tolerance (in ln E) of the bound-state pole search.
POLE_SEARCH_LOG_TOL = 1e-13

# Special functions: envelope-relative accuracy target.
SPECIAL_FUNCTION_RTOL = 1e-10
