"""Independent brute-force verification layer: each module recomputes the
model's closed forms by a different route.  ``oracle.quadrature`` takes the
spectral integrals by adaptive Gauss-Kronrod quadrature with explicit
principal-value handling; ``oracle.well`` solves a genuine finite-range
circular well by Bessel matching, with no separable approximation.  The
package re-exports nothing: callers import the submodule they use, so the
console path, which reaches only ``oracle.well``, never loads the quadrature.
"""
