"""Vector-valued nonsymmetric Jack polynomials and their torus orthogonality measure.

Exact construction of the polynomials over the rationals, the graded
recurrence for the matrix Fourier coefficients of the orthogonality
measure, positivity checks through Cesaro-summed kernel approximants, and
the first-order connection satisfied by the measure's density.

The API is the modules (``jacktorus.kernels``, ``jacktorus.coeffs``, ...);
nothing is re-exported here.
"""

__version__ = "0.1.0"
