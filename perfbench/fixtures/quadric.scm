# Smooth quadric surface in P^3.  X is not all of P^n, so every
# scan-clean candidate of an exact scan goes to the graded certificate.
q = 2
P 3 : x y z w
X:
  x*y + z*w
dim X = 2
