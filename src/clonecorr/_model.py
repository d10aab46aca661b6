"""Closed forms of the Buzek-Hillery copier and of a qubit's entropy, each written once.

The input is alpha|0> + beta|1> with alpha in [-1, 1] and beta =
+sqrt(1 - alpha^2); j is the machine parameter, k = alpha^2 beta^2 <= 1/4
and n = 1 - 2j. cloner builds the state and its PSD window from these
formulas, separability its separable window. This module imports only
math and errors: no numpy and no hermat.

PSD window (cloner.valid_j_range). PSD here means minimum eigenvalue
>= -eps, eps = 1e-10. rho's spectrum is 0 and the roots of the triplet
cubic f(lambda) = lambda^3 - lambda^2 + 2jn lambda - k n^2 (2j - n/2), all
real since rho is symmetric. The shifted cubic f(x - eps) has coefficients
1, -(1 + 3 eps), 3 eps^2 + 2 eps + 2jn and F(j) = f(-eps), so by
Descartes' rule its roots are all >= 0, i.e. rho is PSD at the floor,
exactly when F(j) <= 0 (_physical_at_floor). F is negative on [1/6, 1/2],
where both of its j-dependent terms are <= 0, and strictly decreasing on
[0, 1/6], where its derivative -2 eps (1 - 4j) - k n (5 - 18j) is
negative. So the window is (lo, 1/2): lo is 0 when F(0) <= 0, i.e.
k <= 2 (1 + eps) eps^2, and otherwise the one root of F in [0, 1/6].

Separable window (separability.separable_intervals). The partial
transpose's leading 3x3 and full determinants are

    W3 = (alpha^2 j n / 2) (2j - beta^2 n)                    (w3_closed)
    W4 = (1/2) (k j n^2 (6j-1) - 2 j^4) = (j/2) g(j)          (w4_closed)

for the cubic g(j) = k n^2 (6j-1) - 2j^3 = (24k-2) j^3 - 28k j^2 + 10k j - k,
and the state is separable exactly where g >= 0:
- On (0, 1/6), 6j - 1 < 0, so g < 0.
- On [1/3, 1/2], g < 0 because k <= 1/4: there n^2 (6j-1) <= 2/9, so
  k n^2 (6j-1) <= 1/18 < 2/27 <= 2j^3.
- g(1/6) = -1/108 and g(1/3) = k/9 - 2/27 are both negative, so g has
  0 or 2 roots (with multiplicity) in between.
- For j >= 1/6, g >= 0 implies W3 >= 0, so neither the cut of W3 at
  j3 = beta^2 / (2 (1 + beta^2)) nor a W3 test adds anything. W3 has the
  sign of 2j - beta^2 n, i.e. W3 >= 0 for j >= j3. If beta^2 < 1/2,
  then j3 < 1/6. If beta^2 >= 1/2 and j < j3, then beta^2 > 2j/n >= 1/2.
  So k < 2j (1-4j) / n^2, and therefore g < -2j (5j-1)^2 <= 0.
- For alpha in {0, +-1}, k = 0 and g(j) = -2j^3 < 0 on the copier
  domain [1/6, 1/2], so no copier output there is separable.
The roots (_g_roots): with y = n/j, which maps (1/6, 1/3) onto (1, 4),
g(j) = -k j^3 (y^3 - 4y^2 + 2/k). With y = 4/3 + z that cubic is
z^3 - (16/3) z + 2/k - 128/27, whose roots are
z = (8/3) cos(theta - 2 pi m / 3) with cos(3 theta) = 1 - 27/(64k).
They are all real exactly when k >= 27/128 (|alpha| from about 0.5499
to 0.8352). For 27/128 <= k <= 1/4, m = 0 and m = 1 give y in
[8/3, 1 + sqrt 5] and [2, 8/3], i.e. r1 = 1/(2 + y) in
[(3 - sqrt 5)/4, 3/14] and r2 in [3/14, 1/4]; m = 2 gives y < 0.
Whether k >= 27/128 is decided exactly, on the rational k of the float
alpha (_exact_k). Each root then takes one Newton step on g from its
Viete value, with g's value at that float j computed exactly in integer
arithmetic and rounded once (_g_exact), so the step corrects the Viete
value's rounding. The step is kept only when it stays in the root's
bracket, [1/6, 3/14] or [3/14, 1/3], so it never reorders the roots and
never raises.

Qubit entropy (qubit_entropy). r.sigma is traceless and squares to |r|^2 I,
so a qubit's (tr I + r.sigma)/2 has the spectrum ((tr - |r|)/2, (tr + |r|)/2)
(R. & M. Horodecki, PRA 54, 1838 (1996)). On the copier |r_a| = |r_b| = n.
"""

import math

from .errors import DomainError

# g's roots in (1/6, 1/3) lie either side of 3/14, where y = (1 - 2j)/j = 8/3
_ROOT_BRACKETS = ((1.0 / 6.0, 3.0 / 14.0), (3.0 / 14.0, 1.0 / 3.0))


def _amplitudes(alpha):
    """(alpha, beta) as floats, beta = +sqrt(1 - alpha^2); DomainError outside [-1, 1]."""
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [-1, 1], got {alpha}")
    return alpha, math.sqrt(1.0 - alpha * alpha)


def _exact_k(alpha):
    """(kn, kd) with k = alpha^2 (1 - alpha^2) = kn / kd exactly, for a float alpha."""
    p, d = alpha.as_integer_ratio()
    return p * p * (d * d - p * p), d ** 4


def _physical_at_floor(k, eps):
    """j -> F(j) <= 0, i.e. f(-eps) <= 0 for the triplet cubic f at k; j a number or an array."""
    head = (-eps - 1.0) * eps

    def is_physical(j):
        j2 = 2.0 * j
        n = 1.0 - j2
        return (head - j2 * n) * eps - k * n * n * (j2 - 0.5 * n) <= 0.0
    return is_physical


def w3_closed(alpha, j):
    """Order-3 leading principal minor of the partial transpose, closed form."""
    (alpha, beta), j = _amplitudes(alpha), float(j)
    n = 1.0 - 2.0 * j
    return (alpha ** 2 * j * n / 2.0) * (2.0 * j - beta ** 2 * n)


def w4_closed(alpha, j):
    """Determinant of the partial transpose, closed form."""
    (alpha, beta), j = _amplitudes(alpha), float(j)
    n = 1.0 - 2.0 * j
    a2 = alpha ** 2
    b2 = beta ** 2
    return 0.5 * (a2 * b2 * j * n * n * (6.0 * j - 1.0) - 2.0 * j ** 4)


def _g_exact(kn, kd, j):
    """g(j) for k = kn / kd and a float j, exact in integers and rounded once."""
    q, dj = j.as_integer_ratio()
    return (kn * (dj - 2 * q) ** 2 * (6 * q - dj) - 2 * kd * q ** 3) / (kd * dj ** 3)


def _g_roots(alpha):
    """The stretches of j in [1/6, 1/2] where g >= 0, as a list of 0 or 1 (r1, r2) pairs.

    alpha is a float. k < 27/128, k = 0 included, gives [], and otherwise
    the pair is g's two roots in (1/6, 1/3), r1 <= r2.
    """
    kn, kd = _exact_k(alpha)
    if 128 * kn < 27 * kd:
        return []
    k = kn / kd
    theta = math.acos(max(1.0 - 27.0 / (64.0 * k), -1.0)) / 3.0
    roots = []
    for t, (a, b) in zip((theta, theta - 2.0 * math.pi / 3.0), _ROOT_BRACKETS):
        # one Newton step from the Viete value clamped into [a, b], kept if it stays there
        j = min(max(1.0 / (10.0 / 3.0 + 8.0 / 3.0 * math.cos(t)), a), b)
        n = 1.0 - 2.0 * j
        slope = k * n * (10.0 - 36.0 * j) - 6.0 * j * j
        step = j - _g_exact(kn, kd, j) / slope if slope != 0.0 else j
        roots.append(step if a <= step <= b else j)
    return [tuple(roots)]


def qubit_entropy(tr, r):
    """Entropy in bits of ((tr - r)/2, (tr + r)/2), summed ascending; an eigenvalue <= 0 adds 0."""
    h = 0.0
    for lam in ((tr - r) / 2.0, (tr + r) / 2.0):
        if lam > 0.0:
            h -= lam * math.log2(lam)
    return h
