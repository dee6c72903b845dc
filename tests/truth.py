"""The independent truths the tests check dynderiv against, each stated once.

Nothing here imports dynderiv: a truth built from the code it checks
cannot catch a fault in that code.  The sources are Theodorsen's flat
plate (NACA Report 496, 1935) and R. T. Jones's two-pole approximation of
the Wagner function (NACA Report 681, 1940); the exact lift-deficiency
function comes from mpmath's Hankel functions, and the exact phase of a
sampled cycle from mpmath's sine and cosine.
"""

import math

import mpmath
import numpy as np

# (A_j, b_j) of Jones's approximation phi(s) = 1 - sum A_j exp(-b_j s), s in semichords
JONES_POLES = ((0.165, 0.0455), (0.335, 0.3))


def wagner_step(s):
    """Jones's Wagner function: the lift build-up after a step of incidence, phi(0) = 1/2."""
    s = np.asarray(s, dtype=float)
    return 1.0 - sum(a_j * np.exp(-b_j * s) for a_j, b_j in JONES_POLES)


def jones_c(k):
    """C_J(k) = 1 - sum A_j ik / (ik + b_j): the transform of Jones's Wagner kernel."""
    ik = 1j * k
    return 1.0 - sum(a_j * ik / (ik + b_j) for a_j, b_j in JONES_POLES)


def theodorsen_c(k):
    """C(k) = H1(k) / (H1(k) + i H0(k)), Hankel functions of the second kind at 50 digits."""
    with mpmath.workdps(50):
        h0, h1 = mpmath.hankel2(0, k), mpmath.hankel2(1, k)
        return complex(h1 / (h1 + 1j * h0))


def phase_grid(n):
    """sin and cos of 2*pi*m/n for m = 0..n-1, each rounded once from 40 digits."""
    with mpmath.workdps(40):
        angles = [2 * mpmath.pi * m / n for m in range(n)]
        return (np.array([float(mpmath.sin(x)) for x in angles]),
                np.array([float(mpmath.cos(x)) for x in angles]))


def theodorsen_loads(a, s, c, w, hdd):
    """(CL, Cm) per radian of pitch e^(iwt) about the axis a semichords aft of midchord.

    Theodorsen's lift and moment, with s = ik the nondimensional pitch rate,
    c the lift-deficiency value, w = hdot/V and hdd = hddot*b/V^2 the plunge
    (positive down) per radian of pitch; 3/4-chord downwash w + 1 + (1/2 - a)s.
    Incidence mode pitches the plate alone (w = hdd = 0); flow-path mode adds
    the plunge that holds the incidence at its mean (w = -1, hdd = -s).
    """
    circulatory = c * (w + 1.0 + (0.5 - a) * s)
    cl = math.pi * (hdd + s - a * s * s) + 2.0 * math.pi * circulatory
    cm = (0.5 * math.pi * (a * hdd - (0.5 - a) * s - (0.125 + a * a) * s * s)
          + math.pi * (a + 0.5) * circulatory)
    return cl, cm
