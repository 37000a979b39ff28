"""The tests' reference RK4: the classical step out of place, written as a
textbook writes it and sharing no code with `qbmlab`.  The library's one
in-place `dynamics.rk4_step` is held to it byte for byte.
"""


def rk4(f, y, h):
    """One RK4 step of y' = f(s, y), f evaluated at stage s = 0, 1, 2 (the
    step's start, middle and end)."""
    k1 = f(0, y)
    k2 = f(1, y + 0.5 * h * k1)
    k3 = f(1, y + 0.5 * h * k2)
    k4 = f(2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
