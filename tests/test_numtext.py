"""``numtext`` against Python's own ``'%.{P}g'``, byte for byte.

``rows`` and ``run_rows`` are checked for P = 12 (trace text) and P = 6 (SVG
coordinates) on hypothesis floats of every kind and on a fixed adversarial
set: decimal ties at P + 1 digits, exact in binary and as the nearest float
to a decimal literal, also scaled by 2**-20; every power of ten from 1e-300
to 1e300 and its two neighbouring floats; subnormals and values of order
1e-22; signed zeros, infinities and nan; and carries into a new digit such
as 9.9999999999995. A formatter without the tie guard, with a guard
narrower than the scaling error, or without the exponent correction of a
carry fails here.

The numpy path must also stay the path real traces take: values of order
1e-22, which real k=2 traces hold, are rounded in numpy, not sent to
Python one by one. Every numpy cast and log runs under ``errstate``, which
the suite checks by turning warnings into errors.
"""

import random
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpsearch import numtext

PRECISIONS = (6, 12)


def _per_value(values, precision):
    return "".join("%.*g\n" % (precision, v) for v in np.asarray(values, float).tolist())


def _both(values, precision):
    """The texts of ``rows`` and ``run_rows``, one value per line."""
    return [numtext.text(build(values, precision, b"\n"))
            for build in (numtext.rows, numtext.run_rows)]


def _ties(precision, rng):
    """Floats at, or nearest to, a P + 1-digit decimal ending in 5."""
    exact = []
    for k in range(0, 40):  # t / 2**k == t * 5**k / 10**k: exact in binary
        for _ in range(3):
            t = rng.randrange(1, 10 ** (precision + 1)) | 1
            while len(str(t * 5**k)) > precision + 1:
                t //= 10
            t |= 1
            if len(str(t * 5**k)) == precision + 1 and (k or t % 10 == 5):
                exact.append(t / 2**k)
    for x in exact:
        digits = Decimal(x).normalize().as_tuple().digits
        assert len(digits) == precision + 1 and digits[-1] == 5, x  # a real tie
    literal = [float(f"{rng.randrange(10**precision, 10 ** (precision + 1)) // 10}5e{e}")
               for e in range(-45, 56) for _ in range(20)]
    # near ties a guard below ~2 ulps of the scaled value gets wrong (3**-10 at P = 12)
    literal += [2.558166890605e40, 9.508788556805e-32, 4.103880690845e51]
    ties = exact + literal
    return ties + [x * 2.0**-20 for x in ties]


def _adversarial(precision):
    rng = random.Random(precision)
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    nines = "9" * (precision - 1)
    carries = [float(f"{m}{nines}{d}e{e}") for m in ("9.", "0.9", "99.")
               for d in (5, 6) for e in range(-30, 31)]
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-320,
                2.2250738585072014e-308, 2.225073858507201e-308, 1e-22, -3.7e-22,
                9.99999999999e-23, 1.7976931348623157e308]
    return np.concatenate([
        _ties(precision, rng), powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf), carries, specials,
        np.linspace(-1e-21, 1e-21, 201),
    ])


def test_adversarial_values():
    for precision in PRECISIONS:
        values = _adversarial(precision)
        expected = _per_value(values, precision)
        assert _both(values, precision) == [expected, expected]
        # every order, so each special value meets every neighbour in run_rows
        shuffled = np.random.default_rng(precision).permutation(values)
        assert _both(shuffled, precision) == [_per_value(shuffled, precision)] * 2


_any = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)
_runs = st.lists(st.tuples(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-22, 84.0,
                                            83.99999, 84.000004]),
                           st.integers(1, 4)), max_size=12)


@settings(max_examples=60, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 40), elements=_any),
       precision=st.sampled_from((*PRECISIONS, 9)))  # 9: digit groups not all full
def test_random_floats(values, precision):
    assert _both(values, precision) == [_per_value(values, precision)] * 2


@settings(max_examples=60, deadline=None)
@given(runs=_runs, precision=st.sampled_from(PRECISIONS))
def test_runs_of_zeros_and_non_finite_values_keep_their_own_text(runs, precision):
    # inf and nan must never share a zero's run, nor -0.0 a +0.0's
    values = [v for v, n in runs for _ in range(n)]
    assert _both(values, precision) == [_per_value(values, precision)] * 2


def test_values_of_order_1e_minus_22_take_the_numpy_path():
    values = np.linspace(1e-23, 1e-21, 3001)
    exact = numtext.decompose(values, 12)[3]
    assert exact.sum() >= 2990  # all but the few within the guard band of a tie


def test_squeeze_keeps_the_text():
    values = _adversarial(12)[::7]
    block = numtext.rows(values, 12, b" ")
    squeezed = numtext.squeeze(block)
    assert numtext.text(squeezed) == numtext.text(block)
    assert squeezed.shape[1] == max(len("%.12g " % v) for v in values.tolist())
