"""The standard normal CDF, its inverse and its log, on floats and numpy arrays.

ndtr (with its erf and erfc) and ndtri are ports of Moshier's Cephes
library (Methods and Programs for Mathematical Functions, 1989), which is
the code scipy.special compiles. Each polynomial is evaluated by Horner's
rule in Cephes' order with no fused operations, and exp and log come from
math, the C library's, because numpy's vectorised exp and log differ from
it in the last bit on some inputs. Both functions match scipy.special
1.17.1 bit for bit; tests/test_normal.py checks them against it.

log_ndtr is not a Cephes function (scipy builds its own on the Faddeeva
package), and it takes its logs from numpy: it is log1p(-ndtr(-a)) for
a > 0, log(ndtr(a)) for -20 < a <= 0 and the asymptotic series of the
normal tail below -20, within 2e-15 relative error of scipy's on
[-1e4, 38].

Each function takes a float or an array of floats and returns a numpy
float64 of the same shape (a numpy scalar for a scalar), NaN for NaN.
ndtr runs on Python floats one element at a time: its callers pass
scalars and arrays of a few elements, where numpy's fixed cost per call
would outweigh the work.
"""
import math

import numpy as np

__all__ = ["ndtr", "ndtri", "log_ndtr"]

_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) from 8 up
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (  # leading coefficient 1
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (  # leading coefficient 1
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (  # leading coefficient 1
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# ndtri for 0.135 < y < 0.865, in (y - 0.5)^2
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (  # leading coefficient 1
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri's tails in 1/x, x = sqrt(-2 log y), for 2 <= x < 8
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (  # leading coefficient 1
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# and for 8 <= x <= 64
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (  # leading coefficient 1
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_LOG_NDTR_ASYMPTOTIC = -20.0  # log_ndtr's series takes over at and below this
_SERIES_TERMS = 12  # the series' terms are below 2**-53 of its sum from the 9th on at -20


def _polevl(x, coefficients):
    """Cephes polevl: the polynomial with these coefficients, highest degree first, at a float or an array."""
    result = coefficients[0] * x
    result += coefficients[1]
    for c in coefficients[2:]:
        result *= x  # in place on an array, a new float on a float
        result += c
    return result


def _p1evl(x, coefficients):
    """Cephes p1evl: as _polevl, with a leading coefficient of 1 left out of coefficients."""
    result = x + coefficients[0]
    for c in coefficients[1:]:
        result *= x
        result += c
    return result


def _erf_small(x):
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc_large(x, exp_minus_x2, p, q):
    """Cephes erfc for x >= 1 and x^2 <= MAXLOG: (P, Q) below 8, (R, S) from 8 up."""
    return exp_minus_x2 * _polevl(x, p) / _p1evl(x, q)


def _ndtri_central(y):
    """ndtri for exp(-2) < y < 1 - exp(-2)."""
    c = y - 0.5
    c2 = c * c
    return (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _p1evl(c2, _NDTRI_Q0))) * _S2PI


def _ndtri_tail(x, log_x, p, q):
    """-ndtri(y) for 0 < y <= exp(-2), from x = sqrt(-2 log y): (P1, Q1) below 8, (P2, Q2) from 8 up."""
    z = 1.0 / x
    return (x - log_x / x) - z * _polevl(z, p) / _p1evl(z, q)


def _log_ndtr_series(a):
    """log_ndtr(a) for a <= -20, by the asymptotic series of the normal tail.

    ndtr(a) = phi(a) / -a * sum_k (-1)^k (2k - 1)!! / a^(2k), with the sum
    taken by Horner's rule in 1 / a^2.
    """
    u = 1.0 / (a * a)
    series = 1.0
    for k in range(_SERIES_TERMS, 0, -1):
        series = 1.0 - (2 * k - 1) * u * series
    return -0.5 * a * a - np.log(-a) - _HALF_LOG_2PI + np.log(series)


def _each(function, x):
    """function on each element of the 1-d array x, as a float."""
    return np.fromiter(map(function, x.tolist()), float, len(x))


def _put(out, mask, function, x):
    """out[mask] = function(x[mask]), with no call when mask selects nothing."""
    if mask.any():
        out[mask] = function(x[mask])


def _ndtr_scalar(a):
    """ndtr on a float."""
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf_small(x)
    if z < 1.0:
        erfc = 1.0 - _erf_small(z)
    elif z * z > _MAXLOG:
        erfc = 0.0  # underflow
    else:
        p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        erfc = _erfc_large(z, math.exp(-z * z), p, q)
    y = 0.5 * erfc
    return 1.0 - y if x > 0 else y


def _ndtr(a):
    return _each(_ndtr_scalar, a)


def _minus_ndtri_tail(y):
    """-ndtri(y) for 0 < y <= exp(-2)."""
    x = np.sqrt(-2.0 * _each(math.log, y))
    out = np.empty_like(x)
    _put(out, x < 8.0, lambda x: _ndtri_tail(x, _each(math.log, x), _NDTRI_P1, _NDTRI_Q1), x)
    _put(out, x >= 8.0, lambda x: _ndtri_tail(x, _each(math.log, x), _NDTRI_P2, _NDTRI_Q2), x)
    return out


def _ndtri(y0):
    x = np.full_like(y0, np.nan)  # NaN and y0 outside [0, 1] stay NaN
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    tail = (y > 0.0) & ~central
    _put(x, central, _ndtri_central, y)
    _put(x, tail & upper, _minus_ndtri_tail, y)
    _put(x, tail & ~upper, lambda y: -_minus_ndtri_tail(y), y)
    return x


def _log_ndtr(a):
    out = np.full_like(a, np.nan)  # NaN stays NaN
    _put(out, a > 0.0, lambda a: np.log1p(-_ndtr(-a)), a)
    _put(out, (a > _LOG_NDTR_ASYMPTOTIC) & (a <= 0.0), lambda a: np.log(_ndtr(a)), a)
    _put(out, a <= _LOG_NDTR_ASYMPTOTIC, _log_ndtr_series, a)
    return out


def _apply(kernel, x):
    """kernel on x of any shape, as a float64 array of its shape; a numpy scalar for a 0-d x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x * x is inf for a huge x, as in C
        out = kernel(x.ravel())
    return out.reshape(x.shape)[()]


def ndtr(a):
    """The standard normal CDF: Phi(a) = (1 + erf(a / sqrt 2)) / 2."""
    return _apply(_ndtr, a)


def ndtri(y):
    """The inverse of ndtr on [0, 1]: -inf at 0, inf at 1 and NaN outside."""
    return _apply(_ndtri, y)


def log_ndtr(a):
    """log(ndtr(a)), accurate in both tails: about -a^2 / 2 as a goes to -inf, -ndtr(-a) as a goes to inf."""
    return _apply(_log_ndtr, a)
