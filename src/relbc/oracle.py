"""Independent brute-force cross-checks.

Everything here recomputes detection probabilities and POVM properties by
routes that never touch the bilinear-form code in ``window`` or
``measurement``: closed forms via a local sine integral, direct time-domain
quadrature, full eigendecompositions, and exhaustive parity enumeration.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .spectra import SpectralAmplitude

# Power-series / continued-fraction split for the sine integral.  Below the
# split the alternating series has no damaging cancellation; above it the
# Lentz continued fraction for E1(ix) converges to machine precision.
_SI_SPLIT = 8.0

# Largest max|M - M^H| a POVM element may have.  eigvalsh reads one
# triangle only, so an element that is not Hermitian must fail here; honest
# elements measure at most 2e-18 (exactly 0 when they are real).
_HERMITIAN_TOL = 1e-12

# The time-domain quadrature evaluates at most this many refinements, and
# doubles its k-nodes up to _MAX_NK (or keeps a larger starting count).
_REFINEMENTS = 8
_MAX_NK = 6000


def sine_integral(x: float) -> float:
    """Si(x) = int_0^x sin(t)/t dt, accurate to ~1e-14 absolute."""
    if x < 0:
        return -sine_integral(-x)
    if x == 0.0:
        return 0.0
    if x < _SI_SPLIT:
        total = 0.0
        term = x  # x^m / m!
        m = 1
        while True:
            contrib = term / m
            total += contrib
            if m > x and abs(contrib) < 1e-18 * max(1.0, abs(total)):
                return total
            term *= -x * x / ((m + 1) * (m + 2))
            m += 2
    # E1(ix) = -Ci(x) + i(Si(x) - pi/2); evaluate E1 by the modified Lentz
    # continued fraction  E1(z) = e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...)))
    z = complex(0.0, x)
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    e1 = h * complex(math.cos(x), -math.sin(x))  # e^{-ix}
    return math.pi / 2 + e1.imag


def detect_prob_flat_closed_form(delta: float, T: float) -> float:
    """Detection probability of a flat spectrum: (2/pi)(Si(x) - 2 sin^2(x/2)/x).

    x = delta * T.  Limits: x -> 0 gives 0 (linearly, x/pi); x -> inf gives 1
    with a cos(x)/x tail.
    """
    if delta < 0 or T < 0:
        raise ValueError("delta and T must be non-negative")
    x = delta * T
    if x == 0.0:
        return 0.0
    return (2 / math.pi) * (sine_integral(x) - 2 * math.sin(x / 2) ** 2 / x)


@lru_cache(maxsize=16)
def _gl(n: int):
    return np.polynomial.legendre.leggauss(n)


def _profile_sq(amplitude: SpectralAmplitude, taus: np.ndarray, nk: int) -> np.ndarray:
    """|psi(tau)|^2 by direct Fourier quadrature of the amplitude."""
    lo, hi = amplitude.support
    x, w = _gl(nk)
    k = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
    wk = 0.5 * (hi - lo) * w
    vals = amplitude(k)
    vals = vals / math.sqrt(float(wk @ np.abs(vals) ** 2))
    # exp(-i k tau) as the cos and sin of the real phase -k tau
    arg = np.outer(-taus, k)
    phases = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phases.real)
    np.sin(arg, out=phases.imag)
    psi = phases @ (wk * vals) / math.sqrt(2 * math.pi)
    return np.abs(psi) ** 2


class TimeDomainConvergenceError(ValueError):
    """The time-domain quadrature did not converge within its refinements."""

    def __init__(self, amplitude: SpectralAmplitude, T: float, center: float,
                 tol: float, last: tuple[float, float]):
        self.shape, self.delta, self.tau0 = amplitude.shape, amplitude.delta, amplitude.tau0
        self.T, self.center, self.tol, self.last = T, center, tol, last
        super().__init__(
            f"time-domain quadrature of a {self.shape} packet (delta={self.delta!r}, "
            f"tau0={self.tau0!r}) over T={T!r} about {center!r} did not reach "
            f"tol={tol!r} in {_REFINEMENTS} refinements: last two values {last[0]!r}, "
            f"{last[1]!r}"
        )


def detect_prob_time_domain(
    amplitude: SpectralAmplitude, T: float, tol: float = 1e-8, center: float = 0.0
) -> float:
    """Direct tau-quadrature of |psi(tau)|^2 over (center - T, center + T).

    Panels are refined (doubled) until two successive evaluations agree to
    ``tol`` absolute, and the k-nodes of the Fourier quadrature double with
    them up to ``_MAX_NK`` (never below their starting count).  Raises
    TimeDomainConvergenceError after ``_REFINEMENTS`` evaluations without
    agreement.  Never builds the window kernel.
    """
    if T < 0:
        raise ValueError("window half-width must be non-negative")
    if T == 0.0:
        return 0.0
    delta = amplitude.delta
    # |psi(tau)|^2 varies on the scale 1/delta; start below that
    n_panels = max(8, int(math.ceil(2 * T * delta / math.pi)))
    reach = T + abs(amplitude.tau0 - center) + abs(center)
    nk = max(128, int(math.ceil(delta * reach / 2)) + 80)
    prev = None
    for _ in range(_REFINEMENTS):
        edges = np.linspace(center - T, center + T, n_panels + 1)
        x, w = _gl(16)
        half = 0.5 * (edges[1] - edges[0])
        taus = (half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
        wt = np.tile(half * w, n_panels)
        val = float(wt @ _profile_sq(amplitude, taus, nk))
        if prev is not None and abs(val - prev) < tol:
            return val
        last = (prev, val)
        prev = val
        n_panels *= 2
        nk = max(nk, min(2 * nk, _MAX_NK))
    raise TimeDomainConvergenceError(amplitude, T, center, tol, last)


def _hermitian_residual(m: np.ndarray) -> float:
    """max|M - M^H| over the 128 x 128 tiles on and below the diagonal.

    Each tile is compared with the conjugate transpose of its mirror tile,
    so a pass allocates a few 128 x 128 arrays whatever n is.
    """
    n = m.shape[0]
    return max(
        float(np.max(np.abs(m[i:i + 128, j:j + 128] - m[j:j + 128, i:i + 128].conj().T)))
        for i in range(0, n, 128) for j in range(0, i + 1, 128)
    )


def povm_validity_bruteforce(povm, elements=None) -> dict:
    """Eigendecompose every element and the sum; report positivity/completeness.

    ``elements`` is an iterable of the dense M_1, M_2 and M_perp to check,
    all of one dtype; ``povm.iter_elements()`` by default.  Each element is
    checked as it arrives: eigvalsh and its max|M - M^H|, which must stay
    within ``_HERMITIAN_TOL`` (eigvalsh reads only the lower triangle, so
    its eigenvalues say nothing about an element that is not Hermitian).
    Real elements take eigvalsh's real symmetric solver.  The element is
    then folded into the first one's array, which is overwritten with
    (M_1 + M_2) + M_perp, from which the identity is subtracted and whose
    modulus is taken in place.  So the check holds the sum, one element and
    eigvalsh's copy of it: with a generator that keeps no reference to what
    it has yielded, three n x n arrays at most.  The elements are taken
    with ``next()``, not ``zip``, which would keep the previous one alive.
    """
    elements = iter(povm.iter_elements() if elements is None else elements)
    report = {"family": povm.family, "T": povm.T, "elements": {}}
    min_eig = math.inf
    hermitian = 0.0
    total = None
    for name in ("m1", "m2", "m_perp"):
        m = next(elements)
        vals = np.linalg.eigvalsh(m)
        asym = _hermitian_residual(m)
        report["elements"][name] = {
            "min_eig": float(vals[0]),
            "max_eig": float(vals[-1]),
            "hermitian_residual": asym,
        }
        min_eig = min(min_eig, float(vals[0]))
        hermitian = max(hermitian, asym)
        if total is None:
            total = m
        else:
            total += m
        del m  # before the next element is built
    total[np.diag_indices_from(total)] -= 1.0
    residual = float(np.max(np.abs(total, out=total).real))
    report["min_eigenvalue"] = min_eig
    report["completeness_residual"] = residual
    report["hermitian_residual"] = hermitian
    report["passed"] = (
        min_eig >= -1e-9 and residual <= 1e-8 and hermitian <= _HERMITIAN_TOL
    )
    return report


def parity_exhaustive(n_channels: int, p: float) -> dict:
    """Exact enumeration over {detected, undetected}^N for small N.

    Returns the probability that all channels give a definite (correct)
    outcome and the guess-augmented parity-identification probability
    (fair coin whenever at least one channel stayed silent).
    """
    if n_channels > 4:
        raise ValueError("exhaustive oracle is meant for N <= 4")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    all_detected = 0.0
    guess_success = 0.0
    for pattern in itertools.product((True, False), repeat=n_channels):
        prob = math.prod(p if d else 1.0 - p for d in pattern)
        if all(pattern):
            all_detected += prob
            guess_success += prob
        else:
            guess_success += 0.5 * prob
    return {"all_detected": all_detected, "guess_success": guess_success}
