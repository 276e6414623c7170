"""Independent brute-force cross-checks and the dense references.

Everything here recomputes detection probabilities and POVM properties by
routes that never touch the bilinear-form code in ``window`` or
``measurement``: closed forms via a local sine integral, direct time-domain
quadrature, full eigendecompositions, and exhaustive parity enumeration.

The dense references the forms are tested against are built here from the
direct sin((k - k')T) / (pi (k - k')) kernel (``window_matrix``,
``povm_elements``, ``window_spectrum``), reading windows and POVMs as
attributes, and are refused past ``DENSE_MAX_N`` nodes before allocating.
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

# Largest grid whose dense n x n matrices may be materialised: one complex
# matrix at this size takes 256 MiB.
DENSE_MAX_N = 4096

# How far a window eigenvalue may stray outside [0, 1].
_EIG_SLACK = 1e-9

# Rows of b2 b2^H the state family's M_perp subtracts at a time.
_PERP_ROWS = 128


class DenseBudgetError(ValueError):
    """A dense n x n matrix was asked for on a grid past ``DENSE_MAX_N``."""

    def __init__(self, what: str, n: int):
        self.n = n
        self.bytes_needed = n * n * 16
        super().__init__(
            f"{what}: a dense complex {n} x {n} matrix needs {self.bytes_needed} bytes; "
            f"dense matrices are limited to n <= {DENSE_MAX_N}"
        )


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


def window_matrix(window, sl: slice = slice(None)) -> np.ndarray:
    """The dense window's diagonal block on the nodes ``sl`` (all n by default).

    Each entry takes only its own two nodes, so a block has the bits of the
    same entries of the full matrix.  Real for a centred window, complex
    (the phase exp(i (k - k') center)) otherwise; T = inf is the identity.
    Built in two m x m arrays (k - k' and the kernel) and a boolean mask:
    k - k' is reused for pi (k - k') and then for sqrt(w) sqrt(w)^T, after
    an off-centre window has taken its phase from it.  Raises
    DenseBudgetError before allocating past DENSE_MAX_N nodes.
    """
    k = window.grid.nodes[sl]
    n = k.size
    if n > DENSE_MAX_N:
        raise DenseBudgetError("window matrix", n)
    if math.isinf(window.T):
        return np.eye(n)
    dk = np.subtract.outer(k, k)
    same = dk == 0
    kern = dk * window.T
    np.sin(kern, out=kern)
    if window.center != 0.0:
        # exp(i (k - k') center) as the cos and sin of its real phase
        phase = np.empty(dk.shape, dtype=complex)
        np.multiply(dk, window.center, out=phase.imag)
        np.cos(phase.imag, out=phase.real)
        np.sin(phase.imag, out=phase.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        kern /= np.multiply(math.pi, dk, out=dk)
    # removable singularity where a row meets its own column
    kern[same] = window.T / math.pi
    sw = window.grid.sqrt_weights[sl]
    kern *= np.multiply.outer(sw, sw, out=dk)
    if window.center == 0.0:
        return kern
    phase *= kern
    return phase


def window_spectrum(window) -> np.ndarray:
    """Eigenvalues of W_T, descending; concentration eigenvalues in [0, 1].

    Needs the dense matrix, so it is refused past DENSE_MAX_N nodes.
    """
    vals = np.linalg.eigvalsh(window_matrix(window))[::-1]
    if vals.size and (vals[-1] < -_EIG_SLACK or vals[0] > 1.0 + _EIG_SLACK):
        raise ValueError(f"window spectrum escapes [0, 1]: [{vals[-1]}, {vals[0]}]")
    return vals


def povm_elements(povm):
    """Yield a POVM's dense M_1, M_2 and M_perp one at a time (small grids only).

    Each element is built in a call, so no reference to it is kept once it
    is yielded.  All three share one dtype: float64 for a real POVM (a
    centred window and real references, as for undelayed carriers),
    complex otherwise.  Raises DenseBudgetError past DENSE_MAX_N nodes,
    before allocating.  Support family: M_i is W's block on its indicator's
    node range, scaled by the indicator on its rows and then its columns,
    and zero elsewhere; M_perp is I less each block; no full W is built.
    State family: b_i = W psi_i, with W cast to complex once for complex
    references and dropped before the outer products; M_perp is -M_1 + I
    less M_2 in row blocks.  Either way M_perp has the values of
    (I - M_1) - M_2.
    """
    n = povm.grid.size
    if n > DENSE_MAX_N:
        raise DenseBudgetError("POVM elements", n)
    refs = povm.refs
    if povm.family == "support":
        for ind in refs:
            yield _support_element(povm.window, (ind,), perp=False)
        yield _support_element(povm.window, refs, perp=True)
        return
    w = window_matrix(povm.window)
    if np.isrealobj(w) and not any(np.any(np.imag(r)) for r in refs):
        refs = tuple(np.real(r) for r in refs)
    elif np.isrealobj(w) and np.iscomplexobj(refs[0]):
        w = w.astype(complex)  # once, not once per reference
    b1, b2 = (w @ ref for ref in refs)
    del w
    yield np.outer(b1, np.conj(b1))
    yield np.outer(b2, np.conj(b2))
    yield _state_perp(b1, b2)


def _support_element(window, inds, perp: bool) -> np.ndarray:
    """W's block on the node range where each indicator is nonzero, scaled
    by it on its rows and then on its columns, set into 0 (M_i, one
    indicator) or subtracted from I (M_perp, both)."""
    m = None
    for ind in inds:
        nz = np.flatnonzero(ind)
        sl = slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)
        blk = window_matrix(window, sl)
        blk *= ind[sl, None]
        blk *= ind[sl]
        if m is None:
            n = window.grid.size
            m = np.eye(n, dtype=blk.dtype) if perp else np.zeros((n, n), dtype=blk.dtype)
        if perp:
            m[sl, sl] -= blk
        else:
            m[sl, sl] = blk
    return m


def _state_perp(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """(-b1 b1^H + I) - b2 b2^H, with b2 b2^H taken ``_PERP_ROWS`` rows at a time."""
    m = np.outer(b1, np.conj(b1))
    np.negative(m, out=m)
    m[np.diag_indices_from(m)] += 1.0
    c2 = np.conj(b2)
    for i in range(0, b2.size, _PERP_ROWS):
        m[i:i + _PERP_ROWS] -= np.outer(b2[i:i + _PERP_ROWS], c2)
    return m


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
    all of one dtype; ``povm_elements(povm)`` by default.  Each element is
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
    elements = iter(povm_elements(povm) if elements is None else elements)
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
