"""The dense audit path: its footprint and the bits of its matrices.

``relbc validate`` eigendecomposes every dense POVM element.  It streams
the elements of one POVM into the check, so it may hold their running sum,
one element and eigvalsh's copy of it, and the dense builders must give the
same values as the direct formulas below (the window's kernel built in
full-size temporaries, and M_perp = (I - M_1) - M_2).
"""

import io
import math
import tracemalloc
import weakref
from contextlib import redirect_stdout

import numpy as np
import pytest

from relbc.cli import EXIT_OK, main
from relbc.measurement import state_povm, support_povm
from relbc.oracle import povm_elements, povm_validity_bruteforce, window_matrix
from relbc.protocol import CommitConfig, ProtocolContext
from relbc.spectra import disjoint_pair, grid_for_amplitudes, make_amplitude, sample
from relbc.window import build_window


def _direct_matrix(w):
    """The window kernel with a full n x n array for every intermediate."""
    k = w.grid.nodes
    dk = np.subtract.outer(k, k)
    kern = dk * w.T
    np.sin(kern, out=kern)
    with np.errstate(divide="ignore", invalid="ignore"):
        kern /= math.pi * dk
    kern[dk == 0] = w.T / math.pi
    sw = np.sqrt(w.grid.weights)
    kern *= np.outer(sw, sw)
    return kern


def _direct_elements(povm):
    """(M_1, M_2, M_perp) from the direct window, outer products and I - M_1 - M_2."""
    w = _direct_matrix(povm.window)
    refs = povm.refs
    if not any(np.any(np.imag(r)) for r in refs):
        refs = tuple(np.real(r) for r in refs)
    if povm.family == "support":
        m1, m2 = (w * np.outer(ind, ind) for ind in refs)
    else:
        m1, m2 = (np.outer(b, np.conj(b)) for b in (w @ ref for ref in refs))
    return m1, m2, np.eye(povm.grid.size) - m1 - m2


@pytest.fixture(scope="module")
def pair():
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([a1, a2], T=10.0)
    return a1, a2, grid


@pytest.mark.parametrize("T", [0.0, 0.3, 10.0])
def test_window_matrix_matches_direct_kernel_bitwise(pair, T):
    w = build_window(pair[2], T)
    got, want = window_matrix(w), _direct_matrix(w)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    # a diagonal block has the bits of the same entries of the matrix
    for sl in (slice(256, 512), slice(700, None), slice(0, 0)):
        block = window_matrix(w, sl)
        assert block.dtype == got.dtype and block.tobytes() == got[sl, sl].tobytes()


def _povms(a1, a2, grid, T, delay):
    s1, s2 = (sample(a.delayed(delay) if delay else a, grid) for a in (a1, a2))
    return [support_povm(grid, a1.support, a2.support, T), state_povm(s1, s2, T)]


@pytest.mark.parametrize("T", [0.1, 10.0])
@pytest.mark.parametrize("delay", [0.0, 3.0])
def test_elements_match_direct_formulas_bitwise(pair, T, delay):
    for povm in _povms(*pair, T, delay):
        # a delay reaches the state family's references only
        real = povm.family == "support" or delay == 0.0
        want = _direct_elements(povm)
        # array_equal compares values, so +0.0 and -0.0 count as equal
        for got in (tuple(povm_elements(povm)), povm_elements(povm)):
            for name, m, ref in zip(("m1", "m2", "m_perp"), got, want):
                assert m.shape == (povm.grid.size,) * 2
                assert m.dtype == (np.float64 if real else np.complex128), (povm.family, name)
                assert np.array_equal(m, ref), (povm.family, name)


@pytest.mark.parametrize("delay", [0.0, 3.0])
def test_check_of_the_stream_matches_check_of_a_tuple(pair, delay):
    for povm in _povms(*pair, 1.0, delay):
        streamed = povm_validity_bruteforce(povm, povm_elements(povm))
        assert streamed == povm_validity_bruteforce(povm)
        assert streamed == povm_validity_bruteforce(povm, tuple(povm_elements(povm)))
        assert streamed["passed"], povm.family


def test_stream_keeps_no_reference_to_what_it_has_yielded(pair):
    for povm in _povms(*pair, 1.0, 3.0):
        elements = povm_elements(povm)
        for _ in range(3):
            m = next(elements)
            gone = weakref.ref(m)
            del m
            assert gone() is None, povm.family
        with pytest.raises(StopIteration):
            next(elements)


def test_validate_op_holds_the_sum_one_element_and_eigvalshs_copy():
    cfg = CommitConfig(n_channels=1, amp1=make_amplitude("rectangular", 12.0, 1.0),
                       amp2=make_amplitude("rectangular", 10.0, 1.0), t_open=10.0)
    n = ProtocolContext(cfg).grid.size
    assert n == 768
    with redirect_stdout(io.StringIO()):
        assert main(["validate"]) == EXIT_OK  # fills the process's caches
        tracemalloc.start()
        try:
            assert main(["validate"]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the validate POVMs are real: three float64 n x n arrays plus slack
    assert peak <= 3.5 * n * n * 8, peak
