"""Test-suite hooks, the hand-composed OFDM chain fixture and the
call counters of the cost gates."""

import gc
import sys
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import is_hypothesis_test


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import hypothesis' patch module before a failing report needs it.

    When a ``@given`` test fails, hypothesis' pytest plugin imports
    ``hypothesis.extra._patching`` while it builds the teardown report.
    That import pulls in ``libcst``, which trips a third-party
    ``DeprecationWarning`` (``mypy_extensions.TypedDict``); under
    ``-W error`` the report then ends in an INTERNALERROR instead of the
    test's assertion and falsifying example.  Importing the module here
    first, with that warning ignored for this one import, leaves it
    cached for the plugin.  Passing tests never pay for the import.
    """
    if call.excinfo is None or not is_hypothesis_test(
            getattr(item, "obj", None)):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # libcst is an optional extra
            pass


def _hand_chain(n_points, symbols, *, backend="compiled", scheme="qpsk",
                channel=None, snr_db=None, seed=0, code=None,
                code_rate="1/2", interleaver=None):
    """The OFDM chain composed by hand from its primitives, in chain order.

    Bits, (encode, interleave,) map, transmitter IFFT on the compiled
    engine, channel, AWGN, receiver FFT on ``backend``, equalise, then
    the hard demap or (soft demap, deinterleave, decode): the datapath
    and rng draw order a pipeline run must reproduce bit for bit.
    """
    # Imported here: tests/test_suite_hooks.py runs this file where
    # repro is not importable.
    import repro
    from repro.coding import get_demapper, resolve_code, resolve_interleaver
    from repro.ofdm import CONSTELLATIONS, awgn

    rng = np.random.default_rng(seed)
    constellation = CONSTELLATIONS[scheme]
    capacity = n_points * constellation.bits_per_symbol
    out = SimpleNamespace()
    if code is None:
        air = out.tx_bits = rng.integers(0, 2, size=(symbols, capacity))
    else:
        codec = resolve_code(code, code_rate)
        geometry = codec.block_geometry(capacity)
        permute = resolve_interleaver(interleaver or "block", capacity)
        out.tx_info = rng.integers(0, 2, size=(symbols, geometry.info_bits))
        out.coded = codec.encode(out.tx_info, capacity=capacity)
        air = permute.interleave(out.coded)
    with repro.engine(n_points) as tx, \
            repro.engine(n_points, backend=backend) as rx:
        signal = tx.inverse_many(constellation.map_bits(air)).spectrum
        signal = signal * n_points
        if channel is not None:
            signal = channel.apply(signal)
        if snr_db is not None:
            signal = awgn(signal, snr_db, rng=rng)
        received = rx.transform_many(signal)
    out.cycles = received.cycles
    out.equalised = received.spectrum / n_points
    if channel is not None:
        out.equalised = out.equalised / channel.frequency_response(n_points)
    if code is None:
        out.rx_bits = constellation.unmap_symbols(out.equalised)
        out.bit_errors = int(np.sum(out.rx_bits != out.tx_bits))
        return out
    out.llrs = permute.deinterleave(get_demapper(scheme).llrs(out.equalised))
    out.rx_info = codec.decode(out.llrs[..., :geometry.coded_bits])
    wrong = out.rx_info != out.tx_info
    out.coded_ber = int(np.sum(wrong)) / wrong.size
    out.fer = int(np.sum(np.any(wrong, axis=-1))) / symbols
    raw = int(np.sum((out.llrs < 0) != out.coded))
    out.uncoded_ber = raw / out.coded.size
    return out


@pytest.fixture
def hand_chain():
    """:func:`_hand_chain`, the reference for pipeline parity tests."""
    return _hand_chain


class _CountingNumpy:
    """``numpy`` as a module global, with calls to ``names`` counted."""

    def __init__(self, names, counts):
        for name in names:
            setattr(self, name, self._counted(getattr(np, name), name,
                                              counts))

    @staticmethod
    def _counted(fn, name, counts):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def viterbi_calls(monkeypatch):
    """A ``Counter`` of the ``np.add``/``maximum``/``greater``/``copyto``
    calls :mod:`repro.coding.viterbi` makes while the test runs
    (``sys.setprofile`` sees no ufunc call)."""
    from repro.coding import viterbi

    counts = Counter()
    monkeypatch.setattr(viterbi, "np", _CountingNumpy(
        ("add", "maximum", "greater", "copyto"), counts))
    return counts


def _python_calls(fn) -> int:
    """Python and builtin calls ``fn()`` makes (``sys.setprofile`` sees
    no ufunc call, so this counts the Python glue around the kernels).

    The cyclic collector is off while ``fn`` runs: a collection there
    runs the finalizers of garbage other tests left behind (a pooled
    engine's ``__del__``, an executor's weakref callback), whose calls
    the profile would count as ``fn``'s.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


@pytest.fixture
def python_calls():
    """:func:`_python_calls`, the counter of the host-independent cost
    gates."""
    return _python_calls
