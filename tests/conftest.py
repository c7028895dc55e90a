"""Test-suite hooks."""

import warnings

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
