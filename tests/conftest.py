import functools
import os

import pytest
from hypothesis import settings

from gaaquench import _blas
from gaaquench.observables import saturation_value

# the property tests draw new examples on every run: a failure prints the @reproduce_failure line that replays it
settings.register_profile("gaaquench", print_blob=True)
settings.load_profile("gaaquench")

# the per-process lookups that take their symbols from _blas._openblas
LOOKUPS = ("_blas_thread_control", "_kernel_routines")


class HidingLibrary:
    """numpy's OpenBLAS with the named symbols missing."""

    def __init__(self, library, hidden):
        self._library, self._hidden = library, frozenset(hidden)

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._library, name)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process unreaped: an `entropies` helper, a pool worker or any other."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)  # reaps one that has ended, so the next test starts clean
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid else "the test left a child process running")


@pytest.fixture
def hide_openblas(monkeypatch):
    """hide(symbols): from then on the package finds none of the named symbols of numpy's OpenBLAS;
    hide(None) hides the library itself. The lookups run again, past their per-process caches; pool
    workers forked during the test inherit what they find."""
    library, lookups = _blas._openblas(), {name: getattr(_blas, name).__wrapped__ for name in LOOKUPS}

    def hide(symbols):
        hiding = None if symbols is None or library is None else HidingLibrary(library, symbols)
        monkeypatch.setattr(_blas, "_openblas", lambda: hiding)
        for name, lookup in lookups.items():
            monkeypatch.setattr(_blas, name, functools.cache(lookup))

    return hide


@pytest.fixture
def blas_count():
    """set(threads): numpy's real OpenBLAS thread count, restored to its value before the test at teardown;
    the test is skipped where the thread-control symbols are missing."""
    get, set_ = _blas._blas_thread_control()
    before = get()
    if before is None:
        pytest.skip("numpy's OpenBLAS thread control is not available")
    yield set_
    set_(before)


class SaturationPoints:
    """saturation_value(setup, protocol) from a store shared by the whole session, so that a point that
    several acceptance criteria evaluate at the same protocol is computed once; `reused` lists the
    (L, a, lambda) of the points this criterion took from the store."""

    def __init__(self, store):
        self._store, self.reused = store, []

    def __call__(self, setup, protocol):
        key = (setup, protocol)
        if key in self._store:
            self.reused.append((setup.spec.L, setup.spec.a, setup.spec.lam))
        else:
            self._store[key] = saturation_value(setup, protocol)
        return self._store[key]

    def note(self) -> str:
        """The report's remark on the points taken from the store, which its elapsed time excludes."""
        if not self.reused:
            return "no point from the shared store"
        points = ", ".join(f"(L={L}, a={a}, lam={lam})" for L, a, lam in self.reused)
        return f"{len(self.reused)} point(s) from the shared store, not timed here: {points}"


@pytest.fixture(scope="session")
def saturation_store():
    return {}


@pytest.fixture
def saturation_points(saturation_store):
    return SaturationPoints(saturation_store)
