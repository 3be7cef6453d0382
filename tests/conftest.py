import functools

import pytest

from gaaquench import gaussian

# the per-process lookups that take their symbols from gaussian._openblas
LOOKUPS = ("_blas_thread_control", "_kernel_routines")


class HidingLibrary:
    """numpy's OpenBLAS with the named symbols missing."""

    def __init__(self, library, hidden):
        self._library, self._hidden = library, frozenset(hidden)

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._library, name)


@pytest.fixture
def hide_openblas(monkeypatch):
    """hide(symbols): from then on the package finds none of the named symbols of numpy's OpenBLAS;
    hide(None) hides the library itself. The lookups run again, past their per-process caches; pool
    workers forked during the test inherit what they find."""
    library, lookups = gaussian._openblas(), {name: getattr(gaussian, name).__wrapped__ for name in LOOKUPS}

    def hide(symbols):
        hiding = None if symbols is None or library is None else HidingLibrary(library, symbols)
        monkeypatch.setattr(gaussian, "_openblas", lambda: hiding)
        for name, lookup in lookups.items():
            monkeypatch.setattr(gaussian, name, functools.cache(lookup))

    return hide
