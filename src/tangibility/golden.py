"""Loader for the bundled reference corpus.

The corpus ships as an annotation-format asset inside the package: 33
applications, 145 entity records, every application carrying genre,
subgenre, year and citation keys.  It is the shared fixture for analytics
and for the acceptance checks.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .dsl import _read, _uncollected
from .model import Corpus

__all__ = ["load_golden", "GOLDEN_RESOURCE"]

GOLDEN_RESOURCE = "data/golden.corpus"


@lru_cache(maxsize=1)
@_uncollected
def load_golden() -> Corpus:
    """Parse and return the bundled corpus, read like any other input.

    The asset must load without a single diagnostic; anything else means a
    corrupted installation and raises RuntimeError.  The result is cached
    and immutable.  Like a CLI command, it reads with the cyclic collector
    paused, and leaves the collector as it found it.
    """
    data = resources.files(__package__).joinpath(GOLDEN_RESOURCE).read_bytes()
    corpus, diagnostics = _read(data)
    if diagnostics:
        first = diagnostics[0]
        raise RuntimeError(f"bundled corpus asset is corrupted: {first.message}")
    if not corpus.applications:
        raise RuntimeError("bundled corpus asset is empty")
    return corpus
