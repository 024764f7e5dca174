"""Size caps for enumeration-heavy operations.

Three limits govern how large a group the library will handle:

* element cap: maximum group order for full element enumeration,
* lattice cap: maximum group order for subgroup lattice construction
  (and for the Cayley-table machinery behind it),
* construction cap: maximum order of a group built from an expression,
  the larger of ``DEFAULT_CONSTRUCT_CAP`` and the element cap.

Each limit is read here, where a size is refused, and never passed
down.  ``override`` (the CLI's ``--cap``) sets the element and lattice
caps at once and wins over the environment variable ``SYLOWLAB_CAP``,
which does the same; a value that is not a positive integer raises
``InvalidConfig``.  Every refusal of a known size goes through
``refuse_above``.
"""

import os

from .errors import CapExceeded, InvalidConfig

DEFAULT_ELEMENT_CAP = 10**6
DEFAULT_LATTICE_CAP = 2000
# orders are computed from a stabilizer chain, never by enumeration, so
# construction tolerates far larger groups than element-level operations
DEFAULT_CONSTRUCT_CAP = 10**9

_ENV_VAR = "SYLOWLAB_CAP"

# the cap of the command being run, set and restored by the CLI
override: int | None = None


def _cap(default: int) -> int:
    """``override``, else a set ``SYLOWLAB_CAP``, else ``default``."""
    if override is not None:
        return override
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise InvalidConfig(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def element_cap() -> int:
    return _cap(DEFAULT_ELEMENT_CAP)


def lattice_cap() -> int:
    return _cap(DEFAULT_LATTICE_CAP)


def construct_cap() -> int:
    return max(DEFAULT_CONSTRUCT_CAP, element_cap())


def refuse_above(what: str, n: int, limit: int) -> None:
    """Raise CapExceeded(what, n, limit) when the size n passes the limit."""
    if n > limit:
        raise CapExceeded(what, n, limit)
