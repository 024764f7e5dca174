"""Size caps for enumeration-heavy operations.

Two caps govern how large a group the library will enumerate:

* element cap: maximum group order for full element enumeration,
* lattice cap: maximum group order for subgroup lattice construction
  (and for the Cayley-table machinery behind it).

Every capped operation also accepts an explicit ``cap=`` argument which
wins over both the defaults and the environment.  The environment
variable ``SYLOWLAB_CAP`` overrides both defaults at once; a value that
is not a positive integer raises ``InvalidConfig``.  Every refusal of a
known size goes through ``refuse_above``.
"""

import os

from .errors import CapExceeded, InvalidConfig

DEFAULT_ELEMENT_CAP = 10**6
DEFAULT_LATTICE_CAP = 2000

_ENV_VAR = "SYLOWLAB_CAP"


def _env_override() -> int | None:
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise InvalidConfig(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def element_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = _env_override()
    return env if env is not None else DEFAULT_ELEMENT_CAP


def lattice_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = _env_override()
    return env if env is not None else DEFAULT_LATTICE_CAP


def refuse_above(what: str, n: int, limit: int) -> None:
    """Raise CapExceeded(what, n, limit) when the size n passes the limit."""
    if n > limit:
        raise CapExceeded(what, n, limit)
