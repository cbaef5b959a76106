"""One integer id per user name, shared by the whole process.

Cascades, the network, feature matrices and the dynamics table each turn
their names into ids once, so per-query code joins them with array takes
instead of hashing names. An id depends on the order in which names were
first seen in this process, so ids stay internal: names are what events,
files and error messages carry, and no output may depend on an id.

Ids only grow. A table indexed by id (``by_id``) is built for the ids that
existed when it was made, plus one last entry; reading it with
``table.take(ids, mode="clip")`` gives every later id, which no name in the
table can have, that last entry.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Iterable

import numpy as np

_IDS: dict[str, int] = {}
_NAMES: list[str] = []  # the name of each id: _IDS's keys, in insertion order
_LOCK = threading.Lock()  # a new name's id is len(_IDS) at the moment it is added


def intern(names: Iterable[str], count: int = -1) -> np.ndarray:
    """The id of each of ``names`` (int32), giving each new name the next id."""
    ids = _IDS
    add = ids.setdefault
    with _LOCK:
        out = np.fromiter((add(u, len(ids)) for u in names), dtype=np.int32, count=count)
        if len(ids) > len(_NAMES):  # the new names are the dict's last keys
            new = list(islice(reversed(ids), len(ids) - len(_NAMES)))
            _NAMES.extend(reversed(new))
        return out


def names_of(ids: np.ndarray) -> list[str]:
    """The name of each of ``ids``."""
    return [_NAMES[i] for i in ids.tolist()]


lookup = _IDS.get  # lookup(name): its id, or None if it was never interned


def by_id(ids: np.ndarray, values: np.ndarray, other) -> np.ndarray:
    """An array indexed by id: ``values[i]`` at ``ids[i]``, and ``other`` at
    every other id existing now and in the one last entry."""
    table = np.full(len(_IDS) + 1, other, dtype=values.dtype)
    table[ids] = values
    return table


def join(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The position in ``keys`` of each of ``ids``, -1 where it is absent."""
    return by_id(keys, np.arange(len(keys)), -1).take(ids, mode="clip")
