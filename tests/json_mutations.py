"""Mutations of JSON objects for the fuzz tests: every key path of an object,
the slot that holds one, and JSON values to put there."""

from hypothesis import strategies as st


def key_paths(obj, prefix=()):
    """Every dict key and list index in ``obj``, down to four levels."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        if len(prefix) < 3:
            yield from key_paths(value, prefix + (key,))


def parent(obj, key_path):
    """The dict or list in ``obj`` that holds the last key of ``key_path``."""
    for key in key_path[:-1]:
        obj = obj[key]
    return obj


JSON = (
    st.none() | st.booleans() | st.integers(-1, 2**70) | st.floats() | st.text(max_size=4)
    | st.lists(st.text(max_size=3), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2)
)
