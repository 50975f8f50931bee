"""What both search cores and their callers share, in a module that
loads nothing, so a run on the compiled core never imports the pure one:
the status and heuristic codes of ``search``, the ``DEAD_END`` table
entry and the int bit-mask helpers."""

SOLVED, UNSOLVABLE, TIMEOUT, MEMOUT = 0, 1, 2, 3
H_BLIND, H_MAX = 0, 1

# Pattern table entry of an abstract state that cannot reach the target.
DEAD_END = 1 << 62


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
