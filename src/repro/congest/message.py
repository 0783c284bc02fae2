"""Messages exchanged in the CONGEST model.

The CONGEST model (paper, Section I-B) allows each node to send one message
of ``O(log n)`` bits along each incident edge per round.  We account for
message size in *words*, where one word is an ``O(log n)``-bit quantity
(a node identifier, an integer distance, a hop count, a flag, ...).  A
message of ``O(log n)`` bits is a message of ``O(1)`` words; the simulator
enforces a configurable per-message word budget so that an algorithm which
accidentally packs a super-constant amount of information into one message
is rejected rather than silently mis-measured.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Tuple


class MessageSizeError(ValueError):
    """Raised when a message exceeds the per-message word budget."""


class CongestionError(RuntimeError):
    """Raised when more than ``channel_capacity`` messages are placed on a
    single directed channel in a single round."""


#: Exact scalar types of one word each (``bool`` is listed because the
#: check below is on exact types, not ``isinstance``).
_SCALARS = frozenset((int, float, bool, str, type(None)))
_all_scalar_types = _SCALARS.issuperset


def payload_words(payload: Any) -> int:
    """Number of ``O(log n)``-bit words needed to encode *payload*.

    Scalars (ints, floats, bools, None, short strings) count as one word.
    Tuples/lists count as the sum of their fields.  This mirrors how one
    would serialize the message on a real link: each field is an identifier,
    a distance, or a flag, all of which fit in ``O(log n)`` bits for the
    weight ranges the paper considers (``B = O(log n)``-bit weights).
    """
    if type(payload) is tuple and _all_scalar_types(map(type, payload)):
        # Fast path: a flat tuple of plain scalars, which is every
        # Algorithm 1 message -- one word per field, no recursion.
        return len(payload)
    if payload is None or isinstance(payload, (bool, int, float)):
        return 1
    if isinstance(payload, str):
        # Treat a short tag (e.g. a phase name) as one word.
        return 1
    if isinstance(payload, (tuple, list)):
        return sum(payload_words(f) for f in payload)
    if isinstance(payload, dict):
        return sum(payload_words(k) + payload_words(v) for k, v in payload.items())
    raise TypeError(f"unsupported payload type for CONGEST message: {type(payload)!r}")


class Envelope(NamedTuple):
    """A message in flight: *payload* sent from *src* to *dst* in round *round*.

    ``words`` is cached at construction so congestion accounting does not
    re-walk the payload.  An immutable record (a ``NamedTuple``): fields
    read as attributes or unpack positionally, assignment raises
    ``AttributeError``, and an envelope compares equal to the plain tuple
    ``(src, dst, round, payload, words)``.
    """

    src: int
    dst: int
    round: int
    payload: Any
    words: int = 0

    @staticmethod
    def make(src: int, dst: int, round_: int, payload: Any) -> "Envelope":
        return _new(Envelope, (src, dst, round_, payload,
                               payload_words(payload)))


#: Positional construction without the generated ``__new__`` wrapper,
#: for the simulators' per-message hot paths: ``_new(Envelope, fields)``.
_new = tuple.__new__


Channel = Tuple[int, int]
"""A directed communication channel ``(src, dst)``."""
