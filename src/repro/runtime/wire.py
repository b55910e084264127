"""Tagged JSON wire codec + length-prefixed framing.

The simulator passes protocol payloads between nodes as live Python
objects; the runtime has to put the *same* payloads on a socket.  This
module maps every value the protocols exchange — gossip SYN/ACK/DELTA
and rumor tuples, sync pulls, update records, run-sets — onto JSON and
back, such that ``decode(encode(x)) == x`` (object equality, not
just shape: :func:`repro.shard.history.extract_execution` re-derives
updates and compares them with ``==``, so a lossy codec would fail the
condition-(3) check, not just look ugly).

Encoding is by type tag: each non-scalar value becomes a single-key
object ``{"%tag": ...}``.  Transactions and updates serialize as
``(family name, params)`` and are rebuilt through a registry keyed by
the family ``name`` — the same identifier the trace schema already
uses.  That registry is derived at import from
:mod:`repro.apps.registry` (every entry's ``transactions`` and
``updates``), so any registered application's records decode; two
classes claiming one family name fail the import.

**Sets.**  A set of ints (a record's seen-set: a
:class:`~repro.replica.log.RunSet`, or any ``frozenset``) goes on the
wire as its maximal runs of consecutive ints, one flat sorted list
``{"%rs": [lo1, hi1, lo2, hi2, ...]}`` with inclusive bounds, and
decodes to the :class:`~repro.replica.log.RunSet` of those bounds,
which equals the ``frozenset`` of the same ints.  The encoding is
lossless and canonical for any set; it is also small for the sets that
occur.  An issuer numbers its txids consecutively: one (node,
incarnation) in :meth:`repro.runtime.config.NodeSpec.txid`, one group
in the simulator (:class:`~repro.shard.cluster.ShardCluster`).  Under
causal delivery a seen-set is a prefix of each node's txids, less the
few still in flight where nodes share a counter, so a record costs a
pair of ints per issuer or hole rather than one int per transaction it
saw — on the wire and, decoded, in memory.  A ``RunSet`` is written
straight from its bounds, so ``encode(decode(text)) == text``.  The
anti-entropy exchange sends the same value: a SYN, an ACK, a want and
a sync pull each carry one ``%rs`` set, the sender's delivered keys or
the keys it asks for, so they cost O(runs) too.

**The set budget.**  The decoder checks each set body before it builds
the set: bounds must be ints in sorted, non-empty, non-adjacent runs.
A decoded set costs O(runs), a few bytes of frame each, so the memory
one payload decodes to is bounded by :data:`MAX_FRAME` however many
members its sets stand for, and no payload-wide member count is kept.
Each set on its own holds at most :data:`MAX_SET` members: that bounds
whatever reads a set member by member (``hash``, the offline
verifier).

Framing is 4-byte big-endian length + UTF-8 JSON, the classic
self-delimiting stream format; :class:`FrameSplitter` incrementally
splits a byte stream into decoded payloads.

**Batch frames.**  The hot-path cost of the runtime is per-frame, not
per-byte: one JSON object, one length header, one writer wake-up per
protocol payload.  A :class:`Batch` is a wire-level container — many
tagged payloads inside a *single* length-prefixed frame — that
amortizes all three.  ``FrameSplitter`` transparently expands batch
frames back into their constituent payloads (old single frames and new
batch frames interoperate on one stream); pass ``expand=False`` to see
the :class:`Batch` itself, which is how the transport keeps frame
boundaries for its one-frame-one-merge delivery batching.  Because
every payload's canonical JSON text is already known at send time,
:func:`batch_frame_from_texts` splices pre-encoded payloads into a
batch frame without re-encoding — the coalescing write buffer pays the
codec exactly once per payload.
"""

from __future__ import annotations

import json
import struct
from operator import le, lt
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ..apps.registry import APP_NAMES, app_entry
from ..core.transaction import Transaction
from ..core.update import IDENTITY, Update
from ..replica.log import RunSet, UpdateRecord, runs_of
from ..replica.timestamps import Timestamp


def _family_table(attr: str) -> Dict[str, Callable]:
    """Family name -> params-tuple constructor over every registered
    app's ``attr`` classes; two classes claiming one name would make
    decoding ambiguous, so that fails the import."""
    table: Dict[str, Callable] = {}
    for app in APP_NAMES:
        for cls in getattr(app_entry(app), attr):
            if table.setdefault(cls.name, cls) is not cls:
                raise ValueError(
                    f"family name {cls.name!r} claimed by both "
                    f"{table[cls.name].__name__} and {cls.__name__}"
                )
    return table


_TRANSACTIONS = _family_table("transactions")
_UPDATES = _family_table("updates")
# the identity update is a singleton with no params.
_UPDATES[IDENTITY.name] = lambda: IDENTITY


class Batch(tuple):
    """Many payloads travelling in one wire frame (see module docstring).

    A plain tuple subclass: equality, iteration and indexing all behave
    like the tuple of payloads it carries.  Encoded with its own tag so
    a receiver can tell one batch frame from a single tuple-valued
    payload.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({list(self)!r})"


# -- value codec ----------------------------------------------------------


def _set_from_runs(body: object) -> RunSet:
    """Inverse of :func:`~repro.replica.log.runs_of`.  Raises
    ``ValueError`` if ``body`` is malformed, non-canonical or stands for
    more than :data:`MAX_SET` members; costs O(runs), however many
    members they hold."""
    if not isinstance(body, list) or len(body) % 2:
        raise ValueError("a wire set is an even-length list of run bounds")
    if not set(map(type, body)) <= {int}:
        raise ValueError("run bounds must be ints")
    bounds = tuple(body)
    los, his = bounds[::2], bounds[1::2]
    if not all(map(le, los, his)):
        raise ValueError("a wire set has an empty run")
    if not all(map(lt, map((1).__add__, his), los[1:])):
        raise ValueError("runs must be sorted, apart and not adjacent")
    members = RunSet(bounds)
    if len(members) > MAX_SET:
        raise ValueError(f"a wire set larger than MAX_SET={MAX_SET}")
    return members


def _enc(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Batch):
        return {"%b": [_enc(v) for v in value]}
    if isinstance(value, tuple):
        return {"%t": [_enc(v) for v in value]}
    if isinstance(value, list):
        return {"%l": [_enc(v) for v in value]}
    if isinstance(value, RunSet):
        return {"%rs": value.bounds}
    if isinstance(value, frozenset):
        return {"%rs": runs_of(value)}
    if isinstance(value, dict):
        # str-keyed mappings (profile counters); wrapped so the decoder
        # can tell a payload dict from a codec tag object.
        if any(not isinstance(k, str) for k in value):
            raise TypeError("wire dicts must have str keys")
        return {"%d": [[k, _enc(v)] for k, v in sorted(value.items())]}
    if isinstance(value, Timestamp):
        return {"%ts": [value.counter, value.node_id]}
    if isinstance(value, UpdateRecord):
        fields = [
            _enc(value.ts),
            value.txid,
            _enc(value.transaction),
            _enc(value.update),
            value.origin,
            value.real_time,
            _enc(value.seen_txids),
        ]
        # a full-replication record (group None) keeps its 7-field form.
        if value.group is not None:
            fields.append(_enc(value.group))
        return {"%ur": fields}
    if isinstance(value, Transaction):
        return {"%tx": [value.name, [_enc(p) for p in value.params]]}
    if isinstance(value, Update):
        return {"%up": [value.name, [_enc(p) for p in value.params]]}
    raise TypeError(f"no wire encoding for {type(value).__name__}: {value!r}")


def _dec(value: object) -> object:
    if not isinstance(value, dict):
        return value
    if len(value) != 1:
        raise ValueError(f"malformed wire object (want one tag): {value!r}")
    (tag, body), = value.items()
    if tag == "%t":
        return tuple(_dec(v) for v in body)
    if tag == "%b":
        return Batch(_dec(v) for v in body)
    if tag == "%l":
        return [_dec(v) for v in body]
    if tag == "%rs":
        return _set_from_runs(body)
    if tag == "%d":
        return {k: _dec(v) for k, v in body}
    if tag == "%ts":
        return Timestamp(counter=body[0], node_id=body[1])
    if tag == "%ur":
        return UpdateRecord(
            ts=_dec(body[0]),
            txid=body[1],
            transaction=_dec(body[2]),
            update=_dec(body[3]),
            origin=body[4],
            real_time=body[5],
            seen_txids=_dec(body[6]),
            group=_dec(body[7]) if len(body) > 7 else None,
        )
    if tag == "%tx":
        name, params = body
        factory = _TRANSACTIONS.get(name)
        if factory is None:
            raise ValueError(f"unknown transaction family {name!r}")
        return factory(*(_dec(p) for p in params))
    if tag == "%up":
        name, params = body
        factory = _UPDATES.get(name)
        if factory is None:
            raise ValueError(f"unknown update family {name!r}")
        return factory(*(_dec(p) for p in params))
    raise ValueError(f"unknown wire tag {tag!r}")


def encode(payload: object) -> str:
    """One payload -> canonical JSON text."""
    return json.dumps(_enc(payload), separators=(",", ":"), sort_keys=True)


def decode(text: str) -> object:
    """JSON text -> the payload, with object equality to the original."""
    return _dec(json.loads(text))


# -- framing --------------------------------------------------------------

_HEADER = struct.Struct(">I")
#: sanity cap: no single protocol payload is anywhere near this large.
MAX_FRAME = 64 * 1024 * 1024
#: members one wire set may stand for: it bounds the work of anything
#: that reads a set member by member (a ``frozenset`` of them is about
#: one full frame's bytes).  Decoded, a set costs O(runs), not this.
MAX_SET = MAX_FRAME // 64


def encode_frame(payload: object) -> bytes:
    """One payload -> length-prefixed wire bytes."""
    body = encode(payload).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


def frame_from_text(text: str) -> bytes:
    """A pre-encoded payload (one :func:`encode` result) -> one frame."""
    body = text.encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


def batch_frame_from_texts(texts: Sequence[str]) -> bytes:
    """Splice pre-encoded payload texts into one ``Batch`` frame.

    Produces byte-identical output to ``encode_frame(Batch(payloads))``
    without re-walking the payload objects — the coalescing write
    buffer's fast path (each payload was already encoded when it was
    queued).
    """
    body = ('{"%b":[' + ",".join(texts) + "]}").encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes) -> Tuple[object, bytes]:
    """Split one complete frame off ``data``; raises if incomplete."""
    if len(data) < _HEADER.size:
        raise ValueError("incomplete frame header")
    (length,) = _HEADER.unpack_from(data)
    end = _HEADER.size + length
    if len(data) < end:
        raise ValueError("incomplete frame body")
    return decode(data[_HEADER.size:end].decode("utf-8")), data[end:]


class FrameSplitter:
    """Incremental frame splitter for a byte stream.

    Feed it chunks as they arrive; it yields decoded payloads as frames
    complete.  Tolerates arbitrary chunk boundaries (TCP guarantees
    nothing about them); a torn final frame simply stays buffered until
    (unless) its remaining bytes arrive.

    With ``expand=True`` (the default) a :class:`Batch` frame is
    transparently flattened: the splitter yields its payloads one by
    one, so batch-aware senders interoperate with batch-oblivious
    receivers.  ``expand=False`` yields the ``Batch`` object itself,
    preserving frame boundaries for receivers that batch work per frame.

    The splitter also keeps cheap wire counters — frames, bytes, batch
    frames, batched payloads — which the runtime's profiling hooks
    surface per node.
    """

    def __init__(self, expand: bool = True) -> None:
        self._buffer = b""
        self.expand = expand
        self.frames = 0
        self.bytes_in = 0
        self.batch_frames = 0
        self.batched_payloads = 0

    def feed(self, chunk: bytes) -> Iterator[object]:
        self._buffer += chunk
        self.bytes_in += len(chunk)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise ValueError(f"oversized frame: {length} bytes")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = self._buffer[_HEADER.size:end]
            self._buffer = self._buffer[end:]
            self.frames += 1
            payload = decode(body.decode("utf-8"))
            if isinstance(payload, Batch):
                self.batch_frames += 1
                self.batched_payloads += len(payload)
                if self.expand:
                    for item in payload:
                        yield item
                    continue
            yield payload


def split_frames(data: bytes) -> List[object]:
    """Decode a byte string holding zero or more complete frames."""
    splitter = FrameSplitter()
    out = list(splitter.feed(data))
    if splitter._buffer:
        raise ValueError(f"{len(splitter._buffer)} trailing bytes")
    return out
