"""Remote result-cache tier and fleet job dispatch.

This package turns N machines into one deduplicated engine:

* :mod:`repro.remote.protocol` — the canonical wire format: payload
  bytes are exactly the pickle bytes the disk cache tier stores,
  addressed by job id and verified by sha256 digest on every fetch.
* :mod:`repro.remote.cache_server` — ``repro cache-server``, which
  serves a :class:`~repro.engine.cache.ByteStore` (the disk tier's
  store) over ``GET/PUT/HEAD /cache/{job_id}`` plus a batched
  ``POST /cache/manifest`` existence check.
* :mod:`repro.remote.client` — the blocking HTTP endpoint core both
  clients share, and :class:`~repro.remote.client.RemoteCacheClient`,
  which the :class:`~repro.engine.cache.ResultCache` mounts as its
  third tier (memory → disk → remote) with asynchronous write-behind
  publish.
* :mod:`repro.remote.dispatch` — fleet execution: rendezvous hashing
  assigns each job to a ``repro serve`` peer (or the local engine) by
  job id, batches ship to peers' ``POST /jobs`` endpoint, and an
  unreachable peer degrades to local execution exactly like a crashed
  worker.

Everything here is stdlib-only and shares the experiment engine's
trust model: peers and cache servers exchange pickled job payloads,
so they must only ever face a trusted network — the same assumption
the process pool already makes about its workers.
"""

from repro.remote.client import RemoteCacheClient
from repro.remote.dispatch import (
    LOCAL_NODE,
    FleetDispatcher,
    PeerClient,
    rendezvous_owner,
)
from repro.remote.protocol import (
    DIGEST_HEADER,
    decode_payload,
    encode_payload,
    payload_digest,
)

__all__ = [
    "RemoteCacheClient",
    "LOCAL_NODE",
    "FleetDispatcher",
    "PeerClient",
    "rendezvous_owner",
    "DIGEST_HEADER",
    "decode_payload",
    "encode_payload",
    "payload_digest",
]
