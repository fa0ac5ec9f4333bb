"""Deployment substrate: a Twitch-like platform and the LIGHTOR web stack.

Section VI of the paper describes two deployment paths: a browser extension
backed by a web service + crawler, or direct integration into a streaming
platform.  This package provides runnable equivalents of every box in the
paper's Figure 5, layered for scale (see ``docs/architecture.md``):

* :mod:`backends <repro.platform.backends>` — pluggable storage behind the
  :class:`StorageBackend` contract: the in-memory reference store and a
  durable SQLite backend (stdlib ``sqlite3``, WAL mode).
* :mod:`codecs <repro.platform.codecs>` — round-trip-exact to/from-dict
  serialization for the core value objects (what durable backends store).
* :mod:`api <repro.platform.api>` — a simulated live-streaming platform API
  (channel listings, video metadata, chat download).
* :mod:`crawler <repro.platform.crawler>` — offline/online chat crawler
  writing into a backend.
* :mod:`service <repro.platform.service>` — the LIGHTOR back-end web service:
  receives a video id, crawls chat if needed, computes red dots, serves them,
  logs interactions and refines highlights.  Stateless over its backend.
  Live channels ingest in batches (``ingest_chat_batch`` /
  ``ingest_plays_batch`` — one lock acquisition and one storage
  transaction per batch; a batch of one is per-event ingest, and the
  persisted state is byte-equivalent however events are chunked).
* :mod:`recovery <repro.platform.recovery>` — durable checkpoint/recovery
  for live sessions: the service snapshots each open session into its
  backend (on an event cadence and on eviction), stamps every persisted
  play batch with the channel's persisted chat count, and
  ``recover_live_sessions`` rebuilds every open session after a crash from
  its latest snapshot plus the rows persisted since it, replayed in their
  original chat/plays order.
* :mod:`placement <repro.platform.placement>` — the control plane: a
  versioned ``{channel -> shard}`` :class:`PlacementMap` (epoch 0 *is* the
  legacy consistent-hash ring) with migration pins, in-flight markers and
  minimal reshard planning; :class:`WrongShardError` is its wire-visible
  409 redirect.
* :mod:`sharding <repro.platform.sharding>` — the sharded front door:
  routes video ids across N workers through the placement map, each worker
  with its own backend, crawler and streaming orchestrator, under
  per-shard locks; supports live channel migration and online resharding.
* :mod:`surface <repro.platform.surface>` — the service surface declared
  once: one table entry per front-door call (arguments, HTTP method and
  path, wire codecs, channel routing) from which the client, the gateway's
  routes, the cluster front door and the shard router are all bound.
* :mod:`server <repro.platform.server>` — the network boundary: a
  stdlib-only, thread-per-connection HTTP/1.1 JSON gateway serving every
  verb of the surface table, with per-request validation (400),
  bounded-queue admission control (503) and graceful drain that
  checkpoints open live sessions for byte-exact recovery.
* :mod:`client <repro.platform.client>` — the thin blocking HTTP client,
  bound from the surface table, so in-process callers (the load harness
  above all) can be pointed at a gateway by swapping the object.
* :mod:`extension <repro.platform.extension>` — the browser-extension front
  end: renders red dots on the progress bar and forwards viewer interactions
  to the service.
"""

from repro.platform.backends import (
    HighlightRecord,
    InMemoryStore,
    SQLiteStore,
    StorageBackend,
    create_backend,
)
from repro.platform.api import SimulatedStreamingAPI
from repro.platform.client import GatewayError, GatewayOverloadedError, LightorClient
from repro.platform.crawler import ChatCrawler
from repro.platform.placement import PlacementMap, WrongShardError
from repro.platform.server import GatewayThread, LightorGateway
from repro.platform.service import LightorWebService
from repro.platform.sharding import ConsistentHashRing, ShardedLightorService
from repro.platform.extension import BrowserExtension, ProgressBarView

__all__ = [
    "BrowserExtension",
    "ChatCrawler",
    "ConsistentHashRing",
    "GatewayError",
    "GatewayOverloadedError",
    "GatewayThread",
    "HighlightRecord",
    "InMemoryStore",
    "LightorClient",
    "LightorGateway",
    "LightorWebService",
    "PlacementMap",
    "ProgressBarView",
    "SQLiteStore",
    "ShardedLightorService",
    "SimulatedStreamingAPI",
    "StorageBackend",
    "WrongShardError",
    "create_backend",
]
