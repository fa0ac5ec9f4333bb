"""The service surface, declared once.

Every call the platform's front doors answer is one :class:`Verb` in
:data:`VERBS`: its name and arguments, HTTP method, path and ``route=``
metrics label, the wire codec of each argument and of the result, and, for
calls routed by channel, what the shard router runs on the owning worker.
:func:`bind` gives :class:`~repro.platform.client.LightorClient`,
:class:`~repro.platform.cluster.ClusterFrontDoor` and
:class:`~repro.platform.sharding.ShardedLightorService` their surface
methods from this table, and :class:`~repro.platform.server.LightorGateway`
resolves, decodes and answers requests with it; ``tools/check_docs.py``
generates ``docs/serving.md``'s endpoint table from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple
from urllib.parse import quote

from repro.platform import codecs
from repro.utils.validation import ValidationError

__all__ = ["VERBS", "ROUTED", "Verb", "bind"]

_REQUIRED = object()


class Codec(NamedTuple):
    """One value's wire form, and how the endpoint table shows it.

    ``from_wire(value, name)`` checks what arrived and raises
    :class:`ValidationError` naming the field.
    """

    shape: str
    to_wire: Callable[[Any], Any]
    from_wire: Callable[[Any, str], Any]


def _same(value: Any, name: str = "") -> Any:
    return value


def _checked(
    shape: str, kind: type | tuple, what: str, then: Callable = _same, to_wire=_same
) -> Codec:
    def read(value: Any, name: str) -> Any:
        if not isinstance(value, kind) or value == "":  # an empty string names nothing
            raise ValidationError(f"request body must carry {name!r} as {what}")
        return then(value)

    return Codec(shape, to_wire, read)


def _items(to_dict: Callable, from_dict: Callable) -> Codec:
    return _checked(
        "[...]", list, "a JSON list", lambda items: [from_dict(item) for item in items],
        lambda values: [to_dict(value) for value in values],
    )


def _count(value: str, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"query parameter {name}={value!r} is not an integer") from None


def _addresses(pairs: list) -> list[tuple[str, int]]:
    if not all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs):
        raise ValidationError("addresses entries must be [host, port] pairs")
    return [(str(host), int(port)) for host, port in pairs]


def _plain(shape: str = "") -> Codec:
    return Codec(shape, _same, _same)


VIDEO = Codec("video dict", codecs.video_to_dict, lambda value, name: codecs.video_from_dict(value))
DOTS = _items(codecs.red_dot_to_dict, codecs.red_dot_from_dict)
INTERACTIONS = _items(codecs.interaction_to_dict, codecs.interaction_from_dict)
MESSAGES = _items(codecs.chat_message_to_dict, codecs.chat_message_from_dict)
EVENTS = _items(codecs.stream_event_to_dict, codecs.stream_event_from_dict)
HIGHLIGHTS = _items(codecs.highlight_to_dict, codecs.highlight_from_dict)
RECORDS = _items(codecs.highlight_record_to_dict, codecs.highlight_record_from_dict)
COUNT = Codec("N", int, _count)
FLAG = _checked("bool", bool, "a JSON boolean")
SECONDS = _checked("number\\|null", (int, float, type(None)), "a JSON number or null")
NAME = _checked("string", str, "a string")
OBJECT = _checked("object", dict, "a JSON object")
PLACEMENT = _checked("placement dict", dict, "a JSON object", codecs.placement_map_from_dict)
ADDRESSES = _checked(
    "[[host, port], ...]", list, "a JSON list", _addresses, lambda pairs: [list(p) for p in pairs]
)


@dataclass(frozen=True)
class Arg:
    """One parameter and where it travels: ``"field"`` (the body key of its
    name), ``"path"`` (the channel in the path), ``"body"`` (the whole body)
    or ``"query"`` (a query parameter, sent when not ``None``)."""

    name: str
    codec: Codec = _plain()
    at: str = "field"
    default: Any = _REQUIRED


@dataclass(frozen=True)
class Result:
    """The answer under ``key``, or the whole answer when ``key`` is None.

    A ``receipt`` call returns ``None`` and answers its channel id instead;
    a ``counts`` call also answers the length of its batch argument (the
    second) as ``ingested``, the gateway's per-route event counter.
    """

    key: str | None
    codec: Codec = _plain()
    receipt: bool = False
    counts: bool = False


@dataclass(frozen=True)
class Verb:
    """One front-door call.

    ``target`` is what the shard router runs on the owning worker (a
    :class:`~repro.platform.service.LightorWebService` method or a
    ``store.*`` call); a verb without one is not routed by channel.
    ``calls`` is what the gateway runs: ``service.<method>`` on the tier it
    serves (the verb's own name by default) or a gateway method.  Calls
    with ``admitted=False`` bypass admission, so the gateway stays
    observable while saturated.
    """

    name: str
    method: str
    path: str
    route: str
    args: tuple[Arg, ...]
    result: Result
    doc: str
    target: str | None = None
    calls: str = ""
    admitted: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "calls", self.calls or f"service.{self.name}")

    def channel(self, values: tuple) -> str:
        """The channel a call with these arguments addresses."""
        return values[0].video_id if self.args[0].at == "body" else values[0]

    def request(self, values: tuple) -> tuple[str, dict | None]:
        """The client side: ``(path and query, body)``; GETs carry no body."""
        path = self.path
        if "{id}" in path:
            path = path.replace("{id}", quote(self.channel(values), safe=""))
        body: dict | None = None if self.method == "GET" else {}
        for arg, value in zip(self.args, values):
            if arg.at == "body":
                body = arg.codec.to_wire(value)
            elif arg.at == "field":
                body[arg.name] = arg.codec.to_wire(value)
            elif arg.at == "query" and value is not None:
                path += f"?{arg.name}={arg.codec.to_wire(value)}"
        return path, body

    def answer(self, payload: Any) -> Any:
        """The client side: the call's return value from a ``200`` payload."""
        key, codec = self.result.key, self.result.codec
        if self.result.receipt:
            return None
        return codec.from_wire(payload, "") if key is None else codec.from_wire(payload[key], key)

    def arguments(self, channel: str | None, body: dict, query: dict) -> tuple:
        """The gateway side: the call's arguments, decoded and checked."""
        values = []
        for arg in self.args:
            if arg.at == "path":
                values.append(channel)
            elif arg.at == "query":
                raw = query.get(arg.name)
                values.append(arg.codec.from_wire(raw[-1], arg.name) if raw else arg.default)
            elif arg.at == "body":
                video = arg.codec.from_wire(body, arg.name)
                if channel is not None and video.video_id != channel:
                    raise ValidationError(
                        f"path names channel {channel!r} but the body is video {video.video_id!r}"
                    )
                values.append(video)
            elif arg.name in body or arg.default is _REQUIRED:
                values.append(arg.codec.from_wire(body.get(arg.name), arg.name))
            else:
                values.append(arg.default)
        return tuple(values)

    def reply(self, value: Any, values: tuple) -> Any:
        """The gateway side: the ``200`` payload for a call that returned ``value``."""
        result = self.result
        if result.key is None:
            return value
        value = self.channel(values) if result.receipt else result.codec.to_wire(value)
        payload = {result.key: value}
        if result.counts:
            payload["ingested"] = len(values[1])
        return payload


_ID = Arg("video_id", at="path")
_VIDEO = Arg("video", VIDEO, at="body")
_DOTS = Result("red_dots", DOTS)

#: The whole surface.  The first verb on a path names its ``405`` answers.
VERBS: tuple[Verb, ...] = (
    Verb("register_video", "POST", "/videos", "register", (_VIDEO,),
         Result("registered", receipt=True),
         "Store video metadata on its home shard (no live session opened).", "store.put_video"),
    Verb("request_red_dots", "GET", "/videos/{id}/red-dots", "red_dots",
         (_ID, Arg("k", COUNT, "query", None)), _DOTS,
         "Red dots for a recorded video, served by its home shard.", "request_red_dots"),
    Verb("log_interactions", "POST", "/videos/{id}/interactions", "interactions",
         (_ID, Arg("interactions", INTERACTIONS)), Result("total", counts=True),
         "Persist viewer interactions on the video's home shard.", "log_interactions"),
    Verb("get_interactions", "GET", "/videos/{id}/interactions", "interactions_read", (_ID,),
         Result("interactions", INTERACTIONS),
         "The stored viewer interactions for a video, in insertion order.",
         "store.get_interactions"),
    Verb("refine_video", "POST", "/videos/{id}/refine", "refine", (_ID,), Result("updated"),
         "Run one Extractor refinement pass on the video's home shard.", "refine_video"),
    Verb("get_red_dots", "GET", "/videos/{id}/stored-dots", "stored_dots", (_ID,), _DOTS,
         "The stored red dots for a video, in stored order.", "store.get_red_dots"),
    Verb("highlight_history", "GET", "/videos/{id}/highlights", "highlights", (_ID,),
         Result("highlights", RECORDS),
         "Every stored highlight record for a video, in version order.",
         "store.highlight_history"),
    Verb("latest_highlights", "GET", "/videos/{id}/latest-highlights", "latest_highlights",
         (_ID,), Result("highlights", HIGHLIGHTS),
         "The most recent stored highlight per area for a video.", "store.latest_highlights"),
    Verb("start_live", "POST", "/live/{id}/start", "live_start", (_VIDEO,),
         Result("live", receipt=True),
         "Register a live channel and open its session on its home shard.", "start_live"),
    Verb("ingest_chat_batch", "POST", "/live/{id}/chat", "live_chat",
         (_ID, Arg("messages", MESSAGES), Arg("persist", FLAG, default=False)),
         Result("events", EVENTS, counts=True),
         "Push a timestamp-ordered chat batch for a live channel; returns its events.",
         "ingest_chat_batch"),
    Verb("ingest_plays_batch", "POST", "/live/{id}/plays", "live_plays",
         (_ID, Arg("interactions", INTERACTIONS)), Result("events", EVENTS, counts=True),
         "Push a batch of viewer interactions for a live channel; returns its events.",
         "ingest_plays_batch"),
    Verb("live_red_dots", "GET", "/live/{id}/dots", "live_dots", (_ID,), _DOTS,
         "The dots to render right now for a channel (live or persisted).", "live_red_dots"),
    Verb("end_live", "POST", "/live/{id}/end", "live_end",
         (_ID, Arg("duration", SECONDS, default=None)), _DOTS,
         "Close a live channel on its home shard; final dots are persisted.", "end_live"),
    Verb("get_placement", "GET", "/placement", "placement", (),
         Result(None, _plain("`{placement, addresses, shard_index}`")),
         "The gateway's placement map and worker addresses.", calls="_placement_payload"),
    Verb("put_placement", "POST", "/placement", "placement_install",
         (Arg("placement", PLACEMENT), Arg("addresses", ADDRESSES, default=())),
         Result(None, _plain("`{installed, epoch}`")),
         "Install a placement map (and optionally worker addresses) on the gateway.",
         calls="_install_placement"),
    Verb("list_channels", "GET", "/admin/channels", "admin_channels", (),
         Result("channels", _plain("[...]")),
         "Every channel id stored behind the gateway, sorted."),
    Verb("migrate_out", "POST", "/admin/migrate-out", "admin_migrate_out",
         (Arg("video_id", NAME),), Result(None, _plain("`{bundle, was_live}`")),
         "Detach and export one channel."),
    Verb("migrate_in", "POST", "/admin/migrate-in", "admin_migrate_in",
         (Arg("bundle", OBJECT), Arg("was_live", FLAG, default=False)),
         Result("imported", _plain("string")),
         "Import an exported channel bundle; resume its session when live."),
    Verb("forget_channel", "POST", "/admin/forget-channel", "admin_forget_channel",
         (Arg("video_id", NAME),), Result("forgotten", _plain("bool")),
         "Drop a migrated-out channel's residual state."),
    Verb("fence", "POST", "/admin/fence", "admin_fence", (), Result("drained", _plain("bool")),
         "Block until every request the gateway admitted before it has finished.",
         calls="_fence", admitted=False),
    Verb("healthz", "GET", "/healthz", "healthz", (),
         Result(None, _plain("`{status, shards, in_flight, max_pending, ...}`")),
         "The gateway's health payload.", calls="_health_payload", admitted=False),
    Verb("metrics", "GET", "/metrics", "metrics", (),
         Result(None, _plain("Prometheus-style text (`lightor_gateway_*`)")),
         "The gateway's Prometheus-style metrics text.", calls="_metrics_text", admitted=False),
)

#: The verbs routed by channel: what every front door forwards.
ROUTED: tuple[Verb, ...] = tuple(verb for verb in VERBS if verb.target is not None)


def bind(cls: type, verbs: tuple[Verb, ...], body: str) -> None:
    """Give ``cls`` one method per verb, compiled from the template ``body``.

    Each method has the verb's own signature — compiled the way
    :mod:`dataclasses` compiles ``__init__`` — so it is a plain function on
    the class: Python binds the arguments, and no call pays for signature
    handling.  ``body`` may use ``{key}`` (the channel expression),
    ``{name}``, ``{target}``, ``{args}`` (the parameters as call arguments)
    and ``{values}`` (the same as a tuple); the verb itself is ``VERB``.
    """
    for verb in verbs:
        names = [arg.name for arg in verb.args]
        params = ["self"] + [
            name if arg.default is _REQUIRED else f"{name}={arg.default!r}"
            for name, arg in zip(names, verb.args)
        ]
        key = "" if not names else "video.video_id" if verb.args[0].at == "body" else names[0]
        source = f"def {verb.name}({', '.join(params)}):\n    " + body.format(
            key=key, name=verb.name, target=verb.target, args=", ".join(names),
            values=f"({', '.join(names)},)" if names else "()",
        )
        namespace = {"VERB": verb}
        exec(compile(source, f"<surface {cls.__name__}.{verb.name}>", "exec"), namespace)
        method = namespace[verb.name]
        method.__qualname__, method.__module__ = f"{cls.__name__}.{verb.name}", cls.__module__
        method.__doc__ = verb.doc
        setattr(cls, verb.name, method)
