(** The transport-agnostic serving core.

    One {!t} holds the session table, the (possibly shared — see
    {!create}'s [cache]) {!St_streamtok.Engine_cache}, per-connection
    frame decoders and bounded output queues, and the server-wide
    metrics. A transport (a {!Shard} worker's [Unix.select] round in
    {!Io_loop.Core}, the in-memory {!Loopback} in tests and benchmarks)
    owns the actual byte movement and drives this module through a
    small event/query interface:

    - events in: {!on_connect}, {!on_data}, {!on_eof}, {!on_closed},
      {!on_tick};
    - queries out: {!wants_read} (backpressure: [false] while a
      connection's output queue is over budget — stop reading its socket),
      {!out_vectors}/{!out_vec_consume} (pending output as writev
      segments, the gathered-write hot path) or {!out_view}/{!out_consume}
      (single-buffer transports), {!should_close} (drain-then-close
      handshake).

    A {!t} is single-domain: one transport drives it, and in the sharded
    server each worker domain owns its own instance (only the engine
    cache and the {!snapshot}s cross domains).

    The server's counters live in one {!St_obs.Metrics.Registry.t}: the
    registry is the store, updated in place through the metric handles,
    not a copy assembled at export. {!snapshot} deep-copies it;
    {!add_shared_metrics} appends the engine-cache counters and uptime,
    which are not per worker.

    Time enters only through [config.clock], so a fake clock makes idle
    eviction and latency recording fully deterministic under loopback. *)

open St_obs

type config = {
  max_sessions : int;  (** beyond this, new connections get a retryable
                           [Capacity] error *)
  idle_timeout : float;  (** seconds; [0.] disables idle eviction *)
  max_out_bytes : int;
      (** per-connection output-queue budget; above it the server stops
          reading that connection until the client drains replies *)
  out_frame_bytes : int;
      (** flush a coalesced TOKENS batch once its encoded records reach
          this size, so one batch never produces a frame anywhere near
          {!Wire.max_payload}; also bounds one gathered-FEED run *)
  cache_entries : int;  (** engine-cache capacity (ignored when a shared
                            cache is passed to {!create}) *)
  clock : unit -> float;
}

val default_config : config

type t
type conn_id = int

(** [create ?cache ()] — [cache] (default: a private one of
    [config.cache_entries]) lets worker domains share one domain-safe
    engine cache, so N domains OPENing the same grammar cost one
    compile. *)
val create : ?cache:St_streamtok.Engine_cache.t -> ?config:config -> unit -> t

val config : t -> config

(** {1 Events (transport → server)} *)

(** A connection arrived. Always returns an id — over-capacity or
    mid-drain connections are answered with a retryable error frame and
    marked for drain-close, which the transport observes via
    {!should_close}. They count as [sessions_rejected], never as opened
    or closed sessions. *)
val on_connect : t -> conn_id

(** Bytes read from the connection's socket. The slice is copied into the
    connection's frame decoder before returning, so the transport may
    reuse [buf] for the next read. Consecutive buffered FEED frames are
    gathered and coalesced into one tokenizer batch
    ({!Session.feed_views}) and answered with one TOKENS frame (split
    only at [config.out_frame_bytes]). A batch still pending when
    buffered input runs out is left {e deferred} in the session encoder
    for {!out_vectors} to write in place. *)
val on_data : t -> conn_id -> Bytes.t -> pos:int -> len:int -> unit

(** The peer hung up (EOF, reset): the session is discarded immediately. *)
val on_eof : t -> conn_id -> unit

(** The transport finished closing a connection {!should_close} asked for. *)
val on_closed : t -> conn_id -> unit

(** Periodic housekeeping: idle eviction. Call about once a second (or
    whenever {!next_deadline} expires). *)
val on_tick : t -> unit

(** {1 Queries (server → transport)} *)

(** Backpressure: read from this connection's socket only while [true]. *)
val wants_read : t -> conn_id -> bool

(** [out_vectors t id vecs] fills [vecs] (length ≥ 3) with the
    connection's pending output as [(buf, pos, len)] writev segments and
    returns the count: the out queue's live bytes, then — when a token
    batch was deferred — the 5-byte frame header and the session
    encoder's bytes, written straight from where they were encoded.
    Write some prefix with {!Writev.write}, then {!out_vec_consume} it.
    The segments are invalidated by any other call on [t]. *)
val out_vectors : t -> conn_id -> (Bytes.t * int * int) array -> int

(** [out_vec_consume t id n] consumes [n] written bytes across the
    segments of the last {!out_vectors}, counts the vectored write, and
    retires the deferred batch: fully-written frames never touch the out
    queue ([batch_bytes_direct]); a short write mid-frame moves only the
    unwritten tail into the queue so the next writable event resumes
    exactly where the socket stopped. *)
val out_vec_consume : t -> conn_id -> int -> unit

(** Pending output as one [(buf, pos, len)] view; a deferred batch is
    first materialized into the out queue. Single-buffer transports
    (loopback, tests) use this; write some prefix, then {!out_consume}
    what was written. The view is invalidated by any other call on [t]. *)
val out_view : t -> conn_id -> Bytes.t * int * int

val out_consume : t -> conn_id -> int -> unit

(** Total pending output bytes, deferred batch included. *)
val out_pending : t -> conn_id -> int

(** The connection should be closed once its output queue is empty. *)
val should_close : t -> conn_id -> bool

val conn_ids : t -> conn_id list

(** Earliest idle-eviction deadline among live sessions, for the select
    timeout. *)
val next_deadline : t -> float option

(** {1 Drain}

    {!drain} stops new sessions (they get a retryable [Shutting_down]
    error), sends every live session a [Shutting_down] error and marks it
    for drain-close. The transport exits once {!live_conns} reaches 0. *)

val drain : t -> unit
val draining : t -> bool
val live_conns : t -> int

(** {1 Observability} *)

(** Currently active sessions. *)
val sessions : t -> int

val cache : t -> St_streamtok.Engine_cache.t

(** Receive-buffer compaction copies across all connections (live and
    closed): the price of frames straddling a read. Zero on a
    straddle-free run — also exported as the [decoder_copies] counter. *)
val decoder_copies : t -> int

(** A deep copy of this instance's per-worker metrics, with the
    [sessions] gauge set to {!sessions} first: what a {!Shard} worker
    publishes so the pool can {!St_obs.Metrics.Registry.merge} snapshots
    across domains without touching another domain's live [t]. It holds
    every STATS metric from [sessions] through the per-FEED-batch
    latency histogram [feed_latency_ns], in STATS order. A merged
    [sessions_peak] sums per-worker peaks: an upper bound on the
    pool-wide concurrent peak, which no worker can observe alone. *)
val snapshot : t -> Metrics.Registry.t

(** [add_shared_metrics r cache ~uptime] appends the metrics that are
    not per worker: [cache]'s compile/hit/eviction counters and entry
    gauge, and [uptime_seconds]. Append them once, after any merge. *)
val add_shared_metrics :
  Metrics.Registry.t -> St_streamtok.Engine_cache.t -> uptime:float -> unit

(** Count one [accept] refused for lack of file descriptors (EMFILE /
    ENFILE) — the [accept_fd_exhausted] counter. *)
val note_accept_exhausted : t -> unit

(** Count one connection refused because its descriptor is past
    [select]'s FD_SETSIZE — the [accept_fd_ceiling] counter — and return
    the encoded retryable [Capacity] ERROR frame to write to it before
    closing it. The connection never becomes a session. *)
val refuse_fd_ceiling : t -> string

(** Install the STATS responder: when set, a STATS request is answered
    with [f ()]'s registry instead of this instance's own — the hook a
    {!Shard} worker uses to reply with pool-wide aggregated stats. *)
val set_stats_hook : t -> (unit -> Metrics.Registry.t) -> unit

(** This instance's STATS document: {!snapshot} plus
    {!add_shared_metrics} for its cache and the time since {!create}. A
    sharded pool's STATS have exactly the same metric names and order. *)
val stats_registry : t -> Metrics.Registry.t
