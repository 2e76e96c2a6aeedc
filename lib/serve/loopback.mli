(** In-memory transport: the deterministic twin of {!Io_loop.Core}.

    A loopback connection is a pair of byte queues (client→server,
    server→client) plus a client-side reply decoder. {!step} moves at
    most [chunk] bytes per direction per connection — honouring
    {!Server.wants_read}, so backpressure is observable — and {!run}
    iterates to a fixpoint. Nothing touches the real clock or any file
    descriptor, which is what lets the test suite drive session
    lifecycles, idle eviction (via a fake [config.clock] plus {!tick})
    and backpressure byte-for-byte reproducibly. *)

type t
type conn

val create : ?config:Server.config -> unit -> t

(** The server under test, for direct metric / query assertions. *)
val server : t -> Server.t

val connect : t -> conn
val conn_id : conn -> Server.conn_id

(** Queue an encoded request on the client side (delivered by {!step}). *)
val send : conn -> Wire.request -> unit

(** Queue raw bytes — for protocol-error and adversarial-chunking tests. *)
val send_raw : conn -> string -> unit

(** Frame a FEED straight from a slice of [s] — header poke plus one
    payload blit into the client queue, no intermediate encode. The
    benchmark hot path. *)
val send_feed_sub : conn -> string -> pos:int -> len:int -> unit

(** Client-side hangup: undelivered bytes are dropped and the server sees
    EOF, as when a client is killed mid-stream. *)
val hangup : conn -> unit

(** Bytes queued client→server but not yet delivered. *)
val unsent : conn -> int

(** One scheduling round: for each connection, deliver at most [chunk]
    bytes to the server (only while it {!Server.wants_read}s), collect at
    most [chunk] reply bytes, and complete any drain-close the server
    asked for. Returns [true] if anything moved. Default [chunk] is large
    enough to be "all of it" in practice. *)
val step : ?chunk:int -> t -> bool

(** Iterate {!step} to quiescence. *)
val run : ?chunk:int -> t -> unit

(** Run {!Server.on_tick} (idle eviction) — pair with a fake clock. *)
val tick : t -> unit

(** Drain the replies decoded so far, in order. Raises [Failure] on a
    corrupt or undecodable reply frame: the server must never emit one. *)
val replies : conn -> Wire.reply list

(** Drain decoded reply frames as zero-copy views (each valid only during
    its callback) — the benchmark path that skips reply materialization.
    Raises [Failure] on a corrupt reply stream. *)
val drain_views : conn -> (Wire.Decoder.view -> unit) -> unit

(** The server has closed this connection (drain-close or eviction
    completed). Already-decoded replies remain readable. *)
val closed : conn -> bool
