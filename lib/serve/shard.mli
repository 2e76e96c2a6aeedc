(** The daemon: a pool of worker domains, the calling one among them.

    Every worker runs the same loop: a full single-domain serving stack —
    its own {!Server.t} session table, decoders, output queues, and an
    {!Io_loop.Core} select round whose [extra] fds are its wakeup pipe
    and, for worker 0 of {!serve}, the listener. Unix-domain sockets
    have no [SO_REUSEPORT]-style kernel load balancing, so worker 0
    accepts for everyone and hands each fd to the next worker
    round-robin: its own turns are registered directly; the others are
    pushed onto that worker's mutex-guarded queue with one byte written
    into its wakeup pipe. With one domain, nothing is spawned and no
    handoff happens at all — the daemon is one select loop.

    Only two things cross domains: the engine cache (one mutex-guarded
    {!St_streamtok.Engine_cache}, so N workers OPENing one grammar cost
    one compile) and the stats snapshots: each worker publishes a
    {!Server.snapshot} registry under the pool mutex every ≤50 ms, and a
    STATS request to any worker answers for the whole pool by folding
    them with {!St_obs.Metrics.Registry.merge}, then appending the
    shared-cache metrics and the pool's uptime once
    ({!Server.add_shared_metrics}).

    Shutdown: {!stop} raises the pool-wide flag and pokes every wakeup
    pipe; worker 0 closes and unlinks the listener; every worker adopts
    any still-queued handoffs (so those clients get the retryable
    [Shutting_down] reply rather than a hangup), drains its sessions,
    and exits once its last connection closes; {!join} waits for them. *)

type t

(** [create_pool ~domains ()] spawns [domains] worker domains with no
    listener, fed by {!inject} (tests, benchmarks). Also ignores SIGPIPE
    process-wide — a worker writing to a dead client must not kill the
    process. *)
val create_pool : ?config:Server.config -> domains:int -> unit -> t

(** Hand an accepted (or [socketpair]) fd to the next worker
    round-robin. The worker sets it non-blocking and adopts it as a
    session. The fd is owned by the pool from this point. *)
val inject : t -> Unix.file_descr -> unit

(** Begin pool-wide drain (idempotent, callable from any domain or a
    signal handler). *)
val stop : t -> unit

(** Wait for every spawned worker to finish draining, then release the
    wakeup pipes. *)
val join : t -> unit

(** Pool-wide aggregated metrics: the merge of the workers' last
    published snapshots plus the shared metrics ([None] until the first
    worker publishes, i.e. only momentarily after {!create_pool}). Same
    metric names, in the same order, as {!Server.stats_registry}. *)
val stats : t -> St_obs.Metrics.Registry.t option

(** [serve ~domains ~socket ()] — the daemon. Binds [socket] with
    {!Io_loop.bind_listener} (a stale socket file is replaced, a live
    one raises [Unix.Unix_error EADDRINUSE]), spawns workers
    [1..domains-1], calls [on_listening], and runs worker 0 — the
    acceptor — in the calling domain. On SIGTERM/SIGINT it stops
    accepting, unlinks the socket, drains every worker, joins them and
    returns. *)
val serve :
  ?config:Server.config ->
  ?on_listening:(unit -> unit) ->
  domains:int ->
  socket:string ->
  unit ->
  unit
