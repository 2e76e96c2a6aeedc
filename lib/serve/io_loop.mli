(** The [Unix.select] round over non-blocking sockets that drives a
    {!Server}, plus the listener bind. The daemon itself — accepting,
    signals, drain — is {!Shard.serve}, whose every worker (the
    listener-owning worker 0 included) runs this round.

    All byte movement and fd lifecycle lives in {!Core}; protocol and
    policy live in {!Server}/{!Session}, which is why the rest of the
    subsystem never needs a real socket to be tested.

    Writes are vectored: a connection's queued replies and its deferred
    token batch (header + session-encoder bytes, never blitted through
    the out queue) go out in one {!Writev.write}. *)

(** [Unix.select], retried on [EINTR] (a signal handler ran). *)
val select_eintr :
  Unix.file_descr list -> Unix.file_descr list -> Unix.file_descr list ->
  float -> Unix.file_descr list * Unix.file_descr list * Unix.file_descr list

(** [bind_listener ~socket] binds and listens on a Unix-domain socket,
    non-blocking. A stale socket file (bind refused, nobody accepting)
    is unlinked and rebound; a live one raises [EADDRINUSE]. *)
val bind_listener : socket:string -> Unix.file_descr

(** One server's event loop state: the fd↔conn-id tables, the shared
    read buffer, and the writev scratch. Single-domain, like the
    {!Server.t} it drives. *)
module Core : sig
  type t

  val create : Server.t -> t

  (** Adopt an accepted (or handed-off) socket: set it non-blocking,
      {!Server.on_connect} it, track it. An fd at or above FD_SETSIZE
      (1024), which [select] cannot watch, is refused instead: it gets
      one retryable [Capacity] ERROR frame (written once, best effort)
      and is closed, counted by {!Server.refuse_fd_ceiling}. *)
  val register : t -> Unix.file_descr -> unit

  (** [iterate t ~extra ~max_timeout] runs one select round — reads
      ready connections into {!Server.on_data}, issues vectored writes
      for pending output, completes drain-closes, ticks — and returns
      the subset of [extra] fds (listener, wakeup pipe — watched for
      readability, never read here) that were ready. The timeout is
      capped at [max_timeout] seconds and tightened to the server's next
      idle deadline. *)
  val iterate :
    t -> extra:Unix.file_descr list -> max_timeout:float ->
    Unix.file_descr list
end
