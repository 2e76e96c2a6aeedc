(** Push-based chunked streaming interface to StreamTok.

    The stream is delivered block-by-block ({!feed}); tokens are emitted as
    soon as their maximality is confirmed — at most max(K, 1) symbols after
    their last character arrives — and may straddle chunk boundaries
    transparently. Memory use is O(K + longest pending token), independent
    of the stream length.

    This is the interface the paper's streaming claims are about: flex
    processes a stream block-by-block with backtracking inside its buffer,
    while StreamTok never re-reads a byte.

    {2 Driving the kernel}

    There is no streaming copy of the Fig. 5 / Fig. 6 loops: a feed enters
    the same chunk-resumable kernel {!Engine.run_string} enters once (see
    {!Engine}). The kernel leaves a chunk's last max(K, 1) bytes
    unconsumed, because their lookahead has not arrived; they are kept,
    with the consumed bytes of the unfinished token, in a spill buffer. The
    next feed first runs the kernel over the spill plus its own first
    max(K, 1) bytes (the seam), then over the chunk in place. {!finish}
    runs it once more over the spill with EOF as the lookahead.

    {2 Views}

    The view emitter ({!create_views}) receives each token as
    [s pos len rule] with its bytes at s[pos..pos+len). [s] is the chunk
    passed to {!feed} for a token that lies inside it, and the spill
    buffer (reused afterwards) for a token that began in an earlier chunk.
    Either way a view is valid only for the duration of the [emit] call;
    copy what must outlive it. {!create}'s string emitter is that copy.

    {2 Failure}

    The kernel does not test each byte for failure: reject states are
    absorbing and never final, so a dead DFA emits nothing further, and a
    feed checks the DFA state once after each kernel call. On that cold
    path the failing byte is found by re-running the DFA over the
    unfinished token, so the outcome is the same as a per-byte check
    gives: [offset] is the token's start, [pending] the token through the
    failing byte. Because the lookahead bytes stay unconsumed, a byte that
    kills the DFA is detected by the first feed (or {!finish}) that
    consumes it — max(K, 1) bytes after it arrives. *)

type t

(** [create engine ~emit] starts a run. [emit lexeme rule] is called for
    every maximal token in stream order, with a fresh copy of its bytes.

    [stats] (optional) turns on the instrumented variant: tokens are
    tallied per rule as they are emitted, and each {!feed} additionally
    records the chunk size and the carried-state high-water mark (the
    spill: unfinished token plus unconsumed lookahead at the chunk
    boundary — the bytes the tokenizer actually retains between chunks).
    All extra work is per token or per chunk; the kernel is unchanged. *)
val create :
  ?stats:Run_stats.t -> Engine.t -> emit:(string -> int -> unit) -> t

(** [create_views engine ~emit] is {!create} without the per-token copy:
    [emit s pos len rule] is called with the token's bytes as the view
    s[pos..pos+len). The view is valid only for the duration of the call —
    [s] is the caller's chunk, or for a token that straddled a chunk
    boundary the tokenizer's spill buffer, which is reused. *)
val create_views :
  ?stats:Run_stats.t ->
  Engine.t ->
  emit:(string -> int -> int -> int -> unit) ->
  t

(** Has the run already failed (untokenizable input seen)? Further {!feed}s
    are ignored once failed. *)
val failed : t -> bool

(** [feed t s pos len] pushes a chunk. Raises [Invalid_argument] on bad
    bounds; silently ignores input after a failure or after {!finish}. *)
val feed : t -> string -> int -> int -> unit

(** [feed_string t s] = [feed t s 0 (String.length s)]. *)
val feed_string : t -> string -> unit

(** [feed_batch t segs n] pushes the first [n] [(s, pos, len)] segments of
    [segs] as consecutive chunks in one call — the serving layer's
    coalesced-FEED path. Token output, carried state and failure offsets
    are bit-identical to [n] separate {!feed} calls; the per-call overhead
    (bounds validation, stats sampling, the trace span) is paid once for
    the whole batch. Segments after the one that fails the stream are not
    consumed (they do not advance {!bytes_fed}), matching the serving
    layer's contract of dropping FEEDs after a failure. Raises
    [Invalid_argument] if [n] exceeds the array or any segment is out of
    bounds. *)
val feed_batch : t -> (string * int * int) array -> int -> unit

(** Signal end-of-stream: drains the lookahead window, emits any final
    maximal token, and reports the outcome. Idempotent. *)
val finish : t -> Engine.outcome

(** Total bytes accepted so far (across all chunks). *)
val bytes_fed : t -> int

(** Bytes consumed by self-loop skip loops so far (0 when the engine was
    built [~accel:false]). With [stats], each feed also adds its delta to
    the [accel_skipped_bytes] counter. *)
val accel_skipped_bytes : t -> int

(** Subset of {!accel_skipped_bytes} consumed by SWAR-classified skip
    loops (0 when the engine was built [~swar:false]). With [stats], each
    feed also adds its delta to the [swar_skipped_bytes] counter. *)
val swar_skipped_bytes : t -> int
