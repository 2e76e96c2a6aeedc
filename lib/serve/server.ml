open St_obs
open St_streamtok

type config = {
  max_sessions : int;
  idle_timeout : float;
  max_out_bytes : int;
  out_frame_bytes : int;
  cache_entries : int;
  clock : unit -> float;
}

let default_config =
  {
    max_sessions = 64;
    idle_timeout = 300.0;
    max_out_bytes = 1 lsl 20;
    out_frame_bytes = 1 lsl 20;
    cache_entries = 64;
    clock = Unix.gettimeofday;
  }

type phase = Active | Draining

type conn = {
  id : int;
  session : Session.t;
  dec : Wire.Decoder.t;
  out : Outbuf.t;
  hdr : Bytes.t;  (* 5-byte scratch: the deferred batch's frame header *)
  mutable deferred : bool;
      (* the session encoder holds a finished batch that has not been
         framed yet; it is written in place by the writev path
         ([out_vectors]) or materialized into [out] on demand *)
  mutable last_activity : float;
  mutable phase : phase;
}

type conn_id = int

(* most segments one gathered FEED run hands the tokenizer *)
let max_gather = 64

type t = {
  cfg : config;
  cache : Engine_cache.t;
  conns : (int, conn) Hashtbl.t;
  scratch : Buffer.t;
  segs : (string * int * int) array;  (* gathered-FEED scratch *)
  started : float;
  mutable next_id : int;
  mutable is_draining : bool;
  mutable stats_hook : (unit -> Metrics.Registry.t) option;
  (* counters; snapshotted by stats_registry *)
  mutable opened_total : int;
  mutable closed_total : int;
  mutable rejected_total : int;
  mutable evicted_idle_total : int;
  mutable proto_errors_total : int;
  mutable lexical_errors_total : int;
  mutable bytes_in_total : int;
  mutable bytes_out_total : int;
  mutable tokens_total : int;
  mutable feeds_total : int;
  mutable feed_batches_total : int;
  mutable flushes_total : int;
  mutable writevs_total : int;
  mutable accept_exhausted_total : int;
  mutable fd_ceiling_total : int;
  mutable batch_bytes_direct : int;
  mutable batch_bytes_copied : int;
  mutable peak_sessions : int;
  mutable decoder_copies_closed : int;
      (* copies accumulated by decoders of connections already removed *)
  feed_ns : Metrics.Histogram.t;
}

let create ?cache ?(config = default_config) () =
  {
    cfg = config;
    cache =
      (match cache with
      | Some c -> c
      | None -> Engine_cache.create ~max_entries:config.cache_entries ());
    conns = Hashtbl.create 32;
    scratch = Buffer.create 4096;
    segs = Array.make max_gather ("", 0, 0);
    started = config.clock ();
    next_id = 0;
    is_draining = false;
    stats_hook = None;
    opened_total = 0;
    closed_total = 0;
    rejected_total = 0;
    evicted_idle_total = 0;
    proto_errors_total = 0;
    lexical_errors_total = 0;
    bytes_in_total = 0;
    bytes_out_total = 0;
    tokens_total = 0;
    feeds_total = 0;
    feed_batches_total = 0;
    flushes_total = 0;
    writevs_total = 0;
    accept_exhausted_total = 0;
    fd_ceiling_total = 0;
    batch_bytes_direct = 0;
    batch_bytes_copied = 0;
    peak_sessions = 0;
    decoder_copies_closed = 0;
    feed_ns = Metrics.Histogram.create ();
  }

let config t = t.cfg
let cache t = t.cache
let set_stats_hook t f = t.stats_hook <- Some f

let conn t id =
  match Hashtbl.find_opt t.conns id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Server: unknown conn %d" id)

let sessions t =
  Hashtbl.fold (fun _ c n -> if c.phase = Active then n + 1 else n) t.conns 0

let decoder_copies t =
  Hashtbl.fold
    (fun _ c n -> n + Wire.Decoder.copies c.dec)
    t.conns t.decoder_copies_closed

let p_enqueue = St_trace.Trace.probe ~cat:"flush" "serve.enqueue"
let p_on_data = St_trace.Trace.probe ~cat:"decode" "serve.on_data"

(* The batched flush path, copied flavor: the session's scratch encoder
   already holds ready-to-send TOKENS records, so materializing the
   batch is one header poke plus one blit into the connection's out
   queue. Also clears a deferral: a pending batch must be framed before
   anything else is enqueued behind it, and before [out_view] exposes
   the queue to single-buffer transports. *)
let flush_tokens_untraced t c =
  match Session.batch c.session with
  | None -> c.deferred <- false
  | Some (enc, n) ->
      c.deferred <- false;
      t.tokens_total <- t.tokens_total + n;
      let bytes = 5 + Outbuf.length enc in
      t.bytes_out_total <- t.bytes_out_total + bytes;
      t.batch_bytes_copied <- t.batch_bytes_copied + bytes;
      Outbuf.add_frame c.out ~tag:(Session.batch_tag c.session) enc;
      Session.batch_clear c.session

let flush_tokens t c =
  if not !St_trace.Trace.on then flush_tokens_untraced t c
  else begin
    St_trace.Trace.begin_span p_enqueue;
    flush_tokens_untraced t c;
    St_trace.Trace.end_span p_enqueue
  end

let enqueue_untraced t c reply =
  (* frame order: a deferred token batch precedes any later reply *)
  flush_tokens_untraced t c;
  Buffer.clear t.scratch;
  Wire.encode_reply t.scratch reply;
  t.bytes_out_total <- t.bytes_out_total + Buffer.length t.scratch;
  Outbuf.add_buffer c.out t.scratch

(* Reply encode + out-queue append — the cold reply path. Token batches
   do not come through here (see [flush_tokens]). *)
let enqueue t c reply =
  if not !St_trace.Trace.on then enqueue_untraced t c reply
  else begin
    St_trace.Trace.begin_span p_enqueue;
    enqueue_untraced t c reply;
    St_trace.Trace.end_span p_enqueue
  end

let resolve_spec spec = St_grammars.Registry.resolve spec

(* ---- events ---- *)

let on_connect t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let c =
    {
      id;
      session = Session.create { cache = t.cache; resolve = resolve_spec };
      dec = Wire.Decoder.create ();
      out = Outbuf.create ();
      hdr = Bytes.create 5;
      deferred = false;
      last_activity = t.cfg.clock ();
      phase = Active;
    }
  in
  Hashtbl.replace t.conns id c;
  if t.is_draining then begin
    c.phase <- Draining;
    t.rejected_total <- t.rejected_total + 1;
    enqueue t c
      (Wire.Error
         {
           code = Wire.Shutting_down;
           retryable = true;
           message = "server is draining; retry elsewhere";
         })
  end
  else if sessions t > t.cfg.max_sessions then begin
    c.phase <- Draining;
    t.rejected_total <- t.rejected_total + 1;
    enqueue t c
      (Wire.Error
         {
           code = Wire.Capacity;
           retryable = true;
           message =
             Printf.sprintf "session table full (%d); retry later"
               t.cfg.max_sessions;
         })
  end
  else begin
    t.opened_total <- t.opened_total + 1;
    let live = sessions t in
    if live > t.peak_sessions then t.peak_sessions <- live
  end;
  id

let fatal_reply = function
  | Wire.Error { code = Wire.Protocol | Wire.Bad_grammar; _ } -> true
  | _ -> false

let count_replies t replies =
  List.iter
    (fun r ->
      match r with
      | Wire.Tokens toks -> t.tokens_total <- t.tokens_total + List.length toks
      | Wire.Error { code = Wire.Lexical; _ } ->
          t.lexical_errors_total <- t.lexical_errors_total + 1
      | Wire.Error { code = Wire.Protocol; _ } ->
          t.proto_errors_total <- t.proto_errors_total + 1
      | _ -> ())
    replies

(* ---- stats ---- *)

type totals = {
  tot_sessions : int;
  tot_peak : int;
  tot_opened : int;
  tot_closed : int;
  tot_rejected : int;
  tot_evicted_idle : int;
  tot_proto_errors : int;
  tot_lexical_errors : int;
  tot_bytes_in : int;
  tot_bytes_out : int;
  tot_tokens : int;
  tot_feeds : int;
  tot_feed_batches : int;
  tot_flushes : int;
  tot_writevs : int;
  tot_accept_exhausted : int;
  tot_fd_ceiling : int;
  tot_batch_bytes_direct : int;
  tot_batch_bytes_copied : int;
  tot_decoder_copies : int;
  tot_feed_ns : Metrics.Histogram.t;
  tot_cache_compiles : int;
  tot_cache_hits : int;
  tot_cache_evictions : int;
  tot_cache_entries : int;
  tot_uptime : float;
}

let totals t =
  {
    tot_sessions = sessions t;
    tot_peak = t.peak_sessions;
    tot_opened = t.opened_total;
    tot_closed = t.closed_total;
    tot_rejected = t.rejected_total;
    tot_evicted_idle = t.evicted_idle_total;
    tot_proto_errors = t.proto_errors_total;
    tot_lexical_errors = t.lexical_errors_total;
    tot_bytes_in = t.bytes_in_total;
    tot_bytes_out = t.bytes_out_total;
    tot_tokens = t.tokens_total;
    tot_feeds = t.feeds_total;
    tot_feed_batches = t.feed_batches_total;
    tot_flushes = t.flushes_total;
    tot_writevs = t.writevs_total;
    tot_accept_exhausted = t.accept_exhausted_total;
    tot_fd_ceiling = t.fd_ceiling_total;
    tot_batch_bytes_direct = t.batch_bytes_direct;
    tot_batch_bytes_copied = t.batch_bytes_copied;
    tot_decoder_copies = decoder_copies t;
    tot_feed_ns = Metrics.Histogram.copy t.feed_ns;
    tot_cache_compiles = Engine_cache.compiles t.cache;
    tot_cache_hits = Engine_cache.hits t.cache;
    tot_cache_evictions = Engine_cache.evictions t.cache;
    tot_cache_entries = Engine_cache.size t.cache;
    tot_uptime = t.cfg.clock () -. t.started;
  }

(* Fold worker snapshots into one pool-wide view. The workers share one
   engine cache, so every snapshot reports the same cache counters: they
   are taken once (max, the freshest snapshot) rather than summed.
   [tot_peak] sums per-worker peaks — an upper bound on the true
   pool-wide concurrent peak, which no worker can observe alone. *)
let sum_totals = function
  | [] -> invalid_arg "Server.sum_totals: empty"
  | first :: rest ->
      let acc =
        ref { first with tot_feed_ns = Metrics.Histogram.copy first.tot_feed_ns }
      in
      List.iter
        (fun x ->
          let a = !acc in
          Metrics.Histogram.merge a.tot_feed_ns x.tot_feed_ns;
          acc :=
            {
              a with
              tot_sessions = a.tot_sessions + x.tot_sessions;
              tot_peak = a.tot_peak + x.tot_peak;
              tot_opened = a.tot_opened + x.tot_opened;
              tot_closed = a.tot_closed + x.tot_closed;
              tot_rejected = a.tot_rejected + x.tot_rejected;
              tot_evicted_idle = a.tot_evicted_idle + x.tot_evicted_idle;
              tot_proto_errors = a.tot_proto_errors + x.tot_proto_errors;
              tot_lexical_errors = a.tot_lexical_errors + x.tot_lexical_errors;
              tot_bytes_in = a.tot_bytes_in + x.tot_bytes_in;
              tot_bytes_out = a.tot_bytes_out + x.tot_bytes_out;
              tot_tokens = a.tot_tokens + x.tot_tokens;
              tot_feeds = a.tot_feeds + x.tot_feeds;
              tot_feed_batches = a.tot_feed_batches + x.tot_feed_batches;
              tot_flushes = a.tot_flushes + x.tot_flushes;
              tot_writevs = a.tot_writevs + x.tot_writevs;
              tot_accept_exhausted =
                a.tot_accept_exhausted + x.tot_accept_exhausted;
              tot_fd_ceiling = a.tot_fd_ceiling + x.tot_fd_ceiling;
              tot_batch_bytes_direct =
                a.tot_batch_bytes_direct + x.tot_batch_bytes_direct;
              tot_batch_bytes_copied =
                a.tot_batch_bytes_copied + x.tot_batch_bytes_copied;
              tot_decoder_copies = a.tot_decoder_copies + x.tot_decoder_copies;
              tot_cache_compiles = max a.tot_cache_compiles x.tot_cache_compiles;
              tot_cache_hits = max a.tot_cache_hits x.tot_cache_hits;
              tot_cache_evictions =
                max a.tot_cache_evictions x.tot_cache_evictions;
              tot_cache_entries = max a.tot_cache_entries x.tot_cache_entries;
              tot_uptime = Float.max a.tot_uptime x.tot_uptime;
            })
        rest;
      !acc

let registry_of_totals tot =
  let r = Metrics.Registry.create () in
  let gauge name help v =
    Metrics.Gauge.set (Metrics.Registry.gauge r ~help name) v
  in
  let counter name help v =
    Metrics.Counter.add (Metrics.Registry.counter r ~help name) v
  in
  gauge "sessions" "active sessions" (float_of_int tot.tot_sessions);
  gauge "sessions_peak" "peak concurrent sessions"
    (float_of_int tot.tot_peak);
  counter "sessions_opened" "connections accepted as sessions" tot.tot_opened;
  counter "sessions_closed" "sessions ended (any reason)" tot.tot_closed;
  counter "sessions_rejected" "connections rejected at capacity or drain"
    tot.tot_rejected;
  counter "sessions_evicted_idle" "sessions evicted by the idle timeout"
    tot.tot_evicted_idle;
  counter "bytes_in" "FEED payload bytes" tot.tot_bytes_in;
  counter "bytes_out" "reply frame bytes enqueued" tot.tot_bytes_out;
  counter "tokens" "tokens emitted" tot.tot_tokens;
  counter "feeds" "FEED frames processed" tot.tot_feeds;
  counter "feed_batches" "coalesced FEED batches flushed" tot.tot_feed_batches;
  counter "flushes" "FLUSH frames processed" tot.tot_flushes;
  counter "writevs" "vectored socket writes consumed" tot.tot_writevs;
  counter "accept_fd_exhausted"
    "accepts refused for lack of file descriptors (EMFILE/ENFILE); the \
     listener pauses"
    tot.tot_accept_exhausted;
  counter "accept_fd_ceiling"
    "connections refused because their descriptor number is past select's \
     FD_SETSIZE (1024)"
    tot.tot_fd_ceiling;
  counter "batch_bytes_direct"
    "token-batch frame bytes written in place by writev (no out-queue blit)"
    tot.tot_batch_bytes_direct;
  counter "batch_bytes_copied"
    "token-batch frame bytes blitted through the out queue"
    tot.tot_batch_bytes_copied;
  counter "decoder_copies"
    "receive-buffer compaction copies (frames straddling a read)"
    tot.tot_decoder_copies;
  counter "protocol_errors" "fatal protocol errors" tot.tot_proto_errors;
  counter "lexical_errors" "streams that stopped tokenizing"
    tot.tot_lexical_errors;
  Metrics.Registry.add r
    {
      Metrics.name = "feed_latency_ns";
      help = "per-FEED-batch handling latency, nanoseconds (log2 buckets)";
      labels = [];
      kind = Metrics.Histogram tot.tot_feed_ns;
    };
  counter "engine_cache_compiles" "grammar compiles (cache misses)"
    tot.tot_cache_compiles;
  counter "engine_cache_hits" "engine cache hits" tot.tot_cache_hits;
  counter "engine_cache_evictions" "engines evicted from the cache"
    tot.tot_cache_evictions;
  gauge "engine_cache_entries" "resident compiled engines"
    (float_of_int tot.tot_cache_entries);
  gauge "uptime_seconds" "seconds since server start" tot.tot_uptime;
  r

let note_accept_exhausted t =
  t.accept_exhausted_total <- t.accept_exhausted_total + 1

let refuse_fd_ceiling t =
  t.fd_ceiling_total <- t.fd_ceiling_total + 1;
  Buffer.clear t.scratch;
  Wire.encode_reply t.scratch
    (Wire.Error
       {
         code = Wire.Capacity;
         retryable = true;
         message = "server out of pollable descriptors; retry later";
       });
  Buffer.contents t.scratch

let stats_registry_impl t = registry_of_totals (totals t)

(* Non-FEED requests (FEED has its own coalesced path in [on_data]). *)
let dispatch t c (req : Wire.request) =
  match req with
  | Wire.Stats fmt ->
      let registry =
        match t.stats_hook with
        | Some f -> f ()
        | None -> stats_registry_impl t
      in
      let body =
        match fmt with
        | Wire.Json -> Export.to_json_string registry
        | Wire.Prom -> Export.to_prometheus registry
      in
      enqueue t c (Wire.Metrics { format = fmt; body })
  | Wire.Close -> c.phase <- Draining
  | Wire.Open _ | Wire.Open_bpe _ | Wire.Flush | Wire.Feed _ ->
      (match req with
      | Wire.Flush -> t.flushes_total <- t.flushes_total + 1
      | _ -> ());
      let replies = Session.handle c.session req in
      flush_tokens t c;
      count_replies t replies;
      List.iter (enqueue t c) replies;
      if List.exists fatal_reply replies then c.phase <- Draining

let protocol_failure t c msg =
  t.proto_errors_total <- t.proto_errors_total + 1;
  enqueue t c
    (Wire.Error { code = Wire.Protocol; retryable = false; message = msg });
  c.phase <- Draining

(* The coalescing decode loop. Consecutive FEED frames form one batch:
   their payload views are gathered (decoder views stay valid across
   [next_view]) and handed to the tokenizer as one [Session.feed_views]
   call — zero-copy, one call's overhead for the whole run. Accumulated
   TOKENS records are flushed as a single frame when the batch ends — at
   a non-FEED frame, a session error, or when the pending frame would
   exceed [out_frame_bytes]. A batch still pending when buffered input
   runs out is {e deferred}: the encoder keeps it and the transport
   writes it in place ([out_vectors]), skipping the out-queue blit. The
   batch is also the latency unit: two clock reads per batch, not per
   frame. *)
let on_data_untraced t id b ~pos ~len =
  let c = conn t id in
  if c.phase = Active then begin
    c.last_activity <- t.cfg.clock ();
    Wire.Decoder.feed_bytes c.dec b ~pos ~len;
    let batch_t0 = ref 0.0 in
    let in_batch = ref false in
    let end_batch ~defer =
      if !in_batch then begin
        in_batch := false;
        (if defer then
           (match Session.batch c.session with
           | Some _ -> c.deferred <- true
           | None -> ())
         else flush_tokens t c);
        t.feed_batches_total <- t.feed_batches_total + 1;
        Metrics.Histogram.observe_seconds t.feed_ns
          (t.cfg.clock () -. !batch_t0)
      end
    in
    let stash = ref None in
    let continue = ref true in
    while !continue && c.phase = Active do
      let next =
        match !stash with
        | Some v ->
            stash := None;
            Wire.Decoder.View v
        | None -> Wire.Decoder.next_view c.dec
      in
      match next with
      | Wire.Decoder.View_need_more -> continue := false
      | Wire.Decoder.View_corrupt msg ->
          end_batch ~defer:false;
          protocol_failure t c msg
      | Wire.Decoder.View v ->
          if v.Wire.Decoder.vtag = Wire.tag_feed then begin
            if not !in_batch then begin
              in_batch := true;
              batch_t0 := t.cfg.clock ()
            end;
            (* Gather the run of buffered FEED frames, bounded so one
               run's token output lands near [out_frame_bytes]. The
               decoder never moves bytes between feeds, so every view
               of the run stays valid until the tokenizer has consumed
               it. *)
            let nsegs = ref 0 in
            let acc = ref 0 in
            let push (v : Wire.Decoder.view) =
              t.feeds_total <- t.feeds_total + 1;
              t.bytes_in_total <- t.bytes_in_total + v.Wire.Decoder.vlen;
              t.segs.(!nsegs) <-
                ( (* the tokenizer copies what it keeps, so handing it
                     the decoder's buffer as an immutable string is
                     safe *)
                  Bytes.unsafe_to_string v.Wire.Decoder.vbuf,
                  v.Wire.Decoder.voff,
                  v.Wire.Decoder.vlen );
              incr nsegs;
              acc := !acc + v.Wire.Decoder.vlen
            in
            push v;
            let gathering = ref true in
            while
              !gathering && !nsegs < max_gather
              && !acc < t.cfg.out_frame_bytes
            do
              match Wire.Decoder.next_view c.dec with
              | Wire.Decoder.View v2
                when v2.Wire.Decoder.vtag = Wire.tag_feed ->
                  push v2
              | Wire.Decoder.View v2 ->
                  stash := Some v2;
                  gathering := false
              | Wire.Decoder.View_need_more -> gathering := false
              | Wire.Decoder.View_corrupt _ ->
                  (* poisoned decoders repeat the error; the outer loop
                     reports it after this run is fed *)
                  gathering := false
            done;
            let replies = Session.feed_views c.session t.segs !nsegs in
            match replies with
            | [] -> (
                match Session.batch c.session with
                | Some (enc, _)
                  when Outbuf.length enc >= t.cfg.out_frame_bytes ->
                    (* cap the frame size; the latency batch stays open *)
                    flush_tokens t c
                | _ -> ())
            | replies ->
                end_batch ~defer:false;
                count_replies t replies;
                List.iter (enqueue t c) replies;
                if List.exists fatal_reply replies then c.phase <- Draining
          end
          else begin
            end_batch ~defer:false;
            let f =
              {
                Wire.tag = v.Wire.Decoder.vtag;
                payload = Wire.Decoder.view_string v;
              }
            in
            match Wire.request_of_frame f with
            | Error msg -> protocol_failure t c msg
            | Ok req -> dispatch t c req
          end
    done;
    end_batch ~defer:true
  end

(* Root span of the server-side data plane: everything from raw input
   bytes to enqueued reply bytes happens inside one on_data call, so this
   span (with wire.decode / session.* / serve.enqueue nested in it)
   carries the full decode-to-flush attribution for a byte. *)
let on_data t id b ~pos ~len =
  if not !St_trace.Trace.on then on_data_untraced t id b ~pos ~len
  else begin
    St_trace.Trace.begin_span p_on_data;
    match on_data_untraced t id b ~pos ~len with
    | () -> St_trace.Trace.end_span p_on_data
    | exception exn ->
        St_trace.Trace.end_span p_on_data;
        raise exn
  end

let remove t id =
  match Hashtbl.find_opt t.conns id with
  | None -> ()
  | Some c ->
      t.decoder_copies_closed <-
        t.decoder_copies_closed + Wire.Decoder.copies c.dec;
      Hashtbl.remove t.conns id;
      t.closed_total <- t.closed_total + 1

let on_eof t id = remove t id
let on_closed t id = remove t id

let evict t c ~message =
  t.evicted_idle_total <- t.evicted_idle_total + 1;
  enqueue t c
    (Wire.Error { code = Wire.Shutting_down; retryable = true; message });
  c.phase <- Draining

let on_tick t =
  if t.cfg.idle_timeout > 0.0 then begin
    let now = t.cfg.clock () in
    Hashtbl.iter
      (fun _ c ->
        if c.phase = Active && now -. c.last_activity > t.cfg.idle_timeout
        then
          evict t c
            ~message:
              (Printf.sprintf "idle for more than %gs; session evicted"
                 t.cfg.idle_timeout))
      t.conns
  end

(* ---- queries ---- *)

let deferred_bytes c =
  if not c.deferred then 0
  else
    match Session.batch c.session with
    | Some (enc, _) -> 5 + Outbuf.length enc
    | None -> 0

let pending_of c = Outbuf.length c.out + deferred_bytes c

let wants_read t id =
  let c = conn t id in
  c.phase = Active && pending_of c <= t.cfg.max_out_bytes

(* Single-buffer transports (loopback, tests) get the deferred batch
   materialized; only [out_vectors] keeps it in place. *)
let out_view t id =
  let c = conn t id in
  if c.deferred then flush_tokens_untraced t c;
  Outbuf.view c.out

let out_consume t id n = Outbuf.consume (conn t id).out n
let out_pending t id = pending_of (conn t id)

let poke_hdr hdr plen tag =
  Bytes.unsafe_set hdr 0 (Char.unsafe_chr ((plen lsr 24) land 0xff));
  Bytes.unsafe_set hdr 1 (Char.unsafe_chr ((plen lsr 16) land 0xff));
  Bytes.unsafe_set hdr 2 (Char.unsafe_chr ((plen lsr 8) land 0xff));
  Bytes.unsafe_set hdr 3 (Char.unsafe_chr (plen land 0xff));
  Bytes.unsafe_set hdr 4 (Char.unsafe_chr (tag land 0xff))

let out_vectors t id vecs =
  let c = conn t id in
  let k = ref 0 in
  let buf, pos, len = Outbuf.view c.out in
  if len > 0 then begin
    vecs.(0) <- (buf, pos, len);
    k := 1
  end;
  (if c.deferred then
     match Session.batch c.session with
     | None -> c.deferred <- false
     | Some (enc, _) ->
         let plen = Outbuf.length enc in
         poke_hdr c.hdr plen (Session.batch_tag c.session);
         vecs.(!k) <- (c.hdr, 0, 5);
         incr k;
         let eb, ep, el = Outbuf.view enc in
         vecs.(!k) <- (eb, ep, el);
         incr k);
  !k

let out_vec_consume t id n =
  let c = conn t id in
  t.writevs_total <- t.writevs_total + 1;
  let ol = Outbuf.length c.out in
  if n <= ol then Outbuf.consume c.out n
  else begin
    Outbuf.consume c.out ol;
    let written = n - ol in
    match Session.batch c.session with
    | None -> invalid_arg "Server.out_vec_consume: no deferred batch"
    | Some (enc, ntoks) ->
        let frame = 5 + Outbuf.length enc in
        if written > frame then invalid_arg "Server.out_vec_consume";
        t.tokens_total <- t.tokens_total + ntoks;
        t.bytes_out_total <- t.bytes_out_total + frame;
        t.batch_bytes_direct <- t.batch_bytes_direct + written;
        c.deferred <- false;
        if written < frame then begin
          (* Short write mid-frame: the unwritten tail (header remainder
             + encoder suffix) moves to the out queue so the next
             writable event resumes exactly where the socket stopped. *)
          t.batch_bytes_copied <- t.batch_bytes_copied + (frame - written);
          if written < 5 then Outbuf.add_subbytes c.out c.hdr written (5 - written);
          let skip = if written > 5 then written - 5 else 0 in
          let eb, ep, el = Outbuf.view enc in
          Outbuf.add_subbytes c.out eb (ep + skip) (el - skip)
        end;
        Session.batch_clear c.session
  end

let should_close t id =
  let c = conn t id in
  c.phase = Draining && pending_of c = 0

let conn_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.conns []

let next_deadline t =
  if t.cfg.idle_timeout <= 0.0 then None
  else
    Hashtbl.fold
      (fun _ c acc ->
        if c.phase <> Active then acc
        else
          let dl = c.last_activity +. t.cfg.idle_timeout in
          match acc with Some d when d <= dl -> acc | _ -> Some dl)
      t.conns None

let drain t =
  if not t.is_draining then begin
    t.is_draining <- true;
    Hashtbl.iter
      (fun _ c ->
        if c.phase = Active then begin
          enqueue t c
            (Wire.Error
               {
                 code = Wire.Shutting_down;
                 retryable = true;
                 message = "server shutting down";
               });
          c.phase <- Draining
        end)
      t.conns
  end

let draining t = t.is_draining
let live_conns t = Hashtbl.length t.conns
let stats_registry t = stats_registry_impl t
