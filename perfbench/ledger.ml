(* The per-layer ledger (--trace 1): the daemon run's seeded inputs
   replayed in-process through each layer's public functions, timed from
   here and recorded as St_trace spans around each call.

   Compile chain: parse -> NFA -> DFA -> max-TND -> engine tables.
   Run chain: Engine (batch) -> Stream_tokenizer (the workload's FEED
   chunking) -> Session (encode) -> Wire decode / Server via Loopback ->
   the daemon's Io_loop (from the end-to-end run). Every run-chain layer
   must produce the reference's tokens; that parity is a hard gate. *)

open Streamtok
open Streamtok.Serve

type source = Grammar of string | Bpe of Bpe.Vocab.t

(* The request that opens a session on [source]: sent to the daemon and
   replayed in-process alike. *)
let open_request = function
  | Grammar spec -> Wire.Open spec
  | Bpe v -> Wire.Open_bpe { ids = true; vocab = Bpe.Vocab.to_tiktoken v }

type replay = {
  docs : string array;
  want : Common.ref_doc array;
  chunk : int;  (* FEED size *)
  source : source;
}

let json_replay (docs : Workload.doc array) =
  {
    docs = Array.map (fun (d : Workload.doc) -> d.text) docs;
    want = Array.map (fun (d : Workload.doc) -> d.ref_) docs;
    chunk = Workload.feed_bytes;
    source = Grammar "json";
  }

(* the csv pool four times over: ~8 MB, like the json pool *)
let csv_replay (docs : Workload.doc array) =
  let docs = Array.concat [ docs; docs; docs; docs ] in
  { (json_replay docs) with chunk = max_int; source = Grammar "csv" }

let bpe_replay vocab texts =
  let docs = Array.of_list texts in
  { docs; want = Array.map (Workload.bpe_ref vocab) docs; chunk = max_int; source = Bpe vocab }

(* BPE references hash ids only; grammar references hash (rule, length). *)
let tok_hash r =
  match r.source with
  | Bpe _ -> fun h ~rule ~len:_ -> Common.mix h rule
  | Grammar _ -> Common.hash_token

let chunks r text f =
  let n = String.length text in
  let rec go pos = if pos < n then begin
      let len = min r.chunk (n - pos) in
      f pos len;
      go (pos + len)
    end
  in
  go 0

let total_bytes r = Array.fold_left (fun a d -> a + String.length d) 0 r.docs

type t = { metrics : Common.metric list; parity : bool }

let reps = 5

(* Median seconds of [reps] runs of [f], each in its own span. *)
let timed_reps probe f =
  Common.median
    (List.init reps (fun _ -> snd (Common.time (fun () -> Trace.with_span probe f))))

let run r ~daemon_mb_s ~stats ~daemon:(d_user, d_sys, d_cpu) ~loadgen:(g_cpu, g_lag_ms) =
  let bytes = float_of_int (total_bytes r) in
  let mb_s secs = bytes /. secs /. 1e6 in
  let hash = tok_hash r in
  let parity = ref true in
  let check layer got =
    Array.iteri
      (fun i (n, h) ->
        let w = r.want.(i) in
        if n <> w.Common.ntok || h <> w.Common.hash then begin
          if !parity then
            Common.detail "ledger: %s token parity FAILED on doc %d (%d tokens, want %d)"
              layer i n w.Common.ntok;
          parity := false
        end)
      got
  in
  (* the BPE compiler's audit runs on the vocabulary served by bpe-ids *)
  let audit_vocab = match r.source with Bpe v -> v | Grammar _ -> Workload.bpe_vocab () in
  Trace.configure ~capacity_events:(1 lsl 20);
  Trace.reset ();
  Trace.set_enabled true;
  let ledger_t0 = Common.now () in
  let span name = Trace.probe ~cat:"ledger" ("ledger." ^ name) in
  (* ---- compile chain ---- *)
  let parse () =
    match r.source with
    | Grammar spec -> (
        match Registry.resolve spec with
        | Ok g -> Grammar.rules g
        | Error e -> failwith e)
    | Bpe v -> (
        match Bpe.Vocab.of_string (Bpe.Vocab.to_tiktoken v) with
        | Ok v -> Bpe.Compiler.rules_of_vocab v
        | Error e -> failwith e)
  in
  let max_states = match r.source with Bpe _ -> Some Bpe.Compiler.default_max_states | Grammar _ -> None in
  let rules = parse () in
  let parse_s = timed_reps (span "parse") (fun () -> ignore (parse ())) in
  let audit_s =
    timed_reps (span "bpe.audit") (fun () -> ignore (Bpe.Compiler.audit audit_vocab))
  in
  let nfa_s = timed_reps (span "nfa") (fun () -> ignore (Nfa.of_rules rules)) in
  let dfa = Dfa.of_rules ?max_states rules in
  let dfa_s = timed_reps (span "dfa") (fun () -> ignore (Dfa.of_rules ?max_states rules)) in
  let tnd = ref (Tnd.max_tnd dfa) in
  let tnd_s = timed_reps (span "tnd") (fun () -> tnd := Tnd.max_tnd dfa) in
  let k = match !tnd with Tnd.Finite k -> float_of_int k | Tnd.Infinite -> -1. in
  let build_s =
    Common.median
      (List.init reps (fun _ ->
           Trace.with_span (span "engine.compile") (fun () ->
               match Engine.compile_timed dfa with
               | Ok (_, cs) -> cs.Engine.build_seconds
               | Error _ -> failwith "unbounded max-TND")))
  in
  (* ---- run chain: one engine, shared through the loopback server's cache ---- *)
  let lb = Loopback.create () in
  let cache = Server.cache (Loopback.server lb) in
  let e =
    match Engine_cache.find_or_compile cache ?max_states rules with
    | Ok e -> e
    | Error _ -> failwith "unbounded max-TND"
  in
  let n_docs = Array.length r.docs in
  let skipped = ref 0 and swar = ref 0 in
  let stream_pass () =
    skipped := 0;
    swar := 0;
    Array.map
      (fun text ->
        let n = ref 0 and h = ref Common.hash_basis in
        let st =
          Stream_tokenizer.create e ~emit:(fun lexeme rule ->
              incr n;
              h := hash !h ~rule ~len:(String.length lexeme))
        in
        chunks r text (fun pos len -> Stream_tokenizer.feed st text pos len);
        ignore (Stream_tokenizer.finish st);
        skipped := !skipped + Stream_tokenizer.accel_skipped_bytes st;
        swar := !swar + Stream_tokenizer.swar_skipped_bytes st;
        (!n, !h))
      r.docs
  in
  let engine_pass () =
    Array.map
      (fun text ->
        let n = ref 0 and h = ref Common.hash_basis in
        ignore
          (Engine.run_string e text ~emit:(fun ~pos:_ ~len ~rule ->
               incr n;
               h := hash !h ~rule ~len));
        (!n, !h))
      r.docs
  in
  (* a decoded TOKENS or IDS payload, folded into (count, hash) *)
  let fold_view (n, h) (v : Wire.Decoder.view) =
    let n = ref n and h = ref h in
    let res =
      if v.vtag = Wire.tag_ids then
        Wire.iter_ids_view v (fun id ->
            incr n;
            h := Common.mix !h id)
      else
        Wire.iter_tokens_view v (fun ~rule ~buf:_ ~pos:_ ~len ->
            incr n;
            h := hash !h ~rule ~len)
    in
    (match res with Ok _ -> () | Error m -> failwith m);
    (!n, !h)
  in
  let open_req = open_request r.source in
  let reply_bytes = ref 0 in
  let session_pass () =
    let s = Session.create { Session.cache; resolve = Registry.resolve } in
    ignore (Session.handle s open_req);
    reply_bytes := 0;
    Array.map
      (fun text ->
        let acc = ref (0, Common.hash_basis) in
        let drain () =
          match Session.batch s with
          | None -> ()
          | Some (ob, _) ->
              let vbuf, voff, vlen = Outbuf.view ob in
              reply_bytes := !reply_bytes + vlen;
              acc := fold_view !acc { Wire.Decoder.vtag = Session.batch_tag s; vbuf; voff; vlen };
              Session.batch_clear s
        in
        chunks r text (fun pos len ->
            ignore (Session.feed s text ~pos ~len);
            drain ());
        let replies = Session.handle s Wire.Flush in
        drain ();
        List.iter
          (function Wire.Pending { ok = true; _ } -> () | _ -> acc := (-1, 0))
          replies;
        !acc)
      r.docs
  in
  let requests = ref 0 in
  let server_pass () =
    let c = Loopback.connect lb in
    Loopback.send c open_req;
    requests := 1;
    let got =
      Array.map
        (fun text ->
          let acc = ref (0, Common.hash_basis) in
          chunks r text (fun pos len ->
              Loopback.send_feed_sub c text ~pos ~len;
              incr requests);
          Loopback.send c Wire.Flush;
          incr requests;
          Loopback.run lb;
          Loopback.drain_views c (fun v ->
              if v.vtag = Wire.tag_tokens || v.vtag = Wire.tag_ids then acc := fold_view !acc v
              else if v.vtag = Wire.tag_pending then
                (if not (fst (Conn.pending_of_view v)) then acc := (-1, 0))
              else if v.vtag = Wire.tag_error then acc := (-1, 0));
          !acc)
        r.docs
    in
    Loopback.send c Wire.Close;
    Loopback.run lb;
    got
  in
  let got, stream_cold_s =
    Common.time (fun () -> Trace.with_span (span "stream.cold") stream_pass)
  in
  check "stream (cold)" got;
  let counted layer pass probe =
    let a0 = Common.alloc_words () in
    let got = Trace.with_span probe pass in
    let words = Common.alloc_words () -. a0 in
    check layer got;
    let secs = timed_reps probe (fun () -> ignore (pass ())) in
    (secs, words /. bytes)
  in
  let engine_s, engine_alloc = counted "engine" engine_pass (span "engine") in
  let stream_s, stream_alloc = counted "stream" stream_pass (span "stream") in
  let accel_frac = float_of_int !skipped /. bytes
  and swar_frac = float_of_int !swar /. bytes in
  let session_s, session_alloc = counted "session" session_pass (span "session") in
  let reply_per_byte = float_of_int !reply_bytes /. bytes in
  let server_s, _ = counted "server" server_pass (span "server") in
  let us_per_request = server_s *. 1e6 /. float_of_int !requests in
  (* wire: decode the request stream the server pass sent, in 64 KB reads *)
  let frames =
    let b = Buffer.create (total_bytes r + 1024) in
    Array.iter
      (fun text ->
        chunks r text (fun pos len ->
            Wire.encode_request b (Wire.Feed (String.sub text pos len)));
        Wire.encode_request b Wire.Flush)
      r.docs;
    Buffer.contents b
  in
  let decode_s =
    timed_reps (span "wire.decode") (fun () ->
        let d = Wire.Decoder.create () in
        let n = String.length frames in
        let rec go pos =
          if pos < n then begin
            let len = min (64 lsl 10) (n - pos) in
            Wire.Decoder.feed d frames ~pos ~len;
            let rec views () =
              match Wire.Decoder.next_view d with
              | Wire.Decoder.View _ -> views ()
              | _ -> ()
            in
            views ();
            go (pos + len)
          end
        in
        go 0)
  in
  (* parallel tokenizer on the concatenated input, against the engine *)
  let whole = String.concat "" (Array.to_list r.docs) in
  let whole_ref =
    let n = ref 0 and h = ref Common.hash_basis in
    ignore (Engine.run_string e whole ~emit:(fun ~pos:_ ~len ~rule -> incr n; h := hash !h ~rule ~len));
    (!n, !h)
  in
  let domains = max 2 (Domain.recommended_domain_count ()) in
  let par_run nd () =
    let n = ref 0 and h = ref Common.hash_basis in
    ignore
      (Par_tokenizer.tokenize ~num_domains:nd e whole ~emit:(fun ~pos:_ ~len ~rule ->
           incr n;
           h := hash !h ~rule ~len));
    if (!n, !h) <> whole_ref then begin
      Common.detail "ledger: par (%d domains) token parity FAILED" nd;
      parity := false
    end
  in
  let par1_s = timed_reps (span "par.p1") (par_run 1) in
  let parn_s = timed_reps (span "par.pN") (par_run domains) in
  let ledger_wall = Common.now () -. ledger_t0 in
  Trace.set_enabled false;
  let report = Trace.Report.build (Trace.events ()) in
  let attributed =
    List.fold_left
      (fun a (n : Trace.Report.node) -> if n.cat = "ledger" then a + n.total_ns else a)
      0 report.Trace.Report.roots
  in
  if Trace.dropped () > 0 then Common.detail "ledger: %d trace events dropped" (Trace.dropped ());
  (* tracing overhead: the loopback server pass, traced vs untraced, interleaved *)
  let on = ref [] and off = ref [] in
  for _ = 1 to reps do
    Trace.reset ();
    Trace.set_enabled true;
    on := snd (Common.time (fun () -> Trace.with_span (span "server") server_pass)) :: !on;
    Trace.set_enabled false;
    off := snd (Common.time server_pass) :: !off
  done;
  Trace.reset ();
  let overhead = (Common.median !on /. Common.median !off) -. 1. in
  let stat name = Option.value ~default:nan (List.assoc_opt name stats) in
  let feed_batches = stat "feed_batches" in
  let direct = stat "batch_bytes_direct" and copied = stat "batch_bytes_copied" in
  let engine_mb = mb_s engine_s and stream_mb = mb_s stream_s in
  let session_mb = mb_s session_s and server_mb = mb_s server_s in
  Common.detail "ledger: %d docs, %.0f bytes, %d requests, te_states %d, wall %.2fs" n_docs
    bytes !requests (Engine.te_states e) ledger_wall;
  print_string (Trace.Report.to_text ~max_depth:2 report);
  let open Common in
  {
    parity = !parity;
    metrics =
      [
        m "parse_s" "s" parse_s;
        m "nfa.build_s" "s" nfa_s;
        m "dfa.build_s" "s" dfa_s;
        m "dfa.states" "count" (float_of_int (Dfa.size dfa));
        m "dfa.classes" "count" (float_of_int (Dfa.num_classes dfa));
        m "dfa.accel_states" "count" (float_of_int (Dfa.accel_state_count dfa));
        m "dfa.swar_states" "count" (float_of_int (Dfa.accel_swar_state_count dfa));
        m "tnd.analysis_s" "s" tnd_s;
        m "tnd.k" "count" k;
        m "bpe.audit_s" "s" audit_s;
        m "engine.compile_s" "s" build_s;
        m "engine.mb_s" "MB/s" engine_mb;
        m "engine.alloc_words_per_byte" "words/B" engine_alloc;
        m "te_dfa.states" "count" (float_of_int (Engine.te_states e));
        m "te_dfa.footprint_bytes" "B" (float_of_int (Engine.footprint_bytes e));
        m "te_dfa.materialize_s" "s" (stream_cold_s -. stream_s);
        m "stream.mb_s" "MB/s" stream_mb;
        m "stream.cold_mb_s" "MB/s" (mb_s stream_cold_s);
        m "stream.alloc_words_per_byte" "words/B" stream_alloc;
        m "stream.accel_skip_frac" "fraction" accel_frac;
        m "stream.swar_skip_frac" "fraction" swar_frac;
        m "stream.vs_engine" "ratio" (stream_mb /. engine_mb);
        m "session.mb_s" "MB/s" session_mb;
        m "session.alloc_words_per_byte" "words/B" session_alloc;
        m "session.reply_bytes_per_byte" "B/B" reply_per_byte;
        m "session.vs_stream" "ratio" (session_mb /. stream_mb);
        m "wire.decode_mb_s" "MB/s" (float_of_int (String.length frames) /. decode_s /. 1e6);
        m "server.mb_s" "MB/s" server_mb;
        m "server.us_per_request" "us" us_per_request;
        m "server.vs_session" "ratio" (server_mb /. session_mb);
        m "server.feed_batches" "count" feed_batches;
        m "server.frames_per_batch" "ratio" (stat "feeds" /. feed_batches);
        m "server.decoder_copies" "count" (stat "decoder_copies");
        m "server.writevs" "count" (stat "writevs");
        m "server.batch_copied_frac" "fraction" (copied /. (direct +. copied));
        m "engine_cache.compiles" "count" (stat "engine_cache_compiles");
        m "engine_cache.hits" "count" (stat "engine_cache_hits");
        m "daemon.user_cpu_s" "s" d_user;
        m "daemon.sys_cpu_s" "s" d_sys;
        m "daemon.cpu_frac" "fraction" d_cpu;
        m "io.vs_server" "ratio" (daemon_mb_s /. server_mb);
        m "par.mb_s_p1" "MB/s" (mb_s par1_s);
        m "par.mb_s_pN" "MB/s" (mb_s parn_s);
        m "par.speedup" "ratio" (par1_s /. parn_s);
        m "loadgen.cpu_frac" "fraction" g_cpu;
        m "loadgen.lag_p99_ms" "ms" g_lag_ms;
        m "trace.overhead_frac" "fraction" overhead;
        m "trace.attributed_frac" "fraction"
          (float_of_int attributed *. 1e-9 /. ledger_wall);
      ];
  }
