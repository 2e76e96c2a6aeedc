(* Domain sharding: the engine cache under real multi-domain compile
   storms (exactly-one-compile, LRU integrity, cached failures), and the
   worker-domain pool end-to-end — socketpair handoff, token parity on
   every connection, pool-wide stats aggregation, and drain liveness. *)

open Streamtok
module W = Serve.Wire

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let json_rules = Grammar.rules Formats.json

(* Spawn [n] domains, hold them at a barrier so the racy section really
   races, run [f], join. *)
let run_domains n f =
  let started = Atomic.make 0 in
  let doms =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < n do
              Domain.cpu_relax ()
            done;
            f i))
  in
  List.iter Domain.join doms

(* ---- engine cache storms ---- *)

let test_storm_one_compile () =
  let cache = Engine_cache.create () in
  let iters = 8 in
  let engines = Array.make 4 [] in
  run_domains 4 (fun i ->
      for _ = 1 to iters do
        match Engine_cache.find_or_compile cache json_rules with
        | Ok e -> engines.(i) <- e :: engines.(i)
        | Error _ -> assert false
      done);
  check_int "exactly one compile under a 4-domain storm" 1
    (Engine_cache.compiles cache);
  check_int "every other lookup hit" ((4 * iters) - 1)
    (Engine_cache.hits cache);
  let e0 = List.hd engines.(0) in
  Array.iter
    (List.iter (fun e -> check "all domains share one engine" true (e == e0)))
    engines

let test_eviction_storm () =
  (* 4 distinct keys (flag variants) hammering a 2-entry cache from 4
     domains: evictions race with lookups, and the accounting identities
     prove no lookup was lost or double-counted (no torn LRU state). *)
  let cache = Engine_cache.create ~max_entries:2 () in
  let variants = [| (true, true); (true, false); (false, true); (false, false) |] in
  let rounds = 8 in
  run_domains 4 (fun i ->
      for r = 0 to rounds - 1 do
        let classes, accel = variants.((i + r) mod 4) in
        match Engine_cache.find_or_compile cache ~classes ~accel json_rules with
        | Ok _ -> ()
        | Error _ -> assert false
      done);
  check "resident entries bounded" true (Engine_cache.size cache <= 2);
  check_int "every lookup was a hit or a compile" (4 * rounds)
    (Engine_cache.compiles cache + Engine_cache.hits cache);
  check_int "evictions = compiles - resident"
    (Engine_cache.compiles cache - Engine_cache.size cache)
    (Engine_cache.evictions cache)

let test_cached_failure_storm () =
  (* A non-streamable grammar: the unbounded-TND analysis runs once,
     every domain gets the cached failure. *)
  let g =
    match Grammar.of_source ~name:"tnd-unbounded" "a\nb\n(a|b)*c" with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  let rules = Grammar.rules g in
  let cache = Engine_cache.create () in
  run_domains 4 (fun _ ->
      for _ = 1 to 4 do
        match Engine_cache.find_or_compile cache rules with
        | Error Engine.Unbounded_tnd -> ()
        | Ok _ -> assert false
      done);
  check_int "failure analyzed exactly once" 1 (Engine_cache.compiles cache)

(* ---- pool end-to-end over socketpairs ---- *)

let encode_reqs reqs =
  let b = Buffer.create 4096 in
  List.iter (fun r -> W.encode_request b r) reqs;
  Buffer.to_bytes b

let write_all fd b =
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write fd b !pos (n - !pos) with
    | w -> pos := !pos + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let read_all fd =
  let buf = Bytes.create 4096 in
  let out = Buffer.create 4096 in
  let rec loop () =
    match Unix.read fd buf 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out buf 0 n;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    (* a worker closing with unread request bytes resets the socket —
       for the shutdown race that is as final as a clean EOF *)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  loop ();
  Buffer.contents out

let tokens_of_stream s =
  match W.decode_all s with
  | Error msg -> Alcotest.fail ("corrupt reply stream: " ^ msg)
  | Ok frames ->
      List.concat_map
        (fun f ->
          if f.W.tag = W.tag_tokens then
            match W.reply_of_frame f with
            | Ok (W.Tokens toks) -> toks
            | _ -> Alcotest.fail "bad TOKENS frame"
          else [])
        frames

let has_error_frame s =
  match W.decode_all s with
  | Error _ -> true
  | Ok frames -> List.exists (fun f -> f.W.tag = W.tag_error) frames

let pool_counter reg name =
  let metrics = Obs.Metrics.Registry.metrics reg in
  match List.find_opt (fun m -> m.Obs.Metrics.name = name) metrics with
  | Some { Obs.Metrics.kind = Obs.Metrics.Counter c; _ } ->
      Obs.Metrics.Counter.value c
  | _ -> Alcotest.fail (Printf.sprintf "no counter %s" name)

let pool_gauge reg name =
  let metrics = Obs.Metrics.Registry.metrics reg in
  match List.find_opt (fun m -> m.Obs.Metrics.name = name) metrics with
  | Some { Obs.Metrics.kind = Obs.Metrics.Gauge g; _ } ->
      Obs.Metrics.Gauge.value g
  | _ -> Alcotest.fail (Printf.sprintf "no gauge %s" name)

(* (code, retryable) of every ERROR reply in a reply stream *)
let error_replies s =
  match W.decode_all s with
  | Error msg -> Alcotest.fail ("corrupt reply stream: " ^ msg)
  | Ok frames ->
      List.filter_map
        (fun f ->
          match W.reply_of_frame f with
          | Ok (W.Error { code; retryable; _ }) -> Some (code, retryable)
          | _ -> None)
        frames

let json_input = Gen_data.json ~seed:0x5EEDL ~target_bytes:2048 ()

let json_reqs =
  encode_reqs [ W.Open "json"; W.Feed json_input; W.Flush; W.Close ]

(* [json_input]'s tokens straight from the engine: what every session
   sent [json_reqs] must receive *)
let json_expect =
  lazy
    (let engine =
       match Engine.compile (Grammar.dfa Formats.json) with
       | Ok e -> e
       | Error _ -> assert false
     in
     let expect = ref [] in
     let tok =
       Stream_tokenizer.create engine ~emit:(fun lex rule ->
           expect := (lex, rule) :: !expect)
     in
     Stream_tokenizer.feed_string tok json_input;
     (match Stream_tokenizer.finish tok with
     | Engine.Finished -> ()
     | Engine.Failed _ -> assert false);
     List.rev !expect)

let check_parity s =
  check "no error reply" false (has_error_frame s);
  check "token parity with direct engine" true
    (tokens_of_stream s = Lazy.force json_expect)

(* A client socketpair whose server end is handed to [pool]. Reads time
   out rather than hang if no worker ever answers. *)
let inject_client pool =
  let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float cl Unix.SO_RCVTIMEO 10.;
  Serve.Shard.inject pool sv;
  cl

let test_pool_parity_and_stats () =
  let expect = Lazy.force json_expect in
  let t0 = Unix.gettimeofday () in
  let pool = Serve.Shard.create_pool ~domains:2 () in
  let reqs = json_reqs in
  let clients =
    List.init 4 (fun _ ->
        let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Serve.Shard.inject pool sv;
        cl)
  in
  (* the workload is small enough that kernel socket buffers absorb the
     replies, so plain sequential write-then-read cannot deadlock *)
  List.iter (fun cl -> write_all cl reqs) clients;
  let streams = List.map read_all clients in
  List.iter Unix.close clients;
  Serve.Shard.stop pool;
  Serve.Shard.join pool;
  List.iter
    (fun s ->
      check "no error reply" false (has_error_frame s);
      let got = tokens_of_stream s in
      check_int "token count parity" (List.length expect) (List.length got);
      check "token parity with direct engine" true (got = expect))
    streams;
  match Serve.Shard.stats pool with
  | None -> Alcotest.fail "pool published no stats"
  | Some reg ->
      (* cross-domain aggregation: 4 sessions round-robined over 2
         workers sum back to 4; the shared cache compiled json once *)
      check_int "sessions aggregated across workers" 4
        (pool_counter reg "sessions_opened");
      check_int "one compile pool-wide (shared cache)" 1
        (pool_counter reg "engine_cache_compiles");
      (* the pool's uptime, taken once, not summed over workers *)
      check "uptime within the test's wall time" true
        (pool_gauge reg "uptime_seconds" <= Unix.gettimeofday () -. t0)

let test_stop_with_inflight_handoff () =
  (* stop racing a just-injected connection: whichever side wins, the
     client must see EOF (tokens or a Shutting_down error, never a
     wedge) and join must return. *)
  let pool = Serve.Shard.create_pool ~domains:2 () in
  let reqs = encode_reqs [ W.Open "json"; W.Feed "[1, 2]"; W.Flush; W.Close ] in
  let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  write_all cl reqs;
  Serve.Shard.inject pool sv;
  Serve.Shard.stop pool;
  let s = read_all cl in
  Unix.close cl;
  Serve.Shard.join pool;
  (* liveness is the assertion: read_all and join returned. The reply
     depends on who won the race — tokens, a Shutting_down error, or a
     reset before any reply. *)
  check "connection resolved without wedging" true
    (s = "" || tokens_of_stream s <> [] || has_error_frame s)

let test_fd_ceiling () =
  (* An fd past select's FD_SETSIZE is refused at registration: one
     retryable Capacity ERROR, then EOF, and the worker it landed on
     keeps serving. 1024 is the first descriptor select cannot watch. *)
  let high : Unix.file_descr = Obj.magic 1024 in
  let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.dup2 ~cloexec:true sv high with
  | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* the descriptor limit is at or below 1024 *)
      Unix.close cl;
      Unix.close sv;
      Alcotest.skip ()
  | () -> (
      Unix.close sv;
      Unix.setsockopt_float cl Unix.SO_RCVTIMEO 10.;
      let pool = Serve.Shard.create_pool ~domains:2 () in
      Serve.Shard.inject pool high;
      let refused = read_all cl in
      Unix.close cl;
      (* round-robin puts one of these on the refusing worker *)
      let clients = List.init 2 (fun _ -> inject_client pool) in
      List.iter (fun cl -> write_all cl json_reqs) clients;
      let streams = List.map read_all clients in
      List.iter Unix.close clients;
      Serve.Shard.stop pool;
      Serve.Shard.join pool;
      check "one retryable capacity error" true
        (error_replies refused = [ (W.Capacity, true) ]);
      List.iter check_parity streams;
      match Serve.Shard.stats pool with
      | None -> Alcotest.fail "pool published no stats"
      | Some reg ->
          check_int "refusal counted" 1 (pool_counter reg "accept_fd_ceiling");
          check_int "refused fd never became a session" 2
            (pool_counter reg "sessions_opened"))

let test_slow_peers_evicted () =
  (* 300 peers that send half a FEED header and stall: the idle timeout
     evicts every one with the retryable error, and the pool still
     serves a fresh client afterwards. *)
  let n = 300 in
  let config =
    { Serve.Server.default_config with idle_timeout = 0.5; max_sessions = n }
  in
  let pool = Serve.Shard.create_pool ~config ~domains:2 () in
  let half_header = Bytes.sub (encode_reqs [ W.Feed "stalled" ]) 0 2 in
  let peers = List.init n (fun _ -> inject_client pool) in
  List.iter (fun cl -> write_all cl half_header) peers;
  let streams = List.map read_all peers in
  List.iter Unix.close peers;
  List.iter
    (fun s ->
      check "evicted with a retryable error" true
        (error_replies s = [ (W.Shutting_down, true) ]))
    streams;
  let fresh = inject_client pool in
  write_all fresh json_reqs;
  let s = read_all fresh in
  Unix.close fresh;
  Serve.Shard.stop pool;
  Serve.Shard.join pool;
  check_parity s;
  match Serve.Shard.stats pool with
  | None -> Alcotest.fail "pool published no stats"
  | Some reg ->
      check_int "every stalled peer evicted, pool-wide" n
        (pool_counter reg "sessions_evicted_idle")

let suite =
  [
    Alcotest.test_case "cache storm: exactly one compile" `Quick
      test_storm_one_compile;
    Alcotest.test_case "cache storm: eviction integrity" `Quick
      test_eviction_storm;
    Alcotest.test_case "cache storm: cached failure" `Quick
      test_cached_failure_storm;
    Alcotest.test_case "pool parity + aggregated stats" `Quick
      test_pool_parity_and_stats;
    Alcotest.test_case "stop with in-flight handoff" `Quick
      test_stop_with_inflight_handoff;
    Alcotest.test_case "fd past the select ceiling refused" `Quick
      test_fd_ceiling;
    Alcotest.test_case "slow peers evicted" `Quick test_slow_peers_evicted;
  ]
