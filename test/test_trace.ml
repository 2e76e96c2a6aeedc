(* st_trace: ring-buffer semantics (wraparound keeps the newest window and
   counts drops), span-tree folding (nesting, orphan ends, unclosed spans),
   the Chrome trace-event serialization (pinned golden + roundtrip), the
   binary capture roundtrip, and deterministic state-heat top-N from the
   instrumented engine. Tests restore tracer state: everything here runs
   in the same process as the rest of the suite. *)

open Streamtok
module T = Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Synthetic events, oldest first. *)
let ev ?(cat = "misc") ?(arg = 0) ?(tid = 0) kind name ts_ns =
  { T.Ev.name; cat; kind; ts_ns; arg; tid }

let with_tracer ~capacity f =
  T.set_enabled false;
  T.configure ~capacity_events:capacity;
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.configure ~capacity_events:65536;
      T.reset ())
    f

(* ---- ring buffer ---- *)

let test_ring_wraparound () =
  (* 16 is the smallest ring configure allows *)
  with_tracer ~capacity:16 (fun () ->
      let p = T.probe ~cat:"test" "ring.ctr" in
      T.set_enabled true;
      for i = 0 to 19 do
        T.counter p i
      done;
      T.set_enabled false;
      let evs = T.events () in
      check_int "ring keeps capacity" 16 (List.length evs);
      check_int "drop counter" 4 (T.dropped ());
      (* the survivors are the newest window, still oldest-first *)
      check "newest window" true
        (List.map (fun e -> e.T.Ev.arg) evs = List.init 16 (fun i -> i + 4));
      List.iter
        (fun e ->
          check_str "name" "ring.ctr" e.T.Ev.name;
          check_str "cat" "test" e.T.Ev.cat;
          check "kind" true (e.T.Ev.kind = T.Ev.Counter))
        evs;
      T.reset ();
      check_int "reset clears events" 0 (List.length (T.events ()));
      check_int "reset clears drops" 0 (T.dropped ()))

let test_disabled_emits_nothing () =
  with_tracer ~capacity:16 (fun () ->
      let p = T.probe ~cat:"test" "ring.off" in
      check "disabled" false (T.enabled ());
      T.begin_span p;
      T.instant p;
      T.counter p 3;
      T.end_span p;
      check_int "no events recorded" 0 (List.length (T.events ())))

let test_with_span_exception () =
  with_tracer ~capacity:16 (fun () ->
      let p = T.probe ~cat:"test" "ring.exn" in
      T.set_enabled true;
      (try T.with_span p (fun () -> failwith "boom") with Failure _ -> ());
      T.set_enabled false;
      match T.events () with
      | [ b; e ] ->
          check "begin" true (b.T.Ev.kind = T.Ev.Begin);
          check "end emitted on exception" true (e.T.Ev.kind = T.Ev.End)
      | l -> Alcotest.failf "expected 2 events, got %d" (List.length l))

(* ---- span-tree report ---- *)

let test_report_nesting () =
  let r =
    T.Report.build
      [
        ev ~cat:"a" T.Ev.Begin "outer" 1_000;
        ev ~cat:"b" T.Ev.Begin "inner" 2_000;
        ev ~cat:"b" T.Ev.End "inner" 3_000;
        ev ~cat:"a" T.Ev.End "outer" 5_000;
      ]
  in
  check_int "wall" 4_000 r.T.Report.wall_ns;
  check_int "attributed = root total" 4_000 r.T.Report.attributed_ns;
  (match r.T.Report.roots with
  | [ o ] ->
      check_str "root" "outer" o.T.Report.name;
      check_int "outer total" 4_000 o.T.Report.total_ns;
      check_int "outer self" 3_000 o.T.Report.self_ns;
      check_int "outer count" 1 o.T.Report.count;
      (match o.T.Report.children with
      | [ i ] ->
          check_str "child" "inner" i.T.Report.name;
          check_int "inner total" 1_000 i.T.Report.total_ns
      | _ -> Alcotest.fail "expected one child")
  | _ -> Alcotest.fail "expected one root");
  check "by_cat self times" true
    (List.sort compare r.T.Report.by_cat
    = [ ("a", 3_000); ("b", 1_000) ]);
  check "attribution pct" true (abs_float (T.Report.attribution_pct r -. 100.) < 1e-9)

let test_report_orphan_end () =
  (* an end with no matching open span is ignored *)
  let r =
    T.Report.build
      [
        ev T.Ev.End "ghost" 100;
        ev T.Ev.Begin "a" 200;
        ev T.Ev.End "a" 300;
        ev T.Ev.End "ghost" 400;
      ]
  in
  (match r.T.Report.roots with
  | [ a ] ->
      check_str "only real span survives" "a" a.T.Report.name;
      check_int "total" 100 a.T.Report.total_ns
  | l -> Alcotest.failf "expected one root, got %d" (List.length l));
  check_int "attributed ignores orphans" 100 r.T.Report.attributed_ns

let test_report_mismatched_end_unwinds () =
  (* ending "outer" while "inner" is still open closes both at that ts *)
  let r =
    T.Report.build
      [
        ev T.Ev.Begin "outer" 100;
        ev T.Ev.Begin "inner" 200;
        ev T.Ev.End "outer" 400;
      ]
  in
  match r.T.Report.roots with
  | [ o ] ->
      check_int "outer total" 300 o.T.Report.total_ns;
      (match o.T.Report.children with
      | [ i ] -> check_int "inner closed at outer end" 200 i.T.Report.total_ns
      | _ -> Alcotest.fail "expected inner child")
  | _ -> Alcotest.fail "expected one root"

let test_report_unclosed_span () =
  (* spans still open at the end of the stream close at the last ts *)
  let r =
    T.Report.build
      [ ev T.Ev.Begin "a" 100; ev T.Ev.Instant "mark" 700 ]
  in
  (match r.T.Report.roots with
  | [ a ] -> check_int "closed at last ts" 600 a.T.Report.total_ns
  | _ -> Alcotest.fail "expected one root");
  (* instants/counters aggregate into the counters list *)
  check "instant counted" true
    (List.exists
       (fun (n, count, _) -> n = "mark" && count = 1)
       r.T.Report.counters)

let test_report_threads_merge () =
  (* identical paths from two threads merge into one node *)
  let r =
    T.Report.build
      [
        ev ~tid:0 T.Ev.Begin "work" 0;
        ev ~tid:1 T.Ev.Begin "work" 100;
        ev ~tid:0 T.Ev.End "work" 1_000;
        ev ~tid:1 T.Ev.End "work" 1_100;
      ]
  in
  check_int "threads" 2 r.T.Report.threads;
  match r.T.Report.roots with
  | [ w ] ->
      check_int "merged count" 2 w.T.Report.count;
      check_int "summed total" 2_000 w.T.Report.total_ns
  | _ -> Alcotest.fail "expected one merged root"

(* ---- Chrome trace-event JSON ---- *)

let golden_events =
  [
    ev ~cat:"engine" T.Ev.Begin "engine.run" 1_000;
    ev ~cat:"engine" T.Ev.End "engine.run" 4_500;
    ev ~cat:"session" ~tid:1 T.Ev.Instant "cache.hit" 5_000;
    ev ~cat:"io" ~arg:42 T.Ev.Counter "queue.depth" 6_250;
  ]

let test_chrome_golden () =
  (* Pinned serialization: timestamps are microseconds relative to the
     first event; B/E/i/C phases; instants get scope "t", counters their
     value under args. *)
  let expected =
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
    ^ "{\"name\":\"engine.run\",\"cat\":\"engine\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0},"
    ^ "{\"name\":\"engine.run\",\"cat\":\"engine\",\"ph\":\"E\",\"ts\":3.5,\"pid\":0,\"tid\":0},"
    ^ "{\"name\":\"cache.hit\",\"cat\":\"session\",\"ph\":\"i\",\"ts\":4,\"pid\":0,\"tid\":1,\"s\":\"t\"},"
    ^ "{\"name\":\"queue.depth\",\"cat\":\"io\",\"ph\":\"C\",\"ts\":5.25,\"pid\":0,\"tid\":0,\"args\":{\"value\":42}}"
    ^ "]}"
  in
  check_str "golden" expected (T.Chrome.to_string golden_events)

let test_chrome_roundtrip () =
  let heat =
    [
      {
        T.Heat.label = "json";
        states = 2;
        bytes = 1_000;
        rows =
          [
            { T.Heat.state = 1; visits = 900; skipped = 50; stop_bytes = 12; rule = 0; accel = true };
            { T.Heat.state = 0; visits = 100; skipped = 0; stop_bytes = 0; rule = -1; accel = false };
          ];
      };
    ]
  in
  let s = T.Chrome.to_string ~heat golden_events in
  match T.Chrome.of_string s with
  | Error msg -> Alcotest.failf "chrome parse: %s" msg
  | Ok (evs, heat') ->
      (* relative µs timestamps survive as relative ns *)
      let rel = List.map (fun e -> { e with T.Ev.ts_ns = e.T.Ev.ts_ns - 1_000 }) golden_events in
      check "events roundtrip" true (evs = rel);
      check "heat roundtrips" true (heat' = heat)

let test_chrome_parse_errors () =
  check "garbage rejected" true (Result.is_error (T.Chrome.of_string "nope"));
  check "non-object rejected" true (Result.is_error (T.Chrome.of_string "[1,2]"))

(* ---- binary capture ---- *)

let test_bin_roundtrip () =
  let heat =
    [
      {
        T.Heat.label = "words";
        states = 1;
        bytes = 64;
        rows = [ { T.Heat.state = 0; visits = 64; skipped = 0; stop_bytes = 3; rule = 1; accel = true } ];
      };
    ]
  in
  let s = T.Bin.to_string ~heat golden_events in
  check "magic sniff" true (T.Bin.is_binary s);
  check "json is not binary" false (T.Bin.is_binary (T.Chrome.to_string golden_events));
  match T.Bin.of_string s with
  | Error msg -> Alcotest.failf "bin parse: %s" msg
  | Ok (evs, heat') ->
      check "events roundtrip exactly" true (evs = golden_events);
      check "heat roundtrips" true (heat' = heat)

let test_bin_truncated () =
  let s = T.Bin.to_string golden_events in
  check "truncation detected" true
    (Result.is_error (T.Bin.of_string (String.sub s 0 (String.length s - 3))))

(* ---- state heat ---- *)

let words_engine () =
  match
    Engine.compile_rules (Parser.parse_grammar "[a-z][a-z]*\n[ ][ ]*")
  with
  | Ok e -> e
  | Error _ -> assert false

let words_input () =
  let rng = Prng.create 0x7EA7L in
  let b = Buffer.create 65536 in
  while Buffer.length b < 65536 do
    for _ = 1 to 2 + Prng.int rng 10 do
      Buffer.add_char b (Char.chr (Char.code 'a' + Prng.int rng 26))
    done;
    Buffer.add_char b ' '
  done;
  Buffer.contents b

let heat_of_run e input =
  let stats = Run_stats.create () in
  Run_stats.enable_state_heat stats ~states:(Dfa.size (Engine.dfa e));
  ignore
    (Engine.run_string_instrumented e input ~stats
       ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
  Engine.heat_table ~label:"words" e stats

let test_heat_topn_deterministic () =
  let e = words_engine () in
  let input = words_input () in
  let t1 = heat_of_run e input and t2 = heat_of_run e input in
  check "identical tables across runs" true (t1 = t2);
  let top = T.Heat.top ~n:3 t1 in
  check "top returns rows" true (List.length top > 0);
  (* counts account for the whole input: visits + skipped = bytes *)
  let consumed =
    List.fold_left (fun a r -> a + r.T.Heat.visits + r.T.Heat.skipped) 0 t1.T.Heat.rows
  in
  check_int "every byte counted once" (String.length input) consumed;
  (* ordering: descending by visits + skipped, ties by state id *)
  let keys = List.map (fun r -> (-(r.T.Heat.visits + r.T.Heat.skipped), r.T.Heat.state)) top in
  check "sorted" true (keys = List.sort compare keys);
  (* the word-body state dominates and is accelerable *)
  match top with
  | hot :: _ ->
      check "hottest state is hot" true (hot.T.Heat.visits + hot.T.Heat.skipped > 30_000);
      check "hottest state accelerable" true hot.T.Heat.accel;
      check "stop bytes: everything but a-z" true (hot.T.Heat.stop_bytes = 256 - 26)
  | [] -> Alcotest.fail "empty top"

let test_heat_instrumented_parity () =
  (* heat counting must not perturb the token stream *)
  let e = words_engine () in
  let input = words_input () in
  let toks run =
    let acc = ref [] in
    ignore (run ~emit:(fun ~pos ~len ~rule -> acc := (pos, len, rule) :: !acc));
    List.rev !acc
  in
  let plain = toks (fun ~emit -> Engine.run_string e input ~emit) in
  let heat =
    toks (fun ~emit ->
        let stats = Run_stats.create () in
        Run_stats.enable_state_heat stats ~states:(Dfa.size (Engine.dfa e));
        Engine.run_string_instrumented e input ~stats ~emit)
  in
  check "token streams identical" true (plain = heat)

(* Goldens: the exact heat rows of the instrumented runners on a Fig. 5
   input (words, K = 1) and a Fig. 6 input (seeded json, K = 3), recorded
   when each algorithm still had its own heat copy of the loop. Rows are
   (state, visits, skipped, stop_bytes, rule, accel). Any drift in skip
   entry, visit counting or the stamped heat kernel shows up here. *)
let words_heat_golden =
  [
    (0, 0, 0, 0, -1, false);
    (1, 0, 0, 0, -1, true);
    (2, 8716, 0, 0, 1, false);
    (3, 25270, 31559, 230, 0, true);
  ]

let json_heat_golden =
  [
    (0, 0, 0, 0, -1, false);
    (1, 0, 0, 0, -1, true);
    (2, 1886, 0, 252, 0, true);
    (3, 5774, 1168, 2, -1, true);
    (4, 1281, 0, 0, 6, false);
    (5, 0, 0, 0, -1, false);
    (6, 1117, 0, 246, 8, true);
    (7, 602, 0, 0, 5, false);
    (8, 205, 0, 0, 3, false);
    (9, 205, 0, 0, 4, false);
    (10, 153, 0, 0, -1, false);
    (11, 306, 0, 0, -1, false);
    (12, 162, 0, 0, -1, false);
    (13, 202, 0, 0, 1, false);
    (14, 202, 0, 0, 2, false);
    (15, 947, 0, 0, 7, false);
    (16, 0, 0, 0, -1, false);
    (17, 85, 0, 0, -1, false);
    (18, 19, 0, 0, -1, false);
    (19, 153, 0, 0, -1, false);
    (20, 306, 0, 0, -1, false);
    (21, 162, 0, 0, -1, false);
    (22, 225, 0, 246, 8, true);
    (23, 19, 0, 0, -1, false);
    (24, 19, 0, 246, 8, true);
    (25, 153, 0, 0, -1, false);
    (26, 306, 0, 0, -1, false);
    (27, 162, 0, 0, -1, false);
    (28, 153, 0, 0, -1, false);
    (29, 306, 0, 0, 11, false);
    (30, 162, 0, 0, 9, false);
    (31, 153, 0, 0, 10, false);
  ]

let json_heat_input () = Gen_data.json ~seed:0x4EA7L ~target_bytes:16384 ()

let heat_rows (t : T.Heat.table) =
  List.map
    (fun (r : T.Heat.row) ->
      (r.state, r.visits, r.skipped, r.stop_bytes, r.rule, r.accel))
    t.rows

let test_heat_goldens () =
  let row_strings =
    List.map (fun (q, v, s, b, r, a) -> Printf.sprintf "%d %d %d %d %d %b" q v s b r a)
  in
  let golden name e input rows =
    let t = heat_of_run e input in
    Alcotest.(check (list string))
      (name ^ " heat rows") (row_strings rows)
      (row_strings (heat_rows t));
    (* visits + skipped = bytes: every byte is counted exactly once *)
    check_int
      (name ^ " every byte counted once")
      (String.length input)
      (List.fold_left (fun a (_, v, s, _, _, _) -> a + v + s) 0 (heat_rows t))
  in
  golden "words" (words_engine ()) (words_input ()) words_heat_golden;
  let e =
    match Engine.compile (Grammar.dfa Formats.json) with
    | Ok e -> e
    | Error _ -> assert false
  in
  check "json runs the Fig. 6 kernel" true (Engine.k e = 3);
  golden "json" e (json_heat_input ()) json_heat_golden

let test_heat_json_roundtrip () =
  let t = heat_of_run (words_engine ()) (words_input ()) in
  match T.Heat.of_json (T.Heat.to_json t) with
  | Ok t' -> check "heat json roundtrip" true (t = t')
  | Error msg -> Alcotest.failf "heat json: %s" msg

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "disabled tracer emits nothing" `Quick
      test_disabled_emits_nothing;
    Alcotest.test_case "with_span on exception" `Quick test_with_span_exception;
    Alcotest.test_case "report nesting" `Quick test_report_nesting;
    Alcotest.test_case "report orphan end" `Quick test_report_orphan_end;
    Alcotest.test_case "report mismatched end unwinds" `Quick
      test_report_mismatched_end_unwinds;
    Alcotest.test_case "report unclosed span" `Quick test_report_unclosed_span;
    Alcotest.test_case "report merges threads" `Quick test_report_threads_merge;
    Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
    Alcotest.test_case "chrome roundtrip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "chrome parse errors" `Quick test_chrome_parse_errors;
    Alcotest.test_case "bin roundtrip" `Quick test_bin_roundtrip;
    Alcotest.test_case "bin truncated" `Quick test_bin_truncated;
    Alcotest.test_case "heat top-N deterministic" `Quick
      test_heat_topn_deterministic;
    Alcotest.test_case "heat parity" `Quick test_heat_instrumented_parity;
    Alcotest.test_case "heat json roundtrip" `Quick test_heat_json_roundtrip;
    Alcotest.test_case "heat goldens (K = 1 and TE)" `Quick test_heat_goldens;
  ]
