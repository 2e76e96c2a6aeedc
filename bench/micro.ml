(* Bechamel micro-benchmarks of the per-symbol hot loops: one Test.make
   per engine per format, on fixed 256 KB inputs. Reports ns/run from the
   OLS fit of the monotonic clock. *)

open Streamtok
open Bechamel
open Toolkit

let make_tests () =
  let mk (g : Grammar.t) =
    let d = Grammar.dfa g in
    let fm = Flex_model.compile d in
    let engine =
      match Engine.compile d with Ok e -> e | Error _ -> assert false
    in
    let gen = Option.get (Gen_data.by_name g.Grammar.name) in
    let input = gen ~seed:Bench_common.seed_data ~target_bytes:262_144 () in
    [
      Test.make
        ~name:(g.Grammar.name ^ "/streamtok")
        (Staged.stage (fun () ->
             ignore (Engine.run_string engine input ~emit:Bench_common.emit_spans)));
      Test.make
        ~name:(g.Grammar.name ^ "/flex")
        (Staged.stage (fun () ->
             ignore (Flex_model.run fm input ~emit:Bench_common.emit_spans)));
      Test.make
        ~name:(g.Grammar.name ^ "/plex")
        (Staged.stage (fun () ->
             ignore (Backtracking.run d input ~emit:Bench_common.emit_spans)));
      Test.make
        ~name:(g.Grammar.name ^ "/extoracle")
        (Staged.stage (fun () ->
             ignore (Ext_oracle.run d input ~emit:Bench_common.emit_spans)));
    ]
  in
  Test.make_grouped ~name:"tokenize-256K" ~fmt:"%s %s"
    (List.concat_map mk [ Formats.csv; Formats.json; Formats.linux_log ])

let run () =
  Bench_common.pp_header
    "Bechamel micro-benchmarks: 256 KB tokenization (ns/run, OLS fit)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (make_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort compare
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Bench_common.record_result ~experiment:"micro" ~name:"ns_per_run"
                ~labels:[ ("test", name) ]
                est;
              Printf.printf "  %-28s %12.0f ns/run  (%6.2f MB/s)\n" name est
                (262_144.0 /. est *. 1e3)
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        rows)
    results

(* `main.exe smoke` — the bin/check.sh guardrail, ~2 s total. Verifies that
   the instrumented runner variant (a) produces a byte-identical token
   stream and outcome, (b) reports bytes_in = input length, and (c) stays
   within the overhead budget on the hot loops (both the Fig. 6 TE path —
   json, K = 3 — and the Fig. 5 table path — csv, K = 1). The measured
   overhead, target ≤2%, is printed and recorded; the hard gate is 10% so
   a noisy CI neighbor cannot fail the build spuriously. *)
let rec smoke () =
  let check (g : Streamtok.Grammar.t) =
    let d = Grammar.dfa g in
    let engine =
      match Engine.compile d with Ok e -> e | Error _ -> assert false
    in
    let gen = Option.get (Gen_data.by_name g.Grammar.name) in
    let input = gen ~seed:Bench_common.seed_data ~target_bytes:524_288 () in
    let digest run =
      let b = Buffer.create 65536 in
      let outcome =
        run ~emit:(fun ~pos ~len ~rule ->
            Buffer.add_string b (Printf.sprintf "%d:%d:%d;" pos len rule))
      in
      Buffer.add_string b
        (match outcome with
        | Engine.Finished -> "finished"
        | Engine.Failed { offset; _ } -> Printf.sprintf "failed@%d" offset);
      Digest.string (Buffer.contents b)
    in
    let stats = Streamtok.Run_stats.create () in
    let plain = digest (fun ~emit -> Engine.run_string engine input ~emit) in
    let inst =
      digest (fun ~emit ->
          Engine.run_string_instrumented engine input ~stats ~emit)
    in
    if plain <> inst then begin
      Printf.eprintf "smoke: instrumented token stream differs on %s\n"
        g.Grammar.name;
      exit 1
    end;
    if Streamtok.Run_stats.bytes_in stats <> String.length input then begin
      Printf.eprintf "smoke: bytes_in %d <> input length %d on %s\n"
        (Streamtok.Run_stats.bytes_in stats)
        (String.length input) g.Grammar.name;
      exit 1
    end;
    (* Interleave plain/instrumented rounds so clock-frequency drift and
       noisy neighbors hit both sides equally; best-of over the rounds. *)
    let st = Streamtok.Run_stats.create () in
    let t_plain = ref infinity and t_inst = ref infinity in
    for _ = 1 to 15 do
      let _, dt =
        Bench_common.time_once (fun () ->
            ignore
              (Engine.run_string engine input ~emit:Bench_common.emit_spans))
      in
      if dt < !t_plain then t_plain := dt;
      let _, dt =
        Bench_common.time_once (fun () ->
            ignore
              (Engine.run_string_instrumented engine input ~stats:st
                 ~emit:Bench_common.emit_spans))
      in
      if dt < !t_inst then t_inst := dt
    done;
    let t_plain = !t_plain and t_inst = !t_inst in
    let overhead = (t_inst -. t_plain) /. t_plain *. 100.0 in
    Printf.printf
      "  %-10s plain %7.1f MB/s  instrumented %7.1f MB/s  overhead %+5.2f%%  \
       (target <=2%%)\n"
      g.Grammar.name
      (Bench_common.throughput (String.length input) t_plain)
      (Bench_common.throughput (String.length input) t_inst)
      overhead;
    Bench_common.record_result ~experiment:"smoke"
      ~name:"instrumented_overhead_pct"
      ~labels:[ ("grammar", g.Grammar.name) ]
      overhead;
    overhead
  in
  Bench_common.pp_header
    "Smoke: instrumented runner parity + overhead (512 KB inputs)";
  let worst =
    List.fold_left
      (fun acc g -> Float.max acc (check g))
      neg_infinity
      [ Formats.json; Formats.csv ]
  in
  if worst > 10.0 then begin
    Printf.eprintf "smoke: instrumented overhead %.1f%% exceeds the 10%% gate\n"
      worst;
    exit 1
  end;
  disabled_tracer_check ();
  stream_gate ()

(* The probe contract: with tracing disabled, the traced entry points cost
   one bool load per call over the plain ones. Verified the same way as
   the instrumented runner above — digest parity, then interleaved
   best-of rounds. Target <=2%; the hard gate is 10% (the expected value
   is ~0%, so only a broken fast path can reach the gate). *)
and disabled_tracer_check () =
  Streamtok.Trace.set_enabled false;
  let g = Formats.json in
  let d = Grammar.dfa g in
  let engine =
    match Engine.compile d with Ok e -> e | Error _ -> assert false
  in
  let gen = Option.get (Gen_data.by_name g.Grammar.name) in
  let input = gen ~seed:Bench_common.seed_data ~target_bytes:524_288 () in
  let digest run =
    let b = Buffer.create 65536 in
    let outcome =
      run ~emit:(fun ~pos ~len ~rule ->
          Buffer.add_string b (Printf.sprintf "%d:%d:%d;" pos len rule))
    in
    Buffer.add_string b
      (match outcome with
      | Engine.Finished -> "finished"
      | Engine.Failed { offset; _ } -> Printf.sprintf "failed@%d" offset);
    Digest.string (Buffer.contents b)
  in
  let plain = digest (fun ~emit -> Engine.run_string engine input ~emit) in
  let traced = digest (fun ~emit -> Engine.run_string_traced engine input ~emit) in
  if plain <> traced then begin
    prerr_endline "smoke: traced token stream differs with tracing disabled";
    exit 1
  end;
  let t_plain = ref infinity and t_traced = ref infinity in
  for _ = 1 to 15 do
    let _, dt =
      Bench_common.time_once (fun () ->
          ignore (Engine.run_string engine input ~emit:Bench_common.emit_spans))
    in
    if dt < !t_plain then t_plain := dt;
    let _, dt =
      Bench_common.time_once (fun () ->
          ignore
            (Engine.run_string_traced engine input ~emit:Bench_common.emit_spans))
    in
    if dt < !t_traced then t_traced := dt
  done;
  let overhead = (!t_traced -. !t_plain) /. !t_plain *. 100.0 in
  Printf.printf
    "  %-10s plain %7.1f MB/s  traced-off    %7.1f MB/s  overhead %+5.2f%%  \
     (target <=2%%)\n"
    g.Grammar.name
    (Bench_common.throughput (String.length input) !t_plain)
    (Bench_common.throughput (String.length input) !t_traced)
    overhead;
  Bench_common.record_result ~experiment:"smoke"
    ~name:"disabled_tracer_overhead_pct"
    ~labels:[ ("grammar", g.Grammar.name) ]
    overhead;
  if overhead > 10.0 then begin
    Printf.eprintf
      "smoke: disabled-tracer overhead %.1f%% exceeds the 10%% gate\n" overhead;
    exit 1
  end

(* The stream layer against the batch runner it shares its kernel with:
   the same 512 KB json and csv inputs pushed through [Stream_tokenizer]
   (view emitter) in 64 KB chunks. Hard check: the token stream and
   outcome digest equal [Engine.run_string]'s. Then interleaved best-of-15
   rounds report stream / batch throughput — target >= 0.9, hard floor
   0.8: per-chunk work is a seam over max(K, 1) bytes, so a lower ratio
   means the chunked path grew per-byte or per-token work. *)
and stream_gate () =
  let chunk = 65_536 in
  let feed_all st input =
    let n = String.length input in
    let pos = ref 0 in
    while !pos < n do
      let len = min chunk (n - !pos) in
      Stream_tokenizer.feed st input !pos len;
      pos := !pos + len
    done;
    Stream_tokenizer.finish st
  in
  let check (g : Grammar.t) =
    let engine =
      match Engine.compile (Grammar.dfa g) with
      | Ok e -> e
      | Error _ -> assert false
    in
    let gen = Option.get (Gen_data.by_name g.Grammar.name) in
    let input = gen ~seed:Bench_common.seed_data ~target_bytes:524_288 () in
    let digest b outcome =
      Buffer.add_string b
        (match outcome with
        | Engine.Finished -> "finished"
        | Engine.Failed { offset; _ } -> Printf.sprintf "failed@%d" offset);
      Digest.string (Buffer.contents b)
    in
    let batch =
      let b = Buffer.create 65536 in
      digest b
        (Engine.run_string engine input ~emit:(fun ~pos ~len ~rule ->
             Printf.bprintf b "%d:%d:%d;" pos len rule))
    in
    let stream =
      (* views carry chunk-relative positions; tokens are contiguous, so
         the stream offset is the running sum of lengths *)
      let b = Buffer.create 65536 and off = ref 0 in
      let st =
        Stream_tokenizer.create_views engine ~emit:(fun _ _ len rule ->
            Printf.bprintf b "%d:%d:%d;" !off len rule;
            off := !off + len)
      in
      digest b (feed_all st input)
    in
    if batch <> stream then begin
      Printf.eprintf "smoke: stream token stream differs from batch on %s\n"
        g.Grammar.name;
      exit 1
    end;
    let t_batch = ref infinity and t_stream = ref infinity in
    for _ = 1 to 15 do
      let _, dt =
        Bench_common.time_once (fun () ->
            ignore
              (Engine.run_string engine input ~emit:Bench_common.emit_spans))
      in
      if dt < !t_batch then t_batch := dt;
      let _, dt =
        Bench_common.time_once (fun () ->
            ignore
              (feed_all
                 (Stream_tokenizer.create_views engine
                    ~emit:Bench_common.emit_views)
                 input))
      in
      if dt < !t_stream then t_stream := dt
    done;
    let ratio = !t_batch /. !t_stream in
    Printf.printf
      "  %-10s batch %7.1f MB/s  stream(64K)   %7.1f MB/s  ratio %5.2f  \
       (target >=0.9)\n"
      g.Grammar.name
      (Bench_common.throughput (String.length input) !t_batch)
      (Bench_common.throughput (String.length input) !t_stream)
      ratio;
    Bench_common.record_result ~experiment:"smoke" ~name:"stream_vs_batch"
      ~labels:[ ("grammar", g.Grammar.name) ]
      ratio;
    ratio
  in
  let worst =
    List.fold_left
      (fun acc g -> Float.min acc (check g))
      infinity
      [ Formats.json; Formats.csv ]
  in
  if worst < 0.8 then begin
    Printf.eprintf "smoke: stream/batch throughput %.2f below the 0.8 floor\n"
      worst;
    exit 1
  end
