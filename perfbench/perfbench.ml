(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload against a real `streamtok serve` daemon and prints
   the end-to-end metrics (--trace 0), or the per-layer ledger (--trace 1:
   the same daemon run, then an in-process replay of the same seeded
   inputs through each layer). The last stdout line is the JSON result;
   the lines before it are details (sample counts, tails, references).
   Exits 1 on any reference mismatch, 3 when the run is invalid (the
   generator, not the daemon, set the pace), 4 when it broke off (daemon
   crash or hang-up, corrupt reply stream, a reference that fails). See
   README.md. *)

open Workload

let setups = 7

(* Validity: above this the generator, not the daemon, sets the pace. *)
let max_loadgen_cpu_frac = 0.9

type e2e = {
  setup_s : float;
  phase : Loadgen.phase;
  lat : (float * int) list;  (* the doc latencies the latency figures are over *)
  peak_rss_mb : float;
  daemon_user_s : float;
  daemon_sys_s : float;
  daemon_cpu_frac : float;
  loadgen_cpu_frac : float;
  unstolen : float;  (* share of the run's wall time the host did not steal *)
  stats : (string * float) list;
  replay : Ledger.replay;
}

(* Set up [setups] fresh daemons (timing each), then run [drive] against
   the last one, reading it from outside before and after. *)
let measure open_req drive =
  let d, setup_s, samples = Daemon.setup_median ~n:setups open_req in
  Common.detail "setup_s raw samples: %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") samples));
  let run_cpus = Daemon.pin () in
  let pid = d.Daemon.pid in
  let u0, s0 = Common.cpu_seconds pid in
  let g0 = Common.self_cpu_seconds () in
  let st0 = Common.steal_seconds () in
  let cal0 = !Daemon.cal_seconds in
  let t0 = Common.now () in
  let r, phase = drive d in
  let wall = Common.now () -. t0 in
  let cal = !Daemon.cal_seconds -. cal0 in
  (* the daemon works, and the generator generates, only in the segments *)
  let active = Loadgen.window phase in
  let u1, s1 = Common.cpu_seconds pid in
  let g1 = Common.self_cpu_seconds () in
  let st1 = Common.steal_seconds () in
  let run_cpus =
    match run_cpus with Some l -> l | None -> List.init (Array.length st0) Fun.id
  in
  let steal =
    List.fold_left
      (fun a i -> if i < Array.length st0 then Float.max a (st1.(i) -. st0.(i)) else a)
      0. run_cpus
  in
  Common.detail "host steal during the run: %.2f s on the busiest of CPUs %s, of %.2f s" steal
    (String.concat "," (List.map string_of_int run_cpus))
    wall;
  let peak_rss_mb = Common.vm_hwm_mb pid in
  Common.detail "daemon VmHWM at the end of the run: %.1f MB" peak_rss_mb;
  let stats = Daemon.stats d in
  Daemon.stop_all ();
  Daemon.unpin_self ();
  let user = u1 -. u0 and sys = s1 -. s0 in
  ( r,
    fun replay ->
      {
        setup_s;
        phase;
        lat = phase.Loadgen.lat;
        peak_rss_mb;
        daemon_user_s = user;
        daemon_sys_s = sys;
        daemon_cpu_frac = (user +. sys) /. active;
        unstolen = 1. -. (steal /. wall);
        loadgen_cpu_frac = (g1 -. g0 -. cal) /. active;
        stats;
        replay;
      } )

let run_json ~seed ~seconds =
  let docs = json_docs seed in
  let (), e =
    measure Ledger.(open_request (Grammar "json")) (fun d ->
        ((), Loadgen.json_stream ~sock:d.Daemon.sock ~docs ~seconds))
  in
  e (Ledger.json_replay docs)

let run_csv ~seed ~seconds =
  let docs = csv_docs seed in
  let prng = Streamtok.Prng.create (seed_of seed 5) in
  let (), e =
    measure Ledger.(open_request (Grammar "csv")) (fun d ->
        ((), Loadgen.csv_docs ~sock:d.Daemon.sock ~docs ~prng ~seconds))
  in
  e (Ledger.csv_replay docs)

let run_bpe ~seed ~seconds =
  let vocab = bpe_vocab () in
  let open_req = Ledger.(open_request (Bpe vocab)) in
  let src = bpe_source seed in
  let (docs, fixed), e =
    measure open_req (fun d ->
        let docs, p, fixed =
          Loadgen.bpe_ids ~sock:d.Daemon.sock ~pid:d.Daemon.pid ~open_req ~src ~seconds
        in
        ((docs, fixed), p))
  in
  let e = e (Ledger.bpe_replay vocab (List.map (fun d -> d.Loadgen.btext) docs)) in
  Loadgen.bpe_verify vocab e.phase docs;
  Common.detail "bpe-ids: the fixed docs (bytes:ms): %s"
    (String.concat " "
       (List.mapi
          (fun i l ->
            Printf.sprintf "%d:%.0f" (String.length (List.nth docs i).Loadgen.btext) (1e3 *. l))
          (Loadgen.raw_lat (List.rev fixed.Loadgen.lat))));
  { e with peak_rss_mb = fixed.Loadgen.rss_mb; lat = fixed.Loadgen.lat }

let mb_in e = float_of_int e.phase.bytes /. 1e6

(* Wall-clock figures are at the reference host speed (Common.calibrate)
   and exclude host steal: the window (and each doc's latency) is also
   scaled by the share of the run the hypervisor left to this VM, taken
   on whichever of the run's CPUs (the two pinned ones, when pinned) lost
   the most. The raw figures are printed as details. *)
let throughput e = mb_in e /. (Loadgen.ref_window e.phase *. e.unstolen)

let raw_throughput e = mb_in e /. Loadgen.window e.phase

let e2e_metrics e =
  Common.
    [
      m "setup_s" "s" e.setup_s;
      m "throughput_mb_s" "MB/s" (throughput e);
      m "doc_latency_p50_ms" "ms" (1e3 *. median (Loadgen.ref_lat e.phase e.lat) *. e.unstolen);
      m "peak_rss_mb" "MB" e.peak_rss_mb;
    ]

let main ~workload ~seed ~seconds ~trace =
  let e =
    match workload with
    | Json_stream -> run_json ~seed ~seconds
    | Csv_docs -> run_csv ~seed ~seconds
    | Bpe_ids -> run_bpe ~seed ~seconds
  in
  let p = e.phase in
  let lag_p99_ms = 1e3 *. Common.percentile p.lag 99. in
  let pct q = 1e3 *. Common.percentile (Loadgen.raw_lat e.lat) q in
  Common.detail
    "%s: docs attempted=%d completed=%d failed=%d mismatched=%d error_frac=%.6f \
     docs_per_s=%.4g"
    (name workload) p.attempted p.completed p.failed p.mismatched
    (float_of_int p.failed /. float_of_int (max 1 p.attempted))
    (float_of_int p.completed /. Loadgen.window p);
  Common.detail "raw (wall clock, steal included): throughput=%.4g MB/s" (raw_throughput e);
  Common.detail "host speed per %.0f s segment (reference = 1): %s" Loadgen.segment_s
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") (Loadgen.speeds p))));
  Common.detail "daemon CPU per input MB: %.4g ms" (1e3 *. (e.daemon_user_s +. e.daemon_sys_s) /. mb_in e);
  Common.detail "raw doc latency (n=%d): p50=%.4g p90=%.4g p99=%.4g max=%.4g ms"
    (List.length e.lat) (pct 50.) (pct 90.) (pct 99.) (pct 100.);
  Common.detail
    "loadgen.cpu_frac=%.3f loadgen.lag_p99_ms=%.4f daemon.cpu_frac=%.3f daemon user=%.2f s \
     sys=%.2f s"
    e.loadgen_cpu_frac lag_p99_ms e.daemon_cpu_frac e.daemon_user_s e.daemon_sys_s;
  if e.loadgen_cpu_frac > max_loadgen_cpu_frac then
    raise
      (Common.Invalid_run
         (Printf.sprintf "generator saturated (cpu_frac %.2f)" e.loadgen_cpu_frac));
  let metrics, ledger_ok =
    if not trace then (e2e_metrics e, true)
    else
      let l =
        Ledger.run e.replay
          ~daemon_mb_s:(raw_throughput e)
          ~stats:e.stats
          ~daemon:(e.daemon_user_s, e.daemon_sys_s, e.daemon_cpu_frac)
          ~loadgen:(e.loadgen_cpu_frac, lag_p99_ms)
      in
      (l.Ledger.metrics, l.Ledger.parity)
  in
  let correct = p.mismatched = 0 && ledger_ok && p.completed > 0 in
  Common.print_result ~correct ~attempted:p.attempted ~failed:p.failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME json-stream | csv-docs | bpe-ids");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer ledger instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match Workload.of_name !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some workload -> (
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      at_exit Daemon.stop_all;
      try main ~workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
      with
      | Common.Invalid_run why ->
          Printf.eprintf "perfbench: run invalid: %s\n%!" why;
          exit 3
      | Failure why ->
          Printf.eprintf "perfbench: run failed: %s\n%!" why;
          exit 4
      | Unix.Unix_error (e, fn, _) ->
          Printf.eprintf "perfbench: run failed: %s: %s\n%!" fn (Unix.error_message e);
          exit 4)
