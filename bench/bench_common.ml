(* Shared plumbing for the evaluation harness. All experiments print the
   rows/series of the corresponding paper table or figure; EXPERIMENTS.md
   records paper-reported vs measured values. Stream sizes are scaled down
   from the paper's GB-scale runs to fit a CI-sized time budget; shapes
   (who wins, by what factor, where crossovers fall) are what we compare. *)

open Streamtok

let mb = 1_000_000

(* Fixed seeds: every experiment is reproducible. *)
let seed_data = 0xDA7AL
let seed_corpus = 0xC0DEDL

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best-of-r timing; r adapts so fast functions get more repetitions. *)
let time_best ?(repeats = 3) f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, dt = time_once f in
    if dt < !best then best := dt
  done;
  !best

let throughput bytes seconds = float_of_int bytes /. 1e6 /. seconds

(* A sink that cannot be optimized away. *)
let live = ref 0
let emit_spans ~pos ~len ~rule = live := !live lxor (pos + len + rule)
let emit_strings (lex : string) rule = live := !live lxor (String.length lex + rule)
let emit_views (_ : string) pos len rule = live := !live lxor (pos + len + rule)

(* The seven tools of RQ3 (paper §6 baseline list), over a prepared
   grammar. [`Streaming] tools process the input through the chunked /
   buffered path where it matters; here we time the in-memory hot loops,
   and Fig. 11a separately charges buffer management to both streaming
   tools. *)
type tool = {
  tool_name : string;
  run : string -> unit;  (* tokenize input, emitting to the live sink *)
  streaming : bool;
}

let tools_for (g : Grammar.t) : tool list =
  let d = Grammar.dfa g in
  let fm = Flex_model.compile d in
  let engine =
    match Engine.compile d with
    | Ok e -> Some e
    | Error Engine.Unbounded_tnd -> None
  in
  let greedy = Greedy.compile (Grammar.rules g) in
  let comb = Comb_tokenizers.by_name g.Grammar.name in
  let base =
    [
      Option.map
        (fun e ->
          {
            tool_name = "streamtok";
            run = (fun s -> ignore (Engine.run_string e s ~emit:emit_spans));
            streaming = true;
          })
        engine;
      Some
        {
          tool_name = "flex";
          run = (fun s -> ignore (Flex_model.run fm s ~emit:emit_spans));
          streaming = true;
        };
      Some
        {
          tool_name = "plex";
          run = (fun s -> ignore (Backtracking.run d s ~emit:emit_spans));
          streaming = false;
        };
      Some
        {
          tool_name = "reps";
          run = (fun s -> ignore (Reps.run d s ~emit:emit_spans));
          streaming = false;
        };
      Option.map
        (fun rules ->
          {
            tool_name = "nom";
            run = (fun s -> ignore (Comb.tokenize rules s ~emit:emit_spans));
            streaming = false;
          })
        comb;
      Some
        {
          tool_name = "regex";
          run = (fun s -> ignore (Greedy.run greedy s ~emit:emit_spans));
          streaming = false;
        };
      Some
        {
          tool_name = "extoracle";
          run = (fun s -> ignore (Ext_oracle.run d s ~emit:emit_spans));
          streaming = false;
        };
    ]
  in
  List.filter_map Fun.id base

let pp_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let pp_note note = Printf.printf "%s\n" note

(* Machine-diffable results. Experiments record scalar series with
   [record_result] alongside their human-readable tables; when
   STREAMTOK_BENCH_STATS names a file, main.exe dumps everything recorded
   as the st_obs JSON schema (the same one `streamtok tokenize --stats`
   emits), so bench output can be diffed across PRs without scraping
   stdout. *)
let bench_stats = Obs.Metrics.Registry.create ()

let record_result ~experiment ~name ?(labels = []) value =
  Obs.Metrics.Gauge.set
    (Obs.Metrics.Registry.gauge bench_stats
       ~labels:(("experiment", experiment) :: labels)
       name)
    value

let dump_stats () =
  match Sys.getenv_opt "STREAMTOK_BENCH_STATS" with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Export.to_json_string bench_stats);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\n[bench stats written to %s]\n" path
