(* Extension: parallel StreamTok scaling (the paper's §8 future work).
   Speculative segment tokenization + splice over OCaml 5 domains.
   Quote-free formats splice at every boundary and scale; quote-delimited
   formats lose segments to quote-parity misspeculation. *)

open Streamtok

let domain_counts = [ 1; 2; 4; 8 ]

let run ?(size_mb = 8) () =
  Bench_common.pp_header
    (Printf.sprintf
       "Extension: parallel StreamTok throughput (MB/s) on %d MB streams"
       size_mb);
  Printf.printf
    "(this machine exposes %d core(s); with 1 core the sweep measures the \
     overhead of speculation + splice, not scaling: see EXPERIMENTS.md)\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%-10s" "format";
  List.iter (fun p -> Printf.printf "%9s" (Printf.sprintf "p=%d" p)) domain_counts;
  Printf.printf "%12s %12s\n" "spliced@8" "sync-tok@8";
  List.iter
    (fun (g : Grammar.t) ->
      let gen = Option.get (Gen_data.by_name g.Grammar.name) in
      let input =
        gen ~seed:Bench_common.seed_data
          ~target_bytes:(size_mb * Bench_common.mb) ()
      in
      let e =
        match Engine.compile (Grammar.dfa g) with
        | Ok e -> e
        | Error _ -> assert false
      in
      (* warm the lazy token-extension DFA so workers share hot tables *)
      ignore
        (Engine.run_string e (String.sub input 0 65536)
           ~emit:Bench_common.emit_spans);
      Printf.printf "%-10s" g.Grammar.name;
      let last_stats = ref None in
      List.iter
        (fun p ->
          let dt =
            Bench_common.time_best ~repeats:2 (fun () ->
                let _, stats =
                  Par_tokenizer.tokenize ~num_domains:p e input
                    ~emit:Bench_common.emit_spans
                in
                if p = 8 then last_stats := Some stats)
          in
          Printf.printf "%9.1f"
            (Bench_common.throughput (String.length input) dt))
        domain_counts;
      (match !last_stats with
      | Some s ->
          Printf.printf "%10d/7 %12d" s.Par_tokenizer.spliced
            s.Par_tokenizer.sync_tokens
      | None -> ());
      print_newline ())
    [ Formats.tsv; Formats.linux_log; Formats.fasta; Formats.csv; Formats.json ];
  Bench_common.pp_note
    "(measured on 2 cores, p=2 runs slower than p=1 on every format, \
     tsv/log/fasta included although their segments always splice: the \
     speculative pass, the splice re-emission and a domain spawn per call \
     cost more than the second core returns; csv/json also lose \
     segments to quote-parity misspeculation. See EXPERIMENTS.md.)"
