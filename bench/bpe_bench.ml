(* BPE at vocabulary scale: the merge-table→DFA compiler against the
   reference merge-loop encoder.

   Hard checks, not just reporting: the vendored vocabulary must equal the
   trainer's output, pass the munch-consistency audit, analyze to a small
   finite max-TND, and the DFA engine's token ids must be byte-identical
   to the reference encoder on every input — batch AND chunked through
   Stream_tokenizer. Throughput mode then reports MB/s of both sides and
   the table footprint. Scalars go via STREAMTOK_BENCH_STATS into
   BENCH_bpe.json. *)

open Streamtok

let vocab_path = "test/vocab/mini.tiktoken"

let load_vocab () =
  match Bpe.Vocab.load_file vocab_path with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "bpe bench: %s: %s (run from the repo root)\n" vocab_path e;
      exit 1

let engine_ids e input =
  let ids = ref [] in
  (match Engine.run_string e input ~emit:(fun ~pos:_ ~len:_ ~rule -> ids := rule :: !ids) with
  | Engine.Finished -> ()
  | Engine.Failed { offset; _ } ->
      Printf.eprintf "bpe bench: munch failed at %d on a byte-complete vocab\n"
        offset;
      exit 1);
  List.rev !ids

let stream_ids e input chunk =
  let ids = ref [] in
  let st = Stream_tokenizer.create e ~emit:(fun _lex rule -> ids := rule :: !ids) in
  let n = String.length input in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Stream_tokenizer.feed st input !pos len;
    pos := !pos + len
  done;
  (match Stream_tokenizer.finish st with
  | Engine.Finished -> ()
  | Engine.Failed _ ->
      Printf.eprintf "bpe bench: chunked munch failed\n";
      exit 1);
  List.rev !ids

let check_parity v e input =
  let expected = Bpe.Encoder.encode v input in
  let batch = engine_ids e input in
  if batch <> expected then begin
    Printf.eprintf "bpe bench: batch ids differ from the merge loop\n";
    exit 1
  end;
  List.iter
    (fun chunk ->
      if stream_ids e input chunk <> expected then begin
        Printf.eprintf "bpe bench: %d-byte-chunk ids differ from the merge loop\n"
          chunk;
        exit 1
      end)
    [ 1; 7; 4096 ];
  List.length expected

let record name v =
  Bench_common.record_result ~experiment:"bpe" ~name
    ~labels:[ ("vocab", "mini") ]
    v

(* Memory gate: the heap a fresh engine holds per materialized TE-DFA
   powerstate after a cold pass over a seeded 32 KB corpus. A powerstate
   costs its int32 transition row (4 bytes per column), its emit-bit row,
   its key of K + 1 layer ids and its table slots; accel tables exist only
   for rows a skip loop entered. 8-byte rows, or side tables per capacity
   slot, would fail it; a dense bitset over the whole token-extension NFA
   (F·M·K + F·K bits, ~87 KB on this vocabulary) fails it by far.

   Layer gate: powerstates are keys over interned per-offset layers, which
   this vocabulary shares heavily (184 layers under 256k powerstates over
   2 MB). The cold pass's layer count is exact and repeats; more than one
   layer per [min_states_per_layer] powerstates means layers stopped being
   shared, or stepping went back to whole powersets. *)
let max_bytes_per_te_state = 2048
let min_states_per_layer = 16

let memory_gate d =
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let e =
    match Engine.compile d with
    | Ok e -> e
    | Error Engine.Unbounded_tnd -> assert false
  in
  ignore (engine_ids e (Bpe.Trainer.gen_corpus (Prng.create 101L) 32768));
  Gc.full_major ();
  let held = ((Gc.stat ()).Gc.live_words - live0) * (Sys.word_size / 8) in
  let states = Engine.te_states e in
  let layers =
    let c = Engine.cursor e ~emit:(fun _ _ _ _ -> ()) in
    match c.St_streamtok.Cursor.mode with
    | St_streamtok.Cursor.Te te -> Te_dfa.num_layers te
    | St_streamtok.Cursor.Table_k1 _ -> assert false
  in
  let per_state = held / max states 1 in
  Printf.printf
    "  memory: cold 32 KB pass -> %d powerstates over %d layers, %d heap \
     bytes held (%d B per powerstate, gate %d)\n"
    states layers held per_state max_bytes_per_te_state;
  record "te_states_cold_32k" (float_of_int states);
  record "te_layers_cold_32k" (float_of_int layers);
  record "heap_bytes_per_te_state" (float_of_int per_state);
  if per_state > max_bytes_per_te_state then begin
    Printf.eprintf
      "bpe bench: %d heap bytes per TE-DFA powerstate, above the %d-byte gate\n"
      per_state max_bytes_per_te_state;
    exit 1
  end;
  if layers * min_states_per_layer > states then begin
    Printf.eprintf
      "bpe bench: %d layers under %d TE-DFA powerstates, more than 1 per %d\n"
      layers states min_states_per_layer;
    exit 1
  end

(* Compile gate: [Bpe.Compiler.dfa] (literal rules, Thompson NFA, subset
   construction, minimization) on the vendored vocabulary, best of 3. The
   subset construction works per member edge of each DFA state (about
   0.015 s here); one that steps every member once per class, over dense
   bitsets of all NFA states, takes 0.13-0.22 s. *)
let max_dfa_build_seconds = 0.06

let dfa_build v =
  let build () =
    match Bpe.Compiler.dfa ~audit:false v with
    | Ok d -> d
    | Error e ->
        Printf.eprintf "bpe bench: %s\n" e;
        exit 1
  in
  (build (), Bench_common.time_best build)

let run ?(throughput = true) () =
  Bench_common.pp_header
    "BPE: merge-table\xe2\x86\x92DFA engine vs the reference merge-loop encoder";

  let v = load_vocab () in
  if Bpe.Vocab.tokens v <> Bpe.Vocab.tokens (Bpe.Trainer.mini ()) then begin
    Printf.eprintf
      "bpe bench: %s drifted from Trainer.mini () — regenerate with \
       `streamtok bpe train --mini -o %s`\n"
      vocab_path vocab_path;
    exit 1
  end;

  let t0 = Unix.gettimeofday () in
  (match Bpe.Compiler.audit v with
  | Ok () -> ()
  | Error w ->
      Printf.eprintf "bpe bench: vendored vocab inconsistent: %s\n"
        (Bpe.Compiler.witness_to_string w);
      exit 1);
  let audit_s = Unix.gettimeofday () -. t0 in

  let d, dfa_build_s = dfa_build v in
  let rules_s =
    Bench_common.time_best (fun () -> Bpe.Compiler.rules_of_vocab v)
  in
  let rules = Bpe.Compiler.rules_of_vocab v in
  let of_rules_s = Bench_common.time_best (fun () -> Dfa.of_rules rules) in
  let k, e, footprint, tnd_s, te_build_s =
    match Engine.compile_timed d with
    | Error Engine.Unbounded_tnd ->
        Printf.eprintf "bpe bench: finite vocabulary analyzed as unbounded\n";
        exit 1
    | Ok (e, cs) ->
        (match cs.Engine.max_tnd with
        | Tnd.Finite k when k <= 16 -> k
        | Tnd.Finite k ->
            Printf.eprintf "bpe bench: max-TND %d above the sanity cap\n" k;
            exit 1
        | Tnd.Infinite -> assert false),
        e,
        cs.Engine.footprint_bytes,
        cs.Engine.analysis_seconds,
        cs.Engine.build_seconds
  in
  Printf.printf
    "  vocab %d tokens -> DFA %d states, max-TND %d, audit %.2fs, %d-byte tables\n"
    (Bpe.Vocab.size v) (Dfa.size d) k audit_s footprint;
  Printf.printf
    "  compile chain: rules %.4fs, Dfa.of_rules %.4fs, max-TND %.4fs, TE build \
     %.4fs\n"
    rules_s of_rules_s tnd_s te_build_s;
  record "tokens" (float_of_int (Bpe.Vocab.size v));
  record "dfa_states" (float_of_int (Dfa.size d));
  record "max_tnd" (float_of_int k);
  record "audit_seconds" audit_s;
  record "footprint_bytes" (float_of_int footprint);
  record "dfa_build_seconds" dfa_build_s;
  if dfa_build_s > max_dfa_build_seconds then begin
    Printf.eprintf
      "bpe bench: Bpe.Compiler.dfa took %.3fs (best of 3), above the %.2fs gate\n"
      dfa_build_s max_dfa_build_seconds;
    exit 1
  end;

  memory_gate d;

  (* parity corpus: training-distribution text plus adversarial shapes *)
  let rng = Prng.create 0xb9eb9eL in
  let inputs =
    Bpe.Trainer.gen_corpus rng 65536
    :: String.init 512 (fun _ -> Char.chr (Prng.int rng 256))
    :: String.make 2048 'e'
    :: List.init 40 (fun _ ->
           Bpe.Trainer.gen_corpus rng (1 + Prng.int rng 300))
  in
  let tokens =
    List.fold_left (fun acc input -> acc + check_parity v e input) 0 inputs
  in
  Printf.printf
    "  parity: %d inputs, %d tokens, engine == merge loop (batch + chunked)\n"
    (List.length inputs) tokens;
  record "parity_inputs" (float_of_int (List.length inputs));

  if throughput then begin
    let input = Bpe.Trainer.gen_corpus (Prng.create 0xfa57L) (4 * 1024 * 1024) in
    let mb = float_of_int (String.length input) /. (1024. *. 1024.) in
    let t_dfa =
      Bench_common.time_best ~repeats:5 (fun () ->
          Engine.run_string e input ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()))
    in
    let t_merge =
      Bench_common.time_best ~repeats:3 (fun () -> Bpe.Encoder.encode v input)
    in
    let dfa_mb_s = mb /. t_dfa and merge_mb_s = mb /. t_merge in
    record "dfa_mb_s" dfa_mb_s;
    record "merge_mb_s" merge_mb_s;
    record "speedup" (dfa_mb_s /. merge_mb_s);
    Printf.printf "  %-12s %8.1f MB/s\n" "dfa-engine" dfa_mb_s;
    Printf.printf "  %-12s %8.1f MB/s   (%.1fx)\n" "merge-loop" merge_mb_s
      (dfa_mb_s /. merge_mb_s);
    (* the point of compiling at all: the DFA side must not lose *)
    if dfa_mb_s < merge_mb_s then begin
      Printf.eprintf "bpe bench: DFA engine slower than the merge loop\n";
      exit 1
    end
  end
