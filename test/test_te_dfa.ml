open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build src k =
  let d = Dfa.of_grammar src in
  (d, Te_dfa.build d ~k)

let test_structure () =
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[.]" 2 in
  check_int "k stored" 2 (Te_dfa.k te);
  check "has powerstates" true (Te_dfa.num_states te >= 1);
  check_int "final count" 3 (Te_dfa.num_finals te);
  (* every final state has a dense index; non-finals have -1 *)
  for q = 0 to Dfa.size d - 1 do
    check "fidx consistent" true
      ((Te_dfa.final_index te q >= 0) = Dfa.is_final d q)
  done

(* Walk Example 19 by hand: after B reads "1.4", the token ending in the
   integer state is extendable; after "1.4..", the float token is not. *)
let test_example19_extendability () =
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[.]" 2 in
  let step_str s str =
    String.fold_left (fun s c -> Te_dfa.step te s (Char.code c)) s str
  in
  let q_int = Dfa.run d "1" in
  let q_float = Dfa.run d "1.4" in
  check "int and float states differ" true (q_int <> q_float);
  (* B has consumed "1.4" = token "1" plus its 2-symbol window *)
  let s = step_str (Te_dfa.start te) "1.4" in
  check "token 1 extendable to 1.4" true (Te_dfa.extendable te s q_int);
  (* B has consumed "1.4.." = token "1.4" plus its 2-symbol window ".." *)
  let s' = step_str (Te_dfa.start te) "1.4.." in
  check "token 1.4 not extendable" false (Te_dfa.extendable te s' q_float)

let test_eof_padding () =
  (* K=2: a completed 1-symbol extension must still be visible after one
     EOF pad; an in-progress one must die at EOF *)
  let d, te = build "ab?\nc" 1 in
  ignore d;
  ignore te;
  (* use a K=2 grammar where extension "b" completes at depth 1 *)
  let d2, te2 = build "a(bc)?\nd" 2 in
  let q_a = Dfa.run d2 "a" in
  (* window "bc": extension completes at depth 2 *)
  let s_bc =
    List.fold_left
      (fun s c -> Te_dfa.step te2 s (Char.code c))
      (Te_dfa.start te2) [ 'b'; 'c' ]
  in
  check "a extendable given bc" true (Te_dfa.extendable te2 s_bc q_a);
  (* window "b" + EOF: the extension cannot complete *)
  let s_b_eof =
    Te_dfa.step te2 (Te_dfa.step te2 (Te_dfa.start te2) (Char.code 'b'))
      Te_dfa.eof_symbol
  in
  check "a not extendable given b,EOF" false (Te_dfa.extendable te2 s_b_eof q_a);
  (* window "d"(a new token) then pad: nothing extends 'a' *)
  let s_d_eof =
    Te_dfa.step te2 (Te_dfa.step te2 (Te_dfa.start te2) (Char.code 'd'))
      Te_dfa.eof_symbol
  in
  check "a not extendable given d,EOF" false (Te_dfa.extendable te2 s_d_eof q_a)

let test_restart_tracks_all_positions () =
  (* the powerset injection means extension paths starting at every
     position are tracked simultaneously: feed a long prefix first *)
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[. ]" 2 in
  let feed s str =
    String.fold_left (fun s c -> Te_dfa.step te s (Char.code c)) s str
  in
  let q_int = Dfa.run d "77" in
  (* after a lot of leading noise, the window ".5" must still extend *)
  let s = feed (Te_dfa.start te) "12 34 77.5" in
  (* B is 2 ahead of A: A just consumed "…77", window = ".5" *)
  check "extendable after long prefix" true (Te_dfa.extendable te s q_int)

let test_non_final_state_never_extendable () =
  let d, te = build "[0-9]+\n[ ]+" 1 in
  ignore d;
  ignore te;
  (* extendable is only queried at final states; for robustness it must
     return false for non-final q (fidx = -1) *)
  let d2, te2 = build "ab\nc" 1 in
  let q_mid = Dfa.run d2 "a" in
  check "non-final not extendable" false
    (Dfa.is_final d2 q_mid
    || Te_dfa.extendable te2 (Te_dfa.start te2) q_mid)

(* Class-indexed rows: width = num_classes + 1 (EOF column last), the
   byte-level [step] is exactly [step_class] after classmap translation,
   and EOF routes to the dedicated class. *)
let test_class_indexed_rows () =
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[. ]" 2 in
  check_int "width = classes + 1" (Dfa.num_classes d + 1) (Te_dfa.width te);
  check_int "eof class is last column" (Te_dfa.width te - 1)
    (Te_dfa.eof_class te);
  let s = ref (Te_dfa.start te) in
  String.iter
    (fun c ->
      let byte = Char.code c in
      let via_byte = Te_dfa.step te !s byte in
      let via_class = Te_dfa.step_class te !s (Dfa.class_of d c) in
      check_int "step = step_class o classmap" via_class via_byte;
      s := via_byte)
    "12 34.5 ..9";
  check_int "eof_symbol routes to eof class"
    (Te_dfa.step_class te !s (Te_dfa.eof_class te))
    (Te_dfa.step te !s Te_dfa.eof_symbol)

(* 1k seeded random (grammar, input) cases: the classed Te_dfa walk must
   agree with itself under byte-level and class-level stepping, across
   corpus-sampled and fully random grammars with full-byte inputs. *)
let test_classed_step_parity_seeded () =
  let rng = Prng.create 0x7EDFAL in
  let cases = ref 0 in
  while !cases < 1000 do
    let rules =
      match Prng.int rng 2 with
      | 0 -> Fuzz.Gen.grammar rng ~cls:Fuzz.Gen.charset_bytes
      | _ -> Grammar_corpus.sample rng
    in
    let d = Dfa.of_rules rules in
    (match Tnd.max_tnd d with
    | Tnd.Finite k when k >= 1 && k <= 4 ->
        let te = Te_dfa.build d ~k in
        let input =
          Fuzz.Gen.uniform rng ~alphabet:Fuzz.Gen.byte_alphabet ~max_len:64
        in
        let s_byte = ref (Te_dfa.start te) in
        let s_cls = ref (Te_dfa.start te) in
        String.iter
          (fun c ->
            s_byte := Te_dfa.step te !s_byte (Char.code c);
            s_cls := Te_dfa.step_class te !s_cls (Dfa.class_of d c))
          input;
        if !s_byte <> !s_cls then
          Alcotest.failf "byte/class walk diverged (case %d)" !cases;
        check_int "eof agrees"
          (Te_dfa.step te !s_byte Te_dfa.eof_symbol)
          (Te_dfa.step_class te !s_cls (Te_dfa.eof_class te))
    | _ -> ());
    incr cases
  done

(* ---- pinned automata ----

   The powerstate representation is an implementation choice: the lazily
   materialized automaton must not depend on it. These values were
   recorded with the dense-bitset representation (one bit per NFA state
   per powerstate) on the same seeded inputs: the number of powerstates a
   cold run materializes, a digest of their transition and emit-bit rows
   (state numbering included), and a digest of the token stream. *)

let mini_engine () =
  let v =
    match Bpe.Vocab.load_file "vocab/mini.tiktoken" with
    | Ok v -> v
    | Error e -> Alcotest.failf "mini vocab: %s" e
  in
  match Bpe.Compiler.dfa ~audit:false v with
  | Error e -> Alcotest.failf "dfa: %s" e
  | Ok d -> (
      match Engine.compile d with
      | Ok e -> e
      | Error Engine.Unbounded_tnd -> Alcotest.fail "unbounded")

let te_of e =
  match (Engine.cursor e ~emit:(fun _ _ _ _ -> ())).St_streamtok.Cursor.mode with
  | St_streamtok.Cursor.Te te -> te
  | St_streamtok.Cursor.Table_k1 _ -> Alcotest.fail "expected the TE DFA path"

let token_list e input =
  let toks = ref [] in
  (match
     Engine.run_string e input ~emit:(fun ~pos ~len ~rule ->
         toks := (pos, len, rule) :: !toks)
   with
  | Engine.Finished -> ()
  | Engine.Failed { offset; _ } -> Alcotest.failf "failed at %d" offset);
  List.rev !toks

let token_digest toks =
  let b = Buffer.create 4096 in
  List.iter (fun (pos, len, rule) -> Printf.bprintf b "%d,%d,%d;" pos len rule) toks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let row_digest te =
  let n = Te_dfa.num_states te in
  let b = Buffer.create 4096 in
  let trans = Te_dfa.Raw.trans te in
  for i = 0 to (n * Te_dfa.Raw.width te) - 1 do
    Printf.bprintf b "%d," (Int32.to_int (Bytes.get_int32_ne trans (4 * i)))
  done;
  Buffer.add_char b '|';
  let emit_rows = Te_dfa.Raw.emit_rows te in
  for i = 0 to (n * Te_dfa.Raw.words te) - 1 do
    Printf.bprintf b "%Ld," (Bytes.get_int64_ne emit_rows (8 * i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_pinned name e input ~k ~states ~rows ~tokens =
  let tokens' = token_digest (token_list e input) in
  let te = te_of e in
  check_int (name ^ ": K") k (Te_dfa.k te);
  check_int (name ^ ": powerstates") states (Te_dfa.num_states te);
  Alcotest.(check string) (name ^ ": row digest") rows (row_digest te);
  Alcotest.(check string) (name ^ ": token digest") tokens tokens'

let test_pinned_json () =
  match Engine.compile (Grammar.dfa Formats.json) with
  | Error _ -> Alcotest.fail "json unbounded"
  | Ok e ->
      check_pinned "json" e
        (Gen_data.json ~seed:7L ~target_bytes:65536 ())
        ~k:3 ~states:52 ~rows:"6978120c3853cd899e722a87924a49da"
        ~tokens:"4ca3e2bed2dea7b50466b7e359a37fbe"

let test_pinned_mini () =
  check_pinned "mini" (mini_engine ())
    (Bpe.Trainer.gen_corpus (Prng.create 101L) 32768)
    ~k:5 ~states:7853 ~rows:"6d15d01b70b30e3afcf489fd4c7482e4"
    ~tokens:"ae3010aece545685f828938c4dbb91de"

(* The Fig. 8 grammar r_k = (a{0,k}b)|a, k = 8, on a seeded a/b string
   (b with probability 1/2): unlike mini BPE, whose powerstates are almost
   all done-pairs, this automaton keeps in-progress paths at every offset.
   Recorded with the sparse-core representation that stepped every member. *)
let test_pinned_rk () =
  let rng = Prng.create 0xF18L in
  let input =
    String.init 65536 (fun _ -> if Prng.int rng 2 = 0 then 'b' else 'a')
  in
  match Engine.compile (Grammar.dfa (Worst_case.grammar 8)) with
  | Error _ -> Alcotest.fail "r_8 unbounded"
  | Ok e ->
      check_pinned "r_8" e input ~k:8 ~states:25
        ~rows:"e459125a92b88fabc6f48879de5de1e0"
        ~tokens:"233fa41d09e07f711077dbea49bb2987"

(* Accel rows exist only for powerstates a skip loop entered: the mini BPE
   automaton never enters one, the json automaton enters a few of its
   powerstates. *)
let test_accel_rows_on_demand () =
  let mini = mini_engine () in
  ignore (token_list mini (Bpe.Trainer.gen_corpus (Prng.create 101L) 8192));
  let te = te_of mini in
  check "mini: states materialized" true (Te_dfa.num_states te > 1000);
  check_int "mini: no accel rows" 0 (Array.length (Te_dfa.accel_stops te));
  match Engine.compile (Grammar.dfa Formats.json) with
  | Error _ -> Alcotest.fail "json unbounded"
  | Ok e ->
      ignore (token_list e (Gen_data.json ~seed:7L ~target_bytes:65536 ()));
      let te = te_of e in
      let slots = Array.length (Te_dfa.accel_stops te) / 8 in
      check "json: some accel rows" true (slots > 0);
      check "json: fewer accel slots than powerstates" true
        (slots < Te_dfa.num_states te)

(* One engine shared by two domains that materialize powerstates at the
   same time (as shard workers do through the engine cache): each domain's
   tokens must equal a sequential run on a private engine. *)
let test_shared_engine_two_domains () =
  let docs =
    List.map
      (fun seed -> Bpe.Trainer.gen_corpus (Prng.create seed) 8192)
      [ 0x5eed1L; 0x5eed2L ]
  in
  let expected = List.map (token_list (mini_engine ())) docs in
  let shared = mini_engine () in
  let got =
    List.map (fun doc -> Domain.spawn (fun () -> token_list shared doc)) docs
    |> List.map Domain.join
  in
  List.iteri
    (fun i (want, got) ->
      check (Printf.sprintf "domain %d tokens = sequential run" i) true
        (want = got))
    (List.combine expected got)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "class-indexed rows" `Quick test_class_indexed_rows;
    Alcotest.test_case "classed step parity (1k seeded)" `Quick
      test_classed_step_parity_seeded;
    Alcotest.test_case "Example 19 extendability" `Quick
      test_example19_extendability;
    Alcotest.test_case "EOF padding" `Quick test_eof_padding;
    Alcotest.test_case "restart powerset" `Quick test_restart_tracks_all_positions;
    Alcotest.test_case "non-final robustness" `Quick
      test_non_final_state_never_extendable;
    Alcotest.test_case "pinned automaton: json" `Quick test_pinned_json;
    Alcotest.test_case "pinned automaton: mini BPE" `Quick test_pinned_mini;
    Alcotest.test_case "pinned automaton: r_8" `Quick test_pinned_rk;
    Alcotest.test_case "accel rows on demand" `Quick
      test_accel_rows_on_demand;
    Alcotest.test_case "shared engine, two domains" `Quick
      test_shared_engine_two_domains;
  ]
