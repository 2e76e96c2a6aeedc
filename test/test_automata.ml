open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_nfa_structure () =
  let rules = Parser.parse_grammar "a+\nb" in
  let nfa = Nfa.of_rules rules in
  check "has states" true (nfa.Nfa.num_states > 2);
  let finals =
    Array.to_list nfa.Nfa.accept_rule |> List.filter (fun r -> r >= 0)
  in
  check_int "one accept per rule" 2 (List.length finals)

let test_dfa_basic () =
  let d = Dfa.of_grammar "[0-9]\n[ ]" in
  (* Fig. 1 left: start, reject, space-final, digit-final *)
  check_int "four states" 4 (Dfa.size d);
  let q_digit = Dfa.run d "5" in
  check_int "digit rule" 0 (Dfa.accept_rule d q_digit);
  let q_space = Dfa.run d " " in
  check_int "space rule" 1 (Dfa.accept_rule d q_space);
  check "digit-digit rejects" false (Dfa.is_final d (Dfa.run d "55"));
  let coacc = Dfa.co_accessible d in
  check "reject state detected" true (Dfa.is_reject d coacc (Dfa.run d "xx"))

let test_dfa_priority () =
  (* equal-length match must take least rule index *)
  let d = Dfa.of_grammar "ab\na[b]" in
  let q = Dfa.run d "ab" in
  check_int "least rule wins" 0 (Dfa.accept_rule d q)

let test_dfa_totality () =
  let d = Dfa.of_grammar "abc" in
  (* every state has a transition for every byte *)
  let ok = ref true in
  for q = 0 to Dfa.size d - 1 do
    for c = 0 to 255 do
      let q' = Dfa.step d q (Char.chr c) in
      if q' < 0 || q' >= Dfa.size d then ok := false
    done
  done;
  check "total" true !ok

let test_max_states_cap () =
  let rules = Parser.parse_grammar "[0-9]+(\\.[0-9]+)?\n[ \\t]+\n[a-z]+" in
  (* The cap binds during subset construction, before minimization, so
     measure against the unminimized size: a cap at exactly that size
     succeeds and builds the identical automaton; one state less must
     abort with a Failure naming the cap. *)
  let d = Dfa.of_rules ~minimize:false rules in
  let capped = Dfa.of_rules ~minimize:false ~max_states:(Dfa.size d) rules in
  check_int "cap = size succeeds" (Dfa.size d) (Dfa.size capped);
  (match Dfa.of_rules ~minimize:false ~max_states:(Dfa.size d - 1) rules with
  | exception Failure msg ->
      check "message names the cap" true
        (contains msg (string_of_int (Dfa.size d - 1)))
  | _ -> Alcotest.fail "expected Failure from exceeded cap");
  (* The cap threads through the engine compile path too. *)
  match Engine.compile_rules ~max_states:1 rules with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure from Engine.compile_rules cap"

let mini_vocab () =
  match Bpe.Vocab.load_file "vocab/mini.tiktoken" with
  | Ok v -> v
  | Error e -> Alcotest.failf "mini vocab: %s" e

(* A BPE-sized cap: the mini vocabulary's unminimized DFA has a few
   hundred states, so the cap fires deep inside the construction. *)
let test_max_states_cap_bpe () =
  let v = mini_vocab () in
  let n =
    Dfa.size (Dfa.of_rules ~minimize:false (Bpe.Compiler.rules_of_vocab v))
  in
  check "BPE-sized" true (n > 100);
  (match Bpe.Compiler.dfa ~audit:false ~max_states:n v with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cap = size failed: %s" e);
  match Bpe.Compiler.dfa ~audit:false ~max_states:(n - 1) v with
  | Ok _ -> Alcotest.fail "expected Error from exceeded cap"
  | Error msg ->
      check "message names the cap" true
        (contains msg (Printf.sprintf "exceeded %d states" (n - 1)))

(* ---- pinned tokenization DFAs ----

   The subset construction's internal set representation is an
   implementation choice; the automaton it yields must not depend on it.
   These MD5s cover start, classmap, trans and accept (state numbering
   included) and were recorded with the dense-bitset construction, which
   stepped the whole set once per (state, class) pair. Each entry pins the
   unminimized and the minimized build. *)

let dfa_digest (d : Dfa.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d|%s|" d.Dfa.start d.Dfa.classmap;
  Array.iter (Printf.bprintf b "%d,") d.Dfa.trans;
  Buffer.add_char b '|';
  Array.iter (Printf.bprintf b "%d,") d.Dfa.accept;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_dfas =
  [
    ("json", "371784e71a8b3f086f9b12efd3c790e3",
      "ab8ad909c9e1dccbcbba91617be6ebb1");
    ("csv", "48eae9669bf464f7a55763e8eb399972",
      "429d08ba7f708582237eee392e79541a");
    ("csv-rfc4180", "de102795302e27e09121d1310765ef2c",
      "6466c9cdb5a34ca7b34046dbd459c8c8");
    ("tsv", "4bb7d17bf69739caa5aad43614fea48e",
      "cc5d52535bfc5cb9cd1fc9073e74c154");
    ("xml", "f5874fc1e935b22c8a96f5cb4c43c7e4",
      "725801f879875edf181c104d83c8b99d");
    ("yaml", "d86aca93a436d9b076b762ec981e9a98",
      "d7c4bdf19cbebac8c00ba0dd462b3175");
    ("fasta", "7252969b4e5663e2d80266c0839e6d7a",
      "0a199a156f98cdf4e4a40f322874b98b");
    ("dns-zone", "97c2152cf5b05940949bdb170a257eaf",
      "10ad73083cadd6dd982d90affd819993");
    ("log", "f5bd57209482a405d108103afb4efec6",
      "2a32b1c29fa2e71776a28eb65c67e940");
    ("android", "9f205c678de048c05a95817e8135c29e",
      "dd0d3ce1ad9bea56d569842e8e4fb3ff");
    ("apache", "10d1f1c967f7a85ba7832f00665f0191",
      "b8a35ec610bd6cdc7c775515f9656737");
    ("bgl", "309ecbb82e127b6a1d0309e77b39355e",
      "0c7fe9ad196f7decfcc701de24a1dd88");
    ("hadoop", "9f205c678de048c05a95817e8135c29e",
      "dd0d3ce1ad9bea56d569842e8e4fb3ff");
    ("hdfs", "ed793246b48471ae5e5b3c521c367ae1",
      "05a1afdae661fc527d75eb6605dbb607");
    ("linux", "10d1f1c967f7a85ba7832f00665f0191",
      "b8a35ec610bd6cdc7c775515f9656737");
    ("mac", "01de2eaa07fb23d6a56af3a3e9fee4e1",
      "0a5e428156af6252a553ff1ceb2df3fc");
    ("nginx", "9c55e8eb0238377e310d15d6fe450f82",
      "d6f6764c7a9c6d93b3333111da9b1339");
    ("openssh", "10d1f1c967f7a85ba7832f00665f0191",
      "b8a35ec610bd6cdc7c775515f9656737");
    ("proxifier", "156e1bebba74b2b7a50879277c6b36bf",
      "f6d6dfc0c03d1700b17162bf70c5b3f5");
    ("spark", "01de2eaa07fb23d6a56af3a3e9fee4e1",
      "0a5e428156af6252a553ff1ceb2df3fc");
    ("windows", "dbdc5b6c153a0a376fccfdc6d06a7fad",
      "a8628508358b3660f69fe7f87bf62caa");
    ("c", "92d464bd1bf731e65cca7cb0971f18b7",
      "a63f5e61109dc0678addcddb59897fcc");
    ("r", "7dff1161a90e935795e84d5fb34d6b7e",
      "f6b6cadf07d67c66469240786a99449a");
    ("sql", "baf06316bca4c0b6c9712c0c6b4bab9f",
      "ab1fb61cf86b056a822789eabd6ab4f3");
    ("sql-insert", "11bc2e40fe13d59b4a245c29a6bc13e1",
      "0f8dcd29eda0fcf4b2ef80c7c84dcf53");
    ("ini", "4bdafbd967956f8ce3e7503f16b9ae75",
      "414ee3455db5b4560c318268ebe0ed87");
    ("toml", "e155429876718cc90ce5c8bf1c6188d7",
      "5ddac6ec8ad604c617e379cfd0f84f66");
    ("http-headers", "ec469c83eb5ab514170d4d390dae0d12",
      "9653aec43163dfcba69b97cb843e8ab7");
    ("json dense", "79da313fe5cf044bfe406a7b43832748",
      "e6442f9bc41317926311561228fe3eec");
    ("mini BPE", "7afb7ae541b1008410b5729a5683df91",
      "7afb7ae541b1008410b5729a5683df91");
  ]

let test_pinned_dfas () =
  let builds =
    List.map (fun g -> (g.Grammar.name, None, Grammar.rules g)) Registry.all
    @ [
        ("json dense", Some false, Grammar.rules Formats.json);
        ("mini BPE", None, Bpe.Compiler.rules_of_vocab (mini_vocab ()));
      ]
  in
  check_int "one pin per build" (List.length builds) (List.length pinned_dfas);
  List.iter2
    (fun (name, classes, rules) (name', raw, min) ->
      Alcotest.(check string) "pin order" name' name;
      let digest minimize =
        dfa_digest (Dfa.of_rules ~minimize ?classes rules)
      in
      Alcotest.(check string) (name ^ ": unminimized") raw (digest false);
      Alcotest.(check string) (name ^ ": minimized") min (digest true))
    builds pinned_dfas

let test_minimization_shrinks () =
  let rules = Parser.parse_grammar "(a|b)(a|b)\n(aa|ab|ba|bb)c" in
  let d_min = Dfa.of_rules ~minimize:true rules in
  let d_raw = Dfa.of_rules ~minimize:false rules in
  check "minimized not larger" true (Dfa.size d_min <= Dfa.size d_raw)

let test_minimization_preserves_language () =
  let grammars = [ "a+b\nc"; "[0-9]+(\\.[0-9]+)?\n[ ]+"; "(ab)*\nb+a" ] in
  List.iter
    (fun src ->
      let rules = Parser.parse_grammar src in
      let d_min = Dfa.of_rules ~minimize:true rules in
      let d_raw = Dfa.of_rules ~minimize:false rules in
      let rng = Prng.create 7L in
      for _ = 1 to 500 do
        let len = Prng.int rng 10 in
        let s =
          String.init len (fun _ ->
              [| 'a'; 'b'; 'c'; '0'; '9'; '.'; ' ' |].(Prng.int rng 7))
        in
        let qm = Dfa.run d_min s and qr = Dfa.run d_raw s in
        if Dfa.accept_rule d_min qm <> Dfa.accept_rule d_raw qr then
          Alcotest.failf "minimization changed language of %s on %S" src s
      done)
    grammars;
  check "ok" true true

let test_reachable_nonempty () =
  let d = Dfa.of_grammar "a" in
  let rne = Dfa.reachable_nonempty d in
  (* the start state of this grammar is not reachable via a nonempty word *)
  check "start not included" false (St_util.Bits.mem rne d.Dfa.start);
  check "a-state included" true (St_util.Bits.mem rne (Dfa.run d "a"))

let test_reachable_nonempty_loop () =
  (* here the start state is re-entered on 'b' after 'a': (ab)* *)
  let d = Dfa.of_grammar "(ab)*c" in
  let rne = Dfa.reachable_nonempty d in
  check "start re-entered" true (St_util.Bits.mem rne (Dfa.run d "ab"))

(* Differential: DFA acceptance ≡ naive derivative matcher. *)
let prop_dfa_matches_naive =
  QCheck.Test.make ~count:300 ~name:"DFA run ≡ derivative matcher"
    Gen.grammar_input_arb (fun (rules, s) ->
      let d = Dfa.of_rules rules in
      let q = Dfa.run d s in
      let dfa_rule = if s = "" then -1 else Dfa.accept_rule d q in
      let naive_rule =
        if s = "" then -1
        else
          let rec first i = function
            | [] -> -1
            | r :: rest -> if Naive.matches r s then i else first (i + 1) rest
          in
          first 0 rules
      in
      dfa_rule = naive_rule)

(* Differential: minimization preserves the tokenization function. *)
let prop_minimize_preserves_tokens =
  QCheck.Test.make ~count:200 ~name:"minimize preserves tokens"
    Gen.grammar_input_arb (fun (rules, s) ->
      let tmin, _ = Backtracking.tokens (Dfa.of_rules ~minimize:true rules) s in
      let traw, _ = Backtracking.tokens (Dfa.of_rules ~minimize:false rules) s in
      Gen.same_tokens tmin traw)

let suite =
  [
    Alcotest.test_case "NFA structure" `Quick test_nfa_structure;
    Alcotest.test_case "DFA basics (Fig. 1)" `Quick test_dfa_basic;
    Alcotest.test_case "rule priority" `Quick test_dfa_priority;
    Alcotest.test_case "totality" `Quick test_dfa_totality;
    Alcotest.test_case "max-states cap" `Quick test_max_states_cap;
    Alcotest.test_case "max-states cap, BPE-sized" `Quick
      test_max_states_cap_bpe;
    Alcotest.test_case "pinned tokenization DFAs" `Quick test_pinned_dfas;
    Alcotest.test_case "minimization shrinks" `Quick test_minimization_shrinks;
    Alcotest.test_case "minimization preserves language" `Quick
      test_minimization_preserves_language;
    Alcotest.test_case "reachable-nonempty" `Quick test_reachable_nonempty;
    Alcotest.test_case "reachable-nonempty loop" `Quick
      test_reachable_nonempty_loop;
    QCheck_alcotest.to_alcotest prop_dfa_matches_naive;
    QCheck_alcotest.to_alcotest prop_minimize_preserves_tokens;
  ]
