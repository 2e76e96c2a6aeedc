(* The SWAR skip-loop tier: build-time classification of <=3-stop-byte
   states, the word-level zero-byte detector against a naive byte-at-a-time
   oracle (every stop-set size x scan offset x stop lane, including the
   absent case), the scalar tails (ranges shorter than a word, exact
   multiples of 8, a stop inside the final partial word), the endianness
   invariance of the broadcast-mask trick (0x00 and 0x80 at every lane),
   and a seeded random battery pitting the SWAR scanners against the bitmap
   scanners and a reference linear scan on every golden grammar. *)

open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let golden_grammars = Formats.all @ Languages.all

(* ---- synthetic single-state tables ---- *)

let stops_of bytes =
  let stops = Array.make 8 0 in
  List.iter
    (fun b -> stops.(b lsr 5) <- stops.(b lsr 5) lor (1 lsl (b land 31)))
    bytes;
  stops

let tables_of bytes =
  let stops = stops_of bytes in
  let kinds, masks = Dfa.swar_classify ~num_states:1 ~stops in
  (stops, kinds, masks)

let tbl_of bytes = Dfa.swar_byte_table ~num_states:1 ~stops:(stops_of bytes)

(* reference: one byte at a time, no words, no bitmaps *)
let linear_scan stop_bytes s pos limit =
  let i = ref pos in
  while !i < limit && not (List.mem (Char.code s.[!i]) stop_bytes) do
    incr i
  done;
  !i

(* every scanner must agree with the reference on (set, s, pos, limit) *)
let agree ~what set (stops, kinds, masks) s pos limit =
  let expected = linear_scan set s pos limit in
  check_int (what ^ ": swar") expected (Dfa.skip_run stops kinds masks 0 s pos limit);
  check_int (what ^ ": bitmap") expected (Dfa.skip_run_bitmap stops 0 s pos limit);
  expected

(* ---- classification ---- *)

let test_classify () =
  let kind bytes =
    let _, kinds, _ = tables_of bytes in
    Char.code (Bytes.get kinds 0)
  in
  check_int "0 stops -> free-running" 4 (kind []);
  check_int "1 stop -> kind 1" 1 (kind [ 0x22 ]);
  check_int "2 stops -> kind 2" 2 (kind [ 0x22; 0x5c ]);
  check_int "3 stops -> kind 3" 3 (kind [ 0x0a; 0x22; 0x5c ]);
  check_int "4 stops -> bitmap" 0 (kind [ 0x0a; 0x0d; 0x22; 0x5c ]);
  (* mask padding repeats the last real stop byte *)
  let _, _, masks = tables_of [ 0x22; 0x5c ] in
  check "kind-2 masks padded" true
    (masks.(1) = masks.(2) && masks.(0) <> masks.(1));
  let _, _, masks = tables_of [ 0x2f ] in
  check "kind-1 masks padded" true (masks.(0) = masks.(1) && masks.(1) = masks.(2));
  check "broadcast mask shape" true
    (masks.(0) = Int64.mul 0x0101010101010101L 0x2fL);
  (* a free-running state reports limit without reading anything *)
  let t = tables_of [] in
  let stops, kinds, masks = t in
  check_int "free-running returns limit" 40
    (Dfa.skip_run stops kinds masks 0 (String.make 40 'a') 3 40)

(* ---- word-level oracle ---- *)

(* stop-set sizes 1..3, scan start offsets 0..7 (every word phase), the
   stop byte at every distance 0..24 from the start (every lane of the
   first three words) and absent entirely, for every member of the set *)
let test_word_oracle () =
  let sets = [ [ 0x78 ]; [ 0x78; 0x7a ]; [ 0x78; 0x7a; 0x7e ] ] in
  List.iter
    (fun set ->
      let t = tables_of set in
      List.iter
        (fun stop ->
          for start = 0 to 7 do
            for d = 0 to 25 do
              let n = start + 25 in
              let b = Bytes.make n 'a' in
              let stop_pos = start + d in
              if stop_pos < n then Bytes.set b stop_pos (Char.chr stop);
              let s = Bytes.to_string b in
              let got =
                agree
                  ~what:
                    (Printf.sprintf "set %d stop %#x start %d dist %d"
                       (List.length set) stop start d)
                  set t s start n
              in
              check_int "oracle position" (min stop_pos n) got
            done
          done)
        set)
    sets

(* ---- tails ---- *)

let test_tails () =
  let set = [ Char.code 'x' ] in
  let t = tables_of set in
  (* ranges shorter than one word never enter the word loop *)
  for n = 0 to 7 do
    ignore (agree ~what:"short clean" set t (String.make n 'a') 0 n);
    for j = 0 to n - 1 do
      let b = Bytes.make n 'a' in
      Bytes.set b j 'x';
      ignore (agree ~what:"short hit" set t (Bytes.to_string b) 0 n)
    done
  done;
  (* clean ranges of exactly 8, 16, 24, 32 bytes: no scalar tail at all *)
  for w = 1 to 4 do
    let n = 8 * w in
    check_int "exact multiple of 8" n
      (agree ~what:"exact words" set t (String.make n 'a') 0 n)
  done;
  (* a stop byte inside the final partial word is found by the tail *)
  for tail = 1 to 7 do
    for j = 0 to tail - 1 do
      let n = 16 + tail in
      let b = Bytes.make n 'a' in
      Bytes.set b (16 + j) 'x';
      check_int "stop in partial word" (16 + j)
        (agree ~what:"partial tail" set t (Bytes.to_string b) 0 n)
    done
  done;
  (* the limit clamps the word loop even when stops lie beyond it *)
  let s = String.make 20 'a' ^ "x" in
  check_int "limit clamps" 20 (agree ~what:"clamped" set t s 0 20)

(* ---- endianness: 0x00 and 0x80 at every lane ---- *)

(* The detector word is built with xor/sub/land on a byte-broadcast mask:
   its answer ("some lane holds the stop byte") is invariant under the
   byte order [get64u] happens to read, and the exact index always comes
   from the scalar bitmap loop. 0x00 (the zero-byte detector's native
   case) and 0x80 (the sign-bit lane) are the two values that would break
   first if the detector had false positives or lane-order assumptions. *)
let test_lane_endianness () =
  List.iter
    (fun stop ->
      let set = [ stop ] in
      let t = tables_of set in
      for lane = 0 to 15 do
        let b = Bytes.make 24 'a' in
        Bytes.set b lane (Char.chr stop);
        check_int
          (Printf.sprintf "stop %#x at lane %d" stop lane)
          lane
          (agree ~what:"lane" set t (Bytes.to_string b) 0 24)
      done;
      (* neighbours of the stop value in every lane: no false positives *)
      List.iter
        (fun filler ->
          if filler <> stop then begin
            let s = String.make 32 (Char.chr filler) in
            check_int
              (Printf.sprintf "stop %#x over %#x runs clean" stop filler)
              32
              (agree ~what:"clean lanes" set t s 0 32)
          end)
        [ 0x00; 0x01; 0x7f; 0x80; 0x81; 0xff ])
    [ 0x00; 0x80 ];
  (* both extremes in the same word, both orders *)
  let set = [ 0x00; 0x80 ] in
  let t = tables_of set in
  let b = Bytes.make 16 'a' in
  Bytes.set b 5 '\x00';
  Bytes.set b 9 '\x80';
  check_int "0x00 before 0x80" 5 (agree ~what:"both" set t (Bytes.to_string b) 0 16);
  let b = Bytes.make 16 'a' in
  Bytes.set b 3 '\x80';
  Bytes.set b 12 '\x00';
  check_int "0x80 before 0x00" 3 (agree ~what:"both" set t (Bytes.to_string b) 0 16)

(* ---- dual-cursor scanner against a two-sided reference ---- *)

let linear_scan2 set_a set_b ~off s pos limit =
  let i = ref pos in
  while
    !i < limit
    && (not (List.mem (Char.code s.[!i]) set_a))
    && not (List.mem (Char.code s.[!i + off]) set_b)
  do
    incr i
  done;
  !i

let test_dual_oracle () =
  let rng = Prng.create 0xD0A1L in
  (* the 4- and 5-member sets classify as bitmap (kind 0), so random pairs
     also cover the merged mixed loops (SWAR x gather-table) both ways and
     the doubly-bitmap fallback *)
  let sets =
    [|
      [ 0x78 ];
      [ 0x78; 0x7a ];
      [ 0x78; 0x7a; 0x7e ];
      [];
      [ 0x78; 0x7a; 0x7e; 0x62 ];
      [ 0x7a; 0x7e; 0x62; 0x41; 0x25 ];
    |]
  in
  (* ranges of >= 8 bytes (so the word loop runs) per mixed orientation:
     A SWAR / B bitmap, and B SWAR / A bitmap, which swaps into it *)
  let swar_a = ref 0 and swar_b = ref 0 in
  let is_swar k = k >= '\001' && k <= '\003' in
  for _ = 1 to 500 do
    let set_a = Prng.choose rng sets and set_b = Prng.choose rng sets in
    let stops_a, kinds_a, masks_a = tables_of set_a in
    let stops_b, kinds_b, masks_b = tables_of set_b in
    let ka = Bytes.get kinds_a 0 and kb = Bytes.get kinds_b 0 in
    let tbl_a = tbl_of set_a and tbl_b = tbl_of set_b in
    let off = Prng.in_range rng (-6) 6 in
    let n = Prng.in_range rng 0 64 in
    let b = Bytes.make (n + 16) 'a' in
    for _ = 0 to Prng.int rng 6 do
      Bytes.set b
        (Prng.int rng (n + 16))
        (Prng.choose rng [| 'x'; 'z'; '~'; 'b'; 'A'; '%' |])
    done;
    let s = Bytes.to_string b in
    let pos = max 0 (-off) in
    let limit = min (pos + n) (String.length s - max 0 off) in
    let limit = max pos limit in
    if limit - pos >= 8 then begin
      if is_swar ka && kb = '\000' then incr swar_a;
      if ka = '\000' && is_swar kb then incr swar_b
    end;
    let expected = linear_scan2 set_a set_b ~off s pos limit in
    check_int "dual swar vs reference" expected
      (Dfa.skip_run2 stops_a kinds_a masks_a tbl_a 0 stops_b kinds_b masks_b
         tbl_b 0 ~off s pos limit);
    if set_a <> [] && set_b <> [] then
      check_int "dual bitmap vs reference" expected
        (Dfa.skip_run2_bitmap stops_a 0 stops_b 0 ~off s pos limit)
  done;
  check "A SWAR / B bitmap word loop exercised" true (!swar_a > 0);
  check "B SWAR / A bitmap word loop exercised" true (!swar_b > 0)

(* ---- seeded random battery on the golden grammars ---- *)

(* 1000 seeded trials: a random accelerated state of a random golden
   grammar, a random slice of a run-biased string, three scanners in
   lockstep. The real tables (not synthetic ones) are what the hot loops
   consume, so this also checks classification against the grammars'
   actual stop sets. *)
let test_random_battery () =
  let rng = Prng.create 0x5AA5_BEEFL in
  let pool =
    List.filter_map
      (fun g ->
        let d = Grammar.dfa g in
        let flagged = ref [] in
        for q = Dfa.size d - 1 downto 0 do
          if Dfa.is_accel_state d q then flagged := q :: !flagged
        done;
        if !flagged = [] then None else Some (g.Grammar.name, d, Array.of_list !flagged))
      golden_grammars
  in
  check "every golden grammar has accelerable states" true
    (List.length pool = List.length golden_grammars);
  check "some golden grammar has a SWAR state" true
    (List.exists (fun (_, d, _) -> Dfa.accel_swar_state_count d > 0) pool);
  let pool = Array.of_list pool in
  for _ = 1 to 1000 do
    let name, d, flagged = Prng.choose rng pool in
    let q = Prng.choose rng flagged in
    (* self-loop bytes of q, to build long runs; all bytes, for stops *)
    let loopers = ref [] in
    for b = 255 downto 0 do
      if not (Dfa.accel_stop_byte d q b) then loopers := Char.chr b :: !loopers
    done;
    let loopers = Array.of_list !loopers in
    let n = Prng.in_range rng 0 96 in
    let b = Bytes.init n (fun _ -> Prng.choose rng loopers) in
    for _ = 0 to Prng.int rng 4 do
      if n > 0 then
        Bytes.set b (Prng.int rng n) (Char.chr (Prng.int rng 256))
    done;
    let s = Bytes.to_string b in
    let pos = Prng.int rng (n + 1) in
    let limit = Prng.in_range rng pos n in
    let set = ref [] in
    for byte = 255 downto 0 do
      if Dfa.accel_stop_byte d q byte then set := byte :: !set
    done;
    let expected = linear_scan !set s pos limit in
    let what = Printf.sprintf "%s state %d" name q in
    check_int (what ^ ": swar path") expected
      (Dfa.skip_run d.Dfa.accel_stops d.Dfa.accel_kind d.Dfa.accel_swar q s
         pos limit);
    check_int (what ^ ": bitmap path") expected
      (Dfa.skip_run_bitmap d.Dfa.accel_stops q s pos limit)
  done

let suite =
  [
    Alcotest.test_case "classification" `Quick test_classify;
    Alcotest.test_case "word-level oracle" `Quick test_word_oracle;
    Alcotest.test_case "scalar tails" `Quick test_tails;
    Alcotest.test_case "lane endianness" `Quick test_lane_endianness;
    Alcotest.test_case "dual-cursor oracle" `Quick test_dual_oracle;
    Alcotest.test_case "golden random battery" `Quick test_random_battery;
  ]
