open St_regex
module Bits = St_util.Bits

type t = {
  num_states : int;
  start : int;
  num_classes : int;
  classmap : string;
  trans : int array;
  accept : int array;
  accel : bool;
  accel_flags : Bytes.t;
  accel_stops : int array;
  accel_kind : Bytes.t;
  accel_swar : int64 array;
  accel_tbl : Bytes.t;
}

let step d q c =
  d.trans.((q * d.num_classes) + Char.code (String.unsafe_get d.classmap (Char.code c)))

let step_class d q cls = d.trans.((q * d.num_classes) + cls)
let class_of d c = Char.code (String.unsafe_get d.classmap (Char.code c))
let class_of_byte d b = Char.code (String.unsafe_get d.classmap b)
let num_classes d = d.num_classes
let is_final d q = d.accept.(q) >= 0
let accept_rule d q = d.accept.(q)
let size d = d.num_states

let run d s =
  let q = ref d.start in
  String.iter (fun c -> q := step d !q c) s;
  !q

let identity_classmap = String.init 256 Char.chr

(* ---- Self-loop run acceleration ----

   A state that self-loops on most of the alphabet (string bodies, comments,
   whitespace, identifiers) can consume a run of input without consulting the
   transition table at all: only its *stop bytes* — those whose class leaves
   the state — need the classed two-load step. The analysis is static and
   byte-level: stop bitmaps are expanded from class space through the
   classmap once at build time, so the skip loop needs no classmap load.

   Representation: [accel_flags] always has [num_states] bytes (all zero for
   an unaccelerated build, so hot loops may test it unconditionally with
   [Bytes.unsafe_get]); [accel_stops] packs one 256-bit bitmap per state as
   8 little-endian 32-bit words held in immediate [int]s (Int64 words would
   box on non-flambda compilers and turn the skip loop into an allocator),
   bit b set iff byte b leaves the state.

   On top of the bitmaps, every state is *classified* into an [accel_kind]
   so the skip loops can pick a scanner per state with a single byte test:

     '\000'  bitmap scan    >= 4 stop bytes (or SWAR disabled): the 8-way
                            byte-at-a-time bitmap loop below
     '\001'..'\003'  SWAR   1-3 stop bytes: 8 bytes per 64-bit load with
                            the broadcast-XOR zero-byte trick
     '\004'  free-running   no stop bytes at all (the state self-loops on
                            every byte): skip straight to the range limit

   Most accelerated states in real grammars stop on very few bytes (string
   interiors stop on '"' and '\\', comments on '\n', whitespace runs on
   everything but ' '), so the SWAR tier covers the states where the bytes
   actually are. [accel_swar] holds 3 broadcast masks per state
   (0x0101010101010101 * stop_byte); states with fewer than 3 stop bytes
   pad by repeating the last real mask so a scanner never reads an
   uninitialized lane.

   [accel_tbl] (built only when SWAR is on) re-expands each state's stop
   bitmap into a 256-byte 0/1 gather table. The dual-cursor scanner uses
   it for the *mixed* pair — one SWAR side, one bitmap side, the shape the
   token-extension path produces when a 2-stop string-interior state runs
   under a many-stop TE powerstate row: the merged word loop tests the
   SWAR side with broadcast detectors and the bitmap side with eight
   table-byte gathers (1 load + 1 or per byte instead of the bitmap's
   index arithmetic), keeping the whole pair at one pass over the
   input. *)

(* Accelerate only states with at least this many self-loop bytes: below it
   a run can't be long enough to amortize the skip-loop entry. *)
let accel_min_loop_bytes = 4

let compute_accel ~num_states ~num_classes ~classmap ~trans =
  let flags = Bytes.make num_states '\000' in
  let stops = Array.make (num_states * 8) 0 in
  for q = 0 to num_states - 1 do
    let row = q * num_classes in
    let base = q * 8 in
    let loop_bytes = ref 0 in
    for b = 0 to 255 do
      let cls = Char.code (String.unsafe_get classmap b) in
      if trans.(row + cls) = q then incr loop_bytes
      else
        stops.(base + (b lsr 5)) <-
          stops.(base + (b lsr 5)) lor (1 lsl (b land 31))
    done;
    if !loop_bytes >= accel_min_loop_bytes then Bytes.set flags q '\001'
  done;
  (flags, stops)

let stop_bit stops base b =
  (Array.unsafe_get stops (base + (b lsr 5)) lsr (b land 31)) land 1

(* Classification is a pure function of the stop bitmaps, recomputed from
   them on every build and on every `.stc` load (which stores none of the
   acceleration tables, only whether to derive them). A state
   with <= 3 stop bytes has >= 253 self-loop bytes, so every SWAR-eligible
   state is necessarily flagged by [compute_accel]. *)
let swar_max_stop_bytes = 3

let swar_classify ~num_states ~stops =
  let kinds = Bytes.make num_states '\000' in
  let masks = Array.make (num_states * 3) 0L in
  for q = 0 to num_states - 1 do
    let base = q * 8 in
    let sb = Array.make swar_max_stop_bytes 0 in
    let cnt = ref 0 in
    (try
       for b = 0 to 255 do
         if stop_bit stops base b <> 0 then begin
           if !cnt >= swar_max_stop_bytes then raise Exit;
           sb.(!cnt) <- b;
           incr cnt
         end
       done
     with Exit -> cnt := swar_max_stop_bytes + 1);
    if !cnt = 0 then Bytes.set kinds q '\004'
    else if !cnt <= swar_max_stop_bytes then begin
      Bytes.set kinds q (Char.chr !cnt);
      for i = 0 to 2 do
        masks.((q * 3) + i) <-
          Int64.mul 0x0101010101010101L (Int64.of_int sb.(min i (!cnt - 1)))
      done
    end
  done;
  (kinds, masks)

(* Per-state 256-byte 0/1 stop tables for the mixed-pair gather loop.
   Derived from the stop bitmaps like the SWAR masks, never serialized. *)
let swar_byte_table ~num_states ~stops =
  let tbl = Bytes.make (num_states * 256) '\000' in
  for q = 0 to num_states - 1 do
    let base = q * 8 and tb = q * 256 in
    for b = 0 to 255 do
      if stop_bit stops base b <> 0 then Bytes.unsafe_set tbl (tb + b) '\001'
    done
  done;
  tbl

let attach_accel ~enabled ?(swar = true) d =
  if enabled then
    let flags, stops =
      compute_accel ~num_states:d.num_states ~num_classes:d.num_classes
        ~classmap:d.classmap ~trans:d.trans
    in
    let kinds, masks =
      if swar then swar_classify ~num_states:d.num_states ~stops
      else (Bytes.make d.num_states '\000', [||])
    in
    {
      d with
      accel = true;
      accel_flags = flags;
      accel_stops = stops;
      accel_kind = kinds;
      accel_swar = masks;
      accel_tbl =
        (if swar then swar_byte_table ~num_states:d.num_states ~stops
         else Bytes.empty);
    }
  else
    {
      d with
      accel = false;
      accel_flags = Bytes.make d.num_states '\000';
      accel_stops = [||];
      accel_kind = Bytes.make d.num_states '\000';
      accel_swar = [||];
      accel_tbl = Bytes.empty;
    }

let of_tables ~accel ?swar ~start ~num_classes ~classmap ~trans ~accept () =
  attach_accel ~enabled:accel ?swar
    {
      num_states = Array.length accept;
      start;
      num_classes;
      classmap;
      trans;
      accept;
      accel = false;
      accel_flags = Bytes.empty;
      accel_stops = [||];
      accel_kind = Bytes.empty;
      accel_swar = [||];
      accel_tbl = Bytes.empty;
    }

let accel_enabled d = d.accel
let accel_swar_enabled d = Array.length d.accel_swar > 0
let is_accel_state d q = Bytes.get d.accel_flags q <> '\000'

let accel_state_count d =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) d.accel_flags;
  !n

let accel_swar_state_count d =
  let n = ref 0 in
  Bytes.iter
    (fun c -> if c >= '\001' && c <= '\003' then incr n)
    d.accel_kind;
  !n

let accel_stop_byte d q b = d.accel && stop_bit d.accel_stops (q * 8) b <> 0

let accel_table_bytes d =
  Bytes.length d.accel_flags
  + (Array.length d.accel_stops * 4)
  + Bytes.length d.accel_kind
  + (Array.length d.accel_swar * 8)
  + Bytes.length d.accel_tbl

(* [skip_run_bitmap stops q s pos limit]: first index in [pos, limit)
   holding a stop byte of state [q], or [limit] when the whole range
   self-loops. 8 bytes per iteration on the fast path: the eight bitmap
   tests are OR-folded so the loop carries a single branch, and every
   operation is on immediate ints — the loop allocates nothing. This is
   the kind-'\000' scanner and the reference the SWAR tier is tested
   against. *)
let skip_run_bitmap stops q s pos limit =
  let base = q * 8 in
  let i = ref pos in
  let scanning = ref true in
  while !scanning && !i + 8 <= limit do
    let p = !i in
    let acc =
      stop_bit stops base (Char.code (String.unsafe_get s p))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 1)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 2)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 3)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 4)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 5)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 6)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 7)))
    in
    if acc = 0 then i := p + 8 else scanning := false
  done;
  while
    !i < limit
    && stop_bit stops base (Char.code (String.unsafe_get s !i)) = 0
  do
    incr i
  done;
  !i

(* ---- SWAR scanners (kinds '\001'..'\003') ----

   The classic zero-byte trick: with m = 0x0101..01 * stop_byte and
   x = w xor m, the word x has a zero byte exactly where w holds the stop
   byte, and

     (x - 0x0101010101010101) land (lnot x) land 0x8080808080808080

   is non-zero iff x has a zero byte (Mycroft's exact detector — no false
   positives). One 64-bit load + ~5 ALU ops test 8 input bytes per stop
   byte, vs 8 shift/mask/load chains for the bitmap scanner.

   Endianness: [get64u] ("%caml_string_get64u") reads 8 bytes in NATIVE
   byte order. We assume little-endian — every supported target today —
   but the scanner is correct on big-endian as-is, by construction: the
   word test only answers "does some lane hold a stop byte?", which is
   invariant under byte permutation (and the broadcast masks, holding the
   same byte in every lane, are their own byte-swap); the exact index of
   the first stop byte is always recovered by the scalar bitmap loop that
   follows the word loop. A big-endian port therefore needs no code
   change. What would NOT survive byte-swapping is deriving the lane
   index from the detector word with a count-trailing-zeros — which is
   why we deliberately do not.

   All Int64 arithmetic is written inline inside each loop: on non-flambda
   compilers, cross-function Int64 values box, so the masks are hoisted
   into locals before the loop (one unbox each) and every temporary stays
   in the same function body where cmmgen can keep it in a register. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* [skip_run stops kinds masks q s pos limit]: first index in [pos, limit)
   holding a stop byte of state [q], or [limit] when the whole range
   self-loops. Dispatches once per call on [accel_kind]: free-running
   states return [limit] outright, SWAR states scan 8 bytes per 64-bit
   load (specialized per stop-set size so a 1-stop comment state pays one
   detector, not three), everything else takes the bitmap scanner. The
   scalar bitmap loop after the word loop handles the <8-byte tail,
   ranges shorter than one word, and pinpointing the stop inside a hit
   word — so the word loop never reads past [limit]. *)
let skip_run stops kinds masks q s pos limit =
  match Bytes.unsafe_get kinds q with
  | '\004' -> limit
  | '\000' -> skip_run_bitmap stops q s pos limit
  | k ->
      let mb = q * 3 in
      let m1 = Array.unsafe_get masks mb in
      let m2 = Array.unsafe_get masks (mb + 1) in
      let m3 = Array.unsafe_get masks (mb + 2) in
      let i = ref pos in
      let scanning = ref true in
      (if k = '\001' then
         while !scanning && !i + 8 <= limit do
           let w = get64u s !i in
           let x1 = Int64.logxor w m1 in
           let h =
             Int64.logand
               (Int64.logand (Int64.sub x1 0x0101010101010101L)
                  (Int64.lognot x1))
               0x8080808080808080L
           in
           if h = 0L then i := !i + 8 else scanning := false
         done
       else if k = '\002' then
         while !scanning && !i + 8 <= limit do
           let w = get64u s !i in
           let x1 = Int64.logxor w m1 and x2 = Int64.logxor w m2 in
           let h =
             Int64.logor
               (Int64.logand
                  (Int64.logand (Int64.sub x1 0x0101010101010101L)
                     (Int64.lognot x1))
                  0x8080808080808080L)
               (Int64.logand
                  (Int64.logand (Int64.sub x2 0x0101010101010101L)
                     (Int64.lognot x2))
                  0x8080808080808080L)
           in
           if h = 0L then i := !i + 8 else scanning := false
         done
       else
         while !scanning && !i + 8 <= limit do
           let w = get64u s !i in
           let x1 = Int64.logxor w m1
           and x2 = Int64.logxor w m2
           and x3 = Int64.logxor w m3 in
           let h =
             Int64.logor
               (Int64.logor
                  (Int64.logand
                     (Int64.logand (Int64.sub x1 0x0101010101010101L)
                        (Int64.lognot x1))
                     0x8080808080808080L)
                  (Int64.logand
                     (Int64.logand (Int64.sub x2 0x0101010101010101L)
                        (Int64.lognot x2))
                     0x8080808080808080L))
               (Int64.logand
                  (Int64.logand (Int64.sub x3 0x0101010101010101L)
                     (Int64.lognot x3))
                  0x8080808080808080L)
           in
           if h = 0L then i := !i + 8 else scanning := false
         done);
      let base = q * 8 in
      while
        !i < limit
        && stop_bit stops base (Char.code (String.unsafe_get s !i)) = 0
      do
        incr i
      done;
      !i

(* Dual-cursor bitmap scanner: the kind-'\000' / mixed fallback. *)
let skip_run2_bitmap stops_a qa stops_b qb ~off s pos limit =
  let ba = qa * 8 and bb = qb * 8 in
  let i = ref pos in
  let scanning = ref true in
  while !scanning && !i + 4 <= limit do
    let p = !i and po = !i + off in
    let acc =
      stop_bit stops_a ba (Char.code (String.unsafe_get s p))
      lor stop_bit stops_b bb (Char.code (String.unsafe_get s po))
      lor stop_bit stops_a ba (Char.code (String.unsafe_get s (p + 1)))
      lor stop_bit stops_b bb (Char.code (String.unsafe_get s (po + 1)))
      lor stop_bit stops_a ba (Char.code (String.unsafe_get s (p + 2)))
      lor stop_bit stops_b bb (Char.code (String.unsafe_get s (po + 2)))
      lor stop_bit stops_a ba (Char.code (String.unsafe_get s (p + 3)))
      lor stop_bit stops_b bb (Char.code (String.unsafe_get s (po + 3)))
    in
    if acc = 0 then i := p + 4 else scanning := false
  done;
  while
    !i < limit
    && stop_bit stops_a ba (Char.code (String.unsafe_get s !i)) = 0
    && stop_bit stops_b bb (Char.code (String.unsafe_get s (!i + off))) = 0
  do
    incr i
  done;
  !i

(* [skip_run2 stops_a kinds_a masks_a tbl_a qa stops_b kinds_b masks_b
   tbl_b qb ~off s pos limit]: dual-cursor variant for the TE paths, where
   a second automaton reads [off] bytes away from the first (off = +k when
   B leads, -k when A trails). First index in [pos, limit) where either
   cursor hits a stop byte, or [limit]. The caller guarantees
   [pos + off >= 0] and [limit + off <= String.length s] — which also
   bounds the offset 64-bit load, since the word loop stops at
   [limit - 8]. A free-running side drops out of the scan entirely; both
   sides SWAR uses a dual word loop (4 detectors when both stop sets have
   <= 2 members — the common string-interior case — 6 otherwise). A mixed
   pair — one SWAR side, one bitmap side, the shape json string bodies
   produce (2-stop interior state under a many-stop TE powerstate row) —
   runs a merged word loop: SWAR detectors for its fast side plus eight
   0/1 gathers from the slow side's [accel_tbl] byte table, so the pair
   still advances 8 bytes per iteration in a single pass; the other
   orientation (B SWAR, A bitmap) swaps the roles into that one loop. Only
   when both sides are bitmap does the dual bitmap scanner run. *)
let rec skip_run2 stops_a kinds_a masks_a tbl_a qa stops_b kinds_b masks_b
    tbl_b qb ~off s pos limit =
  let ka = Bytes.unsafe_get kinds_a qa and kb = Bytes.unsafe_get kinds_b qb in
  if ka = '\004' then
    if kb = '\004' then limit
    else skip_run stops_b kinds_b masks_b qb s (pos + off) (limit + off) - off
  else if kb = '\004' then skip_run stops_a kinds_a masks_a qa s pos limit
  else if ka = '\000' && kb = '\000' then
    skip_run2_bitmap stops_a qa stops_b qb ~off s pos limit
  else if kb = '\000' then begin
    (* A SWAR, B bitmap: merged word loop, B via its byte table *)
    let mba = qa * 3 in
    let a1 = Array.unsafe_get masks_a mba in
    let a2 = Array.unsafe_get masks_a (mba + 1) in
    let a3 = Array.unsafe_get masks_a (mba + 2) in
    let tb = qb * 256 in
    let i = ref pos in
    let scanning = ref true in
    (if ka <= '\002' then
       while !scanning && !i + 8 <= limit do
         let w = get64u s !i in
         let po = !i + off in
         let g =
           Char.code
             (Bytes.unsafe_get tbl_b
                (tb + Char.code (String.unsafe_get s po)))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 1))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 2))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 3))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 4))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 5))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 6))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 7))))
         in
         let x1 = Int64.logxor w a1 and x2 = Int64.logxor w a2 in
         let h =
           Int64.logor
             (Int64.logand
                (Int64.logand (Int64.sub x1 0x0101010101010101L)
                   (Int64.lognot x1))
                0x8080808080808080L)
             (Int64.logand
                (Int64.logand (Int64.sub x2 0x0101010101010101L)
                   (Int64.lognot x2))
                0x8080808080808080L)
         in
         if g = 0 && h = 0L then i := !i + 8 else scanning := false
       done
     else
       while !scanning && !i + 8 <= limit do
         let w = get64u s !i in
         let po = !i + off in
         let g =
           Char.code
             (Bytes.unsafe_get tbl_b
                (tb + Char.code (String.unsafe_get s po)))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 1))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 2))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 3))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 4))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 5))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 6))))
           lor Char.code
                 (Bytes.unsafe_get tbl_b
                    (tb + Char.code (String.unsafe_get s (po + 7))))
         in
         let x1 = Int64.logxor w a1
         and x2 = Int64.logxor w a2
         and x3 = Int64.logxor w a3 in
         let h =
           Int64.logor
             (Int64.logor
                (Int64.logand
                   (Int64.logand (Int64.sub x1 0x0101010101010101L)
                      (Int64.lognot x1))
                   0x8080808080808080L)
                (Int64.logand
                   (Int64.logand (Int64.sub x2 0x0101010101010101L)
                      (Int64.lognot x2))
                   0x8080808080808080L))
             (Int64.logand
                (Int64.logand (Int64.sub x3 0x0101010101010101L)
                   (Int64.lognot x3))
                0x8080808080808080L)
         in
         if g = 0 && h = 0L then i := !i + 8 else scanning := false
       done);
    let ba = qa * 8 and bb = qb * 8 in
    while
      !i < limit
      && stop_bit stops_a ba (Char.code (String.unsafe_get s !i)) = 0
      && stop_bit stops_b bb (Char.code (String.unsafe_get s (!i + off))) = 0
    do
      incr i
    done;
    !i
  end
  else if ka = '\000' then
    (* B SWAR, A bitmap: the branch above with the roles swapped, B's
       cursor leading by [-off]; both cursors keep their ranges, so the
       caller's bounds guarantee carries over *)
    skip_run2 stops_b kinds_b masks_b tbl_b qb stops_a kinds_a masks_a tbl_a
      qa ~off:(-off) s (pos + off) (limit + off)
    - off
  else begin
    let mba = qa * 3 and mbb = qb * 3 in
    let a1 = Array.unsafe_get masks_a mba in
    let a2 = Array.unsafe_get masks_a (mba + 1) in
    let a3 = Array.unsafe_get masks_a (mba + 2) in
    let b1 = Array.unsafe_get masks_b mbb in
    let b2 = Array.unsafe_get masks_b (mbb + 1) in
    let b3 = Array.unsafe_get masks_b (mbb + 2) in
    let i = ref pos in
    let scanning = ref true in
    (if ka <= '\002' && kb <= '\002' then
       (* padding repeats the last real mask, so lanes 1-2 of [masks] are
          exactly the <=2-member stop set on both sides *)
       while !scanning && !i + 8 <= limit do
         let w = get64u s !i and wo = get64u s (!i + off) in
         let x1 = Int64.logxor w a1
         and x2 = Int64.logxor w a2
         and y1 = Int64.logxor wo b1
         and y2 = Int64.logxor wo b2 in
         let h =
           Int64.logor
             (Int64.logor
                (Int64.logand
                   (Int64.logand (Int64.sub x1 0x0101010101010101L)
                      (Int64.lognot x1))
                   0x8080808080808080L)
                (Int64.logand
                   (Int64.logand (Int64.sub x2 0x0101010101010101L)
                      (Int64.lognot x2))
                   0x8080808080808080L))
             (Int64.logor
                (Int64.logand
                   (Int64.logand (Int64.sub y1 0x0101010101010101L)
                      (Int64.lognot y1))
                   0x8080808080808080L)
                (Int64.logand
                   (Int64.logand (Int64.sub y2 0x0101010101010101L)
                      (Int64.lognot y2))
                   0x8080808080808080L))
         in
         if h = 0L then i := !i + 8 else scanning := false
       done
     else
       while !scanning && !i + 8 <= limit do
         let w = get64u s !i and wo = get64u s (!i + off) in
         let x1 = Int64.logxor w a1
         and x2 = Int64.logxor w a2
         and x3 = Int64.logxor w a3
         and y1 = Int64.logxor wo b1
         and y2 = Int64.logxor wo b2
         and y3 = Int64.logxor wo b3 in
         let h =
           Int64.logor
             (Int64.logor
                (Int64.logor
                   (Int64.logand
                      (Int64.logand (Int64.sub x1 0x0101010101010101L)
                         (Int64.lognot x1))
                      0x8080808080808080L)
                   (Int64.logand
                      (Int64.logand (Int64.sub x2 0x0101010101010101L)
                         (Int64.lognot x2))
                      0x8080808080808080L))
                (Int64.logor
                   (Int64.logand
                      (Int64.logand (Int64.sub x3 0x0101010101010101L)
                         (Int64.lognot x3))
                      0x8080808080808080L)
                   (Int64.logand
                      (Int64.logand (Int64.sub y1 0x0101010101010101L)
                         (Int64.lognot y1))
                      0x8080808080808080L)))
             (Int64.logor
                (Int64.logand
                   (Int64.logand (Int64.sub y2 0x0101010101010101L)
                      (Int64.lognot y2))
                   0x8080808080808080L)
                (Int64.logand
                   (Int64.logand (Int64.sub y3 0x0101010101010101L)
                      (Int64.lognot y3))
                   0x8080808080808080L))
         in
         if h = 0L then i := !i + 8 else scanning := false
       done);
    let ba = qa * 8 and bb = qb * 8 in
    while
      !i < limit
      && stop_bit stops_a ba (Char.code (String.unsafe_get s !i)) = 0
      && stop_bit stops_b bb (Char.code (String.unsafe_get s (!i + off))) = 0
    do
      incr i
    done;
    !i
  end

(* The coarsest partition of 0–255 that every charset label of the NFA
   respects: two bytes land in the same class iff every labeled edge either
   contains both or neither, so they are indistinguishable to the subset
   construction (and hence to the DFA). Classic flex [yy_ec] refinement:
   start from one block and split by membership, once per distinct charset
   (a BPE vocabulary repeats the same single-byte labels across hundreds of
   edges). A split renumbers through an int array keyed [2·class + member].
   The coarsest partition is unique and classes are numbered by first byte
   occurrence, so the result does not depend on the order of the splits. *)
let equiv_classes (nfa : Nfa.t) =
  let cls = Array.make 256 0 in
  let num = ref 1 in
  let split cs =
    let ids = Array.make (2 * !num) (-1) in
    let next = ref 0 in
    for b = 0 to 255 do
      let key = (2 * cls.(b)) + Bool.to_int (Charset.mem cs (Char.chr b)) in
      if ids.(key) < 0 then begin
        ids.(key) <- !next;
        incr next
      end;
      cls.(b) <- ids.(key)
    done;
    num := !next
  in
  Array.fold_left
    (fun labels edges -> List.rev_append (List.map fst edges) labels)
    [] nfa.Nfa.trans
  |> List.sort_uniq Charset.compare
  |> List.iter split;
  (String.init 256 (fun b -> Char.chr cls.(b)), !num)

(* One representative byte per class, in class order. *)
let class_reps classmap num_classes =
  let reps = Array.make num_classes 0 in
  let seen = Array.make num_classes false in
  for b = 0 to 255 do
    let c = Char.code classmap.[b] in
    if not seen.(c) then begin
      seen.(c) <- true;
      reps.(c) <- b
    end
  done;
  reps

(* Subset construction over sorted member arrays.

   A DFA state is the sorted array of its ε-closed NFA members, interned
   by a hash over the whole array: [Hashtbl.hash] samples only a bounded
   prefix, and subsets sharing their first members are the common case.
   Each NFA state's labeled edges are expanded once, up front, into
   (class, target) pairs. Expanding a popped DFA state is one walk over
   its members' pairs that scatters every target into its class's bucket,
   then per class an ε-closure (a DFS under stamp marks), a sort and an
   intern. The work is the members' edges plus [nc] interns, not [nc]
   walks over every member. Targets are interned in class order, the
   empty set included, so the state numbering is that of the construction
   that steps the whole set once per class. *)
module Members_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    !i = n

  (* four independent multiply chains, so a 257-entry minimization
     signature costs about what [Hashtbl.hash]'s 10-entry prefix does *)
  let hash a =
    let n = Array.length a in
    let h0 = ref n and h1 = ref 0 and h2 = ref 0 and h3 = ref 0 in
    let i = ref 0 in
    while !i + 4 <= n do
      let j = !i in
      h0 := (!h0 * 0x01000193) lxor Array.unsafe_get a j;
      h1 := (!h1 * 0x01000193) lxor Array.unsafe_get a (j + 1);
      h2 := (!h2 * 0x01000193) lxor Array.unsafe_get a (j + 2);
      h3 := (!h3 * 0x01000193) lxor Array.unsafe_get a (j + 3);
      i := j + 4
    done;
    while !i < n do
      h0 := (!h0 * 0x01000193) lxor Array.unsafe_get a !i;
      incr i
    done;
    let h = (((!h0 * 0x01000193) lxor !h1) * 0x01000193) lxor !h2 in
    let h = ((h * 0x01000193) lxor !h3) * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 29)) land max_int
end)

let of_nfa ?(classes = true) ?(accel = true) ?(swar = true) ?max_states
    (nfa : Nfa.t) =
  let classmap, nc =
    if classes then equiv_classes nfa else (identity_classmap, 256)
  in
  let reps = class_reps classmap nc in
  let all_classes = List.init nc Fun.id in
  (* [edges.(s)]: the (class, target) pairs of NFA state [s]. *)
  let edges =
    Array.map
      (List.concat_map (fun (cs, q) ->
           List.filter_map
             (fun c ->
               if Charset.mem cs (Char.chr reps.(c)) then Some (c, q) else None)
             all_classes))
      nfa.trans
  in
  let buckets = Array.make nc [] in
  let mark = Array.make nfa.num_states (-1) in
  let stamp = ref (-1) in
  (* Sorted ε-closure of a bucket. *)
  let closure = function
    | [] -> [||]
    | targets ->
        incr stamp;
        let st = !stamp in
        let rec visit members = function
          | [] -> members
          | q :: rest when mark.(q) = st -> visit members rest
          | q :: rest ->
              mark.(q) <- st;
              visit (q :: members) (List.rev_append nfa.eps.(q) rest)
        in
        let set = Array.of_list (visit [] targets) in
        Array.sort Int.compare set;
        set
  in
  let tbl = Members_tbl.create 64 in
  let accept = St_util.Int_vec.create () in
  let worklist = Queue.create () in
  let intern set =
    match Members_tbl.find_opt tbl set with
    | Some id -> id
    | None ->
        let id = Members_tbl.length tbl in
        (match max_states with
        | Some cap when id >= cap ->
            failwith
              (Printf.sprintf
                 "Dfa.of_nfa: subset construction exceeded %d states \
                  (max_states cap)"
                 cap)
        | _ -> ());
        Members_tbl.add tbl set id;
        St_util.Int_vec.push accept
          (Array.fold_left
             (fun best s ->
               let r = nfa.accept_rule.(s) in
               if r >= 0 && (best < 0 || r < best) then r else best)
             (-1) set);
        Queue.add set worklist;
        id
  in
  let start_id = intern (closure [ nfa.start ]) in
  let rows = ref [] in
  while not (Queue.is_empty worklist) do
    let set = Queue.pop worklist in
    Array.iter
      (fun s ->
        List.iter (fun (c, q) -> buckets.(c) <- q :: buckets.(c)) edges.(s))
      set;
    let row =
      Array.init nc (fun c ->
          let targets = buckets.(c) in
          buckets.(c) <- [];
          intern (closure targets))
    in
    rows := row :: !rows
  done;
  of_tables ~accel ~swar ~start:start_id ~num_classes:nc ~classmap
    ~trans:(Array.concat (List.rev !rows))
    ~accept:(St_util.Int_vec.to_array accept)
    ()

(* Moore minimization, in class space. The initial partition separates
   states by Λ (so distinct token ids are never merged); refinement splits
   blocks whose members disagree on the block of some successor. The
   classmap is unchanged: merging states never coarsens the alphabet.
   Signatures are [nc + 1]-entry arrays, keyed through [Members_tbl]: a
   polymorphic [Hashtbl] would hash only their prefix, where most states
   of a BPE vocabulary agree. *)
let minimize_dfa d =
  let n = d.num_states in
  let nc = d.num_classes in
  let block = Array.make n 0 in
  (* initial blocks by accept label *)
  let label_tbl = Hashtbl.create 8 in
  let next_block = ref 0 in
  for q = 0 to n - 1 do
    let lbl = d.accept.(q) in
    match Hashtbl.find_opt label_tbl lbl with
    | Some b -> block.(q) <- b
    | None ->
        Hashtbl.add label_tbl lbl !next_block;
        block.(q) <- !next_block;
        incr next_block
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    (* signature of a state: (block, successor blocks) *)
    let sig_tbl = Members_tbl.create n in
    let new_block = Array.make n 0 in
    let count = ref 0 in
    for q = 0 to n - 1 do
      let key = Array.make (nc + 1) 0 in
      key.(0) <- block.(q);
      for c = 0 to nc - 1 do
        key.(c + 1) <- block.(d.trans.((q * nc) + c))
      done;
      match Members_tbl.find_opt sig_tbl key with
      | Some b -> new_block.(q) <- b
      | None ->
          Members_tbl.add sig_tbl key !count;
          new_block.(q) <- !count;
          incr count
    done;
    if !count <> !next_block then begin
      changed := true;
      next_block := !count;
      Array.blit new_block 0 block 0 n
    end
  done;
  let m = !next_block in
  let trans = Array.make (m * nc) 0 in
  let accept = Array.make m (-1) in
  for q = 0 to n - 1 do
    let b = block.(q) in
    accept.(b) <- d.accept.(q);
    for c = 0 to nc - 1 do
      trans.((b * nc) + c) <- block.(d.trans.((q * nc) + c))
    done
  done;
  (* Re-number so that only states reachable from start remain (merging can
     leave none unreachable, but keep the invariant explicit). Merging
     renumbers states and rebuilds [trans], so the accel tables are
     recomputed whenever the input carried them. *)
  of_tables ~accel:d.accel ~swar:(accel_swar_enabled d) ~start:block.(d.start)
    ~num_classes:nc ~classmap:d.classmap ~trans ~accept ()

let of_rules ?(minimize = true) ?classes ?accel ?swar ?max_states rules =
  let d = of_nfa ?classes ?accel ?swar ?max_states (Nfa.of_rules rules) in
  if minimize then minimize_dfa d else d

let of_grammar ?minimize ?classes ?accel ?swar ?max_states src =
  of_rules ?minimize ?classes ?accel ?swar ?max_states
    (Parser.parse_grammar src)

let co_accessible d =
  let n = d.num_states in
  let nc = d.num_classes in
  (* reverse adjacency *)
  let preds = Array.make n [] in
  for q = 0 to n - 1 do
    for c = 0 to nc - 1 do
      let q' = d.trans.((q * nc) + c) in
      preds.(q') <- q :: preds.(q')
    done
  done;
  let coacc = Bits.create n in
  let stack = ref [] in
  for q = 0 to n - 1 do
    if d.accept.(q) >= 0 then begin
      Bits.add coacc q;
      stack := q :: !stack
    end
  done;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        List.iter
          (fun p ->
            if not (Bits.mem coacc p) then begin
              Bits.add coacc p;
              stack := p :: !stack
            end)
          preds.(q)
  done;
  coacc

let reachable_nonempty d =
  let n = d.num_states in
  let nc = d.num_classes in
  (* reachable-from-start set (start reachable via ε) *)
  let reach = Bits.create n in
  Bits.add reach d.start;
  let stack = ref [ d.start ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        for c = 0 to nc - 1 do
          let q' = d.trans.((q * nc) + c) in
          if not (Bits.mem reach q') then begin
            Bits.add reach q';
            stack := q' :: !stack
          end
        done
  done;
  (* a state is reachable by a nonempty string iff it is a successor of some
     reachable state *)
  let seen = Bits.create n in
  Bits.iter
    (fun q ->
      for c = 0 to nc - 1 do
        Bits.add seen d.trans.((q * nc) + c)
      done)
    reach;
  seen

let is_reject _d coacc q = not (Bits.mem coacc q)

let equal (a : t) b =
  a.num_states = b.num_states && a.start = b.start
  && a.num_classes = b.num_classes
  && a.classmap = b.classmap && a.trans = b.trans && a.accept = b.accept
  && a.accel = b.accel
  && Bytes.equal a.accel_flags b.accel_flags
  && a.accel_stops = b.accel_stops
  && Bytes.equal a.accel_kind b.accel_kind
  && a.accel_swar = b.accel_swar
  && Bytes.equal a.accel_tbl b.accel_tbl

let pp fmt d =
  Format.fprintf fmt "dfa: %d states, start %d, %d classes@." d.num_states
    d.start d.num_classes;
  for q = 0 to d.num_states - 1 do
    let rule = d.accept.(q) in
    Format.fprintf fmt "  %d%s:" q
      (if rule >= 0 then Printf.sprintf " [rule %d]" rule else "");
    (* group target states by contiguous byte ranges *)
    let c = ref 0 in
    while !c <= 255 do
      let tgt = step d q (Char.chr !c) in
      let j = ref !c in
      while !j < 255 && step d q (Char.chr (!j + 1)) = tgt do
        incr j
      done;
      if !j > !c then Format.fprintf fmt " %02x-%02x->%d" !c !j tgt
      else Format.fprintf fmt " %02x->%d" !c tgt;
      c := !j + 1
    done;
    Format.fprintf fmt "@."
  done
