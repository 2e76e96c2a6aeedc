open St_automata
module Bits = St_util.Bits

(* The token-extension DFA is built *lazily*: a powerstate's transitions
   are materialized the first time they are taken. Eager construction can
   be exponential in K (each subset of "which of the last K positions can
   still extend a token" is a distinct powerstate); on any concrete stream
   only the windows that actually occur are materialized, so the lazy
   automaton keeps the O(1) amortized per-symbol cost for arbitrary K.
   This realizes the paper's implementation note that the token-extension
   paths are kept in a compact shared structure from which the TeDFA is
   built without enumerating paths.

   Rows are indexed by the underlying DFA's byte equivalence classes, not
   raw bytes: bytes the DFA cannot distinguish take identical extension
   paths, so the powerset step factors through the classmap. A row is
   [width = num_classes + 1] wide; the last column is the EOF
   pseudo-symbol. *)

(* A powerstate is stored sparse: the sorted ids of its members outside
   the restart set, followed by the pseudo-member [restart_id t] when the
   restart set is included. The restart set [inject] (every final at j = 0)
   is in every set a real symbol produces and in none that EOF produces,
   since steps only produce j >= 1; so the j = 0 members are exactly
   [inject], present iff the marker is. On the mini BPE vocabulary (32 KB
   of seeded text) a set averages ~357 members, ~16 outside [inject],
   and [inject]'s image under a class averages 0.3 members; so the core is
   what is stored, hashed and stepped; [inject]'s image under each class is
   computed once at build time and unioned in.

   [Set_tbl] hashes every element: [Hashtbl.hash] samples only a bounded
   prefix, and cores sharing their first members are common. *)

module Set_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash a =
    let h = ref (Array.length a) in
    Array.iter (fun x -> h := (!h * 0x01000193) lxor x) a;
    !h land max_int
end)

type t = {
  dfa : Dfa.t;
  k : int;
  width : int;  (* columns per transition row: num_classes + 1 (EOF last) *)
  fidx : int array;
  num_finals : int;
  words : int;  (* int64 words per emit-bit row: ceil(|DFA|/64) *)
  mutable num_states : int;
  mutable capacity : int;
  mutable trans : int array;  (* capacity × width; -1 = not yet built *)
  mutable emit_rows : int64 array;  (* capacity × words *)
  mutable origin_rows : Bits.t array;  (* per state: extendable finals *)
  mutable sets : int array array;  (* per state: sparse powerset, above *)
  mutable set_words : int;  (* heap words of [sets] and [origin_rows] *)
  mutable accel_known : Bytes.t;  (* capacity; nonzero = stop row computed *)
  mutable accel_stops : int array;  (* capacity × 8: 256-bit stop bitmaps *)
  mutable accel_kinds : Bytes.t;  (* capacity; per-row Dfa.accel_kind byte *)
  mutable accel_masks : int64 array;  (* capacity × 3: SWAR broadcast masks *)
  mutable accel_tbl : Bytes.t;  (* capacity × 256: 0/1 gather stop tables *)
  mutable accel_rows : int;  (* stop rows computed so far (footprint) *)
  tbl : int Set_tbl.t;
  (* NFA parameters *)
  m : int;
  active_count : int;
  nfa_size : int;
  final_state : int array;  (* final index -> DFA state *)
  coacc : Bits.t;
  images : int array array;  (* per class: image of the restart set *)
  (* step scratch, touched only under [lock]: *)
  mark : Bits.t;  (* members already in [buf] *)
  mutable buf : int array;
  start : int;
  lock : Mutex.t;  (* guards materialization; reads are lock-free *)
}

let eof_symbol = 256
let width t = t.width
let eof_class t = t.width - 1

(* NFA state encoding, given M = DFA size, F = number of finals, K:
   - Active (f0, q, j), j ∈ 0..K-1:  id = f0*M*K + q*K + j
   - Done (f0, j), j ∈ 1..K:         id = F*M*K + f0*K + (j-1)
   Accepting states are Done (f0, K); Λ(Done (f0, _)) = f0. *)

let active t f0 q j = (f0 * t.m * t.k) + (q * t.k) + j
let done_ t f0 j = t.active_count + (f0 * t.k) + (j - 1)

let grow t =
  let cap = 2 * t.capacity in
  let trans = Array.make (cap * t.width) (-1) in
  Array.blit t.trans 0 trans 0 (t.num_states * t.width);
  t.trans <- trans;
  let emit_rows = Array.make (cap * t.words) 0L in
  Array.blit t.emit_rows 0 emit_rows 0 (t.num_states * t.words);
  t.emit_rows <- emit_rows;
  let origin_rows = Array.make cap (Bits.create 0) in
  Array.blit t.origin_rows 0 origin_rows 0 t.num_states;
  t.origin_rows <- origin_rows;
  let sets = Array.make cap [||] in
  Array.blit t.sets 0 sets 0 t.num_states;
  t.sets <- sets;
  let accel_known = Bytes.make cap '\000' in
  Bytes.blit t.accel_known 0 accel_known 0 t.num_states;
  t.accel_known <- accel_known;
  let accel_stops = Array.make (cap * 8) 0 in
  Array.blit t.accel_stops 0 accel_stops 0 (t.num_states * 8);
  t.accel_stops <- accel_stops;
  let accel_kinds = Bytes.make cap '\000' in
  Bytes.blit t.accel_kinds 0 accel_kinds 0 t.num_states;
  t.accel_kinds <- accel_kinds;
  let accel_masks = Array.make (cap * 3) 0L in
  Array.blit t.accel_masks 0 accel_masks 0 (t.num_states * 3);
  t.accel_masks <- accel_masks;
  let accel_tbl = Bytes.make (cap * 256) '\000' in
  Bytes.blit t.accel_tbl 0 accel_tbl 0 (t.num_states * 256);
  t.accel_tbl <- accel_tbl;
  t.capacity <- cap

(* The pseudo-member standing for the whole restart set; it sorts last. *)
let restart_id t = t.nfa_size

(* intern a powerset, computing its origin set and emit-bit row *)
let intern t set =
  match Set_tbl.find_opt t.tbl set with
  | Some id -> id
  | None ->
      if t.num_states = t.capacity then grow t;
      let id = t.num_states in
      t.num_states <- id + 1;
      Set_tbl.add t.tbl set id;
      t.sets.(id) <- set;
      (* the accepting members Done (f0, K) all lie in the core *)
      let origin = Bits.create (max t.num_finals 1) in
      Array.iter
        (fun nid ->
          let d = nid - t.active_count in
          if d >= 0 && nid < t.nfa_size && d mod t.k = t.k - 1 then
            Bits.add origin (d / t.k))
        set;
      t.origin_rows.(id) <- origin;
      t.set_words <-
        t.set_words + Obj.reachable_words (Obj.repr set)
        + Obj.reachable_words (Obj.repr origin);
      (* emit bit for (id, q): q final and no completed extension path *)
      for q = 0 to t.m - 1 do
        if t.fidx.(q) >= 0 && not (Bits.mem origin t.fidx.(q)) then
          t.emit_rows.((id * t.words) + (q lsr 6)) <-
            Int64.logor
              t.emit_rows.((id * t.words) + (q lsr 6))
              (Int64.shift_left 1L (q land 63))
      done;
      id

(* One NFA step of member [id] on a symbol class ([eof_class t] for EOF),
   passing each successor to [add]. *)
let step_member t cls id add =
  if id < t.active_count then begin
    if cls <> eof_class t then begin
      let f0 = id / (t.m * t.k) in
      let rem = id mod (t.m * t.k) in
      let q = rem / t.k and j = rem mod t.k in
      let q = if j = 0 then t.final_state.(f0) else q in
      let q' = Dfa.step_class t.dfa q cls in
      let j' = j + 1 in
      if Dfa.is_final t.dfa q' then add (done_ t f0 j')
      else if j' < t.k && Bits.mem t.coacc q' then
        (* dead DFA states can never complete a path: prune *)
        add (active t f0 q' j')
    end
  end
  else begin
    let id' = id - t.active_count in
    let f0 = id' / t.k and j = (id' mod t.k) + 1 in
    if j < t.k then add (done_ t f0 (j + 1))
  end

(* One step of the whole powerset: the core member by member, the restart
   set through its precomputed image, deduplicated through [mark] (cleared
   again before returning) and sorted; restart injection applied for real
   symbols only. Uses the shared scratch: call under [t.lock]. *)
let step_set t set cls =
  let n = ref 0 in
  let add id =
    if not (Bits.mem t.mark id) then begin
      Bits.add t.mark id;
      if !n = Array.length t.buf then begin
        let buf = Array.make (2 * !n) 0 in
        Array.blit t.buf 0 buf 0 !n;
        t.buf <- buf
      end;
      t.buf.(!n) <- id;
      incr n
    end
  in
  Array.iter
    (fun id ->
      if id = restart_id t then Array.iter add t.images.(cls)
      else step_member t cls id add)
    set;
  for i = 0 to !n - 1 do
    Bits.remove t.mark t.buf.(i)
  done;
  let restart = cls <> eof_class t && t.num_finals > 0 in
  let next = Array.make (if restart then !n + 1 else !n) (restart_id t) in
  Array.blit t.buf 0 next 0 !n;
  Array.sort Int.compare next;
  next

let build dfa ~k =
  assert (k >= 1);
  let m = Dfa.size dfa in
  let width = Dfa.num_classes dfa + 1 in
  let fidx = Array.make m (-1) in
  let num_finals = ref 0 in
  for q = 0 to m - 1 do
    if Dfa.is_final dfa q then begin
      fidx.(q) <- !num_finals;
      incr num_finals
    end
  done;
  let f = !num_finals in
  let active_count = f * m * k in
  let nfa_size = active_count + (f * k) in
  let final_state = Array.make (max f 1) 0 in
  for q = 0 to m - 1 do
    if fidx.(q) >= 0 then final_state.(fidx.(q)) <- q
  done;
  let capacity = 16 in
  let words = (m + 63) / 64 in
  let t =
    {
      dfa;
      k;
      width;
      fidx;
      num_finals = f;
      words;
      num_states = 0;
      capacity;
      trans = Array.make (capacity * width) (-1);
      emit_rows = Array.make (capacity * words) 0L;
      origin_rows = Array.make capacity (Bits.create 0);
      sets = Array.make capacity [||];
      set_words = 0;
      accel_known = Bytes.make capacity '\000';
      accel_stops = Array.make (capacity * 8) 0;
      accel_kinds = Bytes.make capacity '\000';
      accel_masks = Array.make (capacity * 3) 0L;
      accel_tbl = Bytes.make (capacity * 256) '\000';
      accel_rows = 0;
      tbl = Set_tbl.create 64;
      m;
      active_count;
      nfa_size;
      final_state;
      coacc = Dfa.co_accessible dfa;
      images = [||];
      mark = Bits.create nfa_size;
      buf = Array.make 64 0;
      start = 0;
      lock = Mutex.create ();
    }
  in
  (* the restart set: every final at j = 0 *)
  let inject = Array.init f (fun f0 -> active t f0 final_state.(f0) 0) in
  let images =
    Array.init width (fun cls ->
        let image = ref [] in
        Array.iter
          (fun id -> step_member t cls id (fun id' -> image := id' :: !image))
          inject;
        Array.of_list !image)
  in
  let t = { t with images } in
  let start = intern t (if f > 0 then [| restart_id t |] else [||]) in
  assert (start = 0);
  t

let materialize t s cls =
  (* Multi-domain safety: materialization (which may grow and replace the
     arrays) is serialized; readers race benignly — a stale array read
     yields -1 and falls back here. *)
  Mutex.lock t.lock;
  let id =
    match t.trans.((s * t.width) + cls) with
    | tgt when tgt >= 0 -> tgt
    | _ ->
        let id = intern t (step_set t t.sets.(s) cls) in
        (* t.trans may have been reallocated by intern/grow: write after *)
        t.trans.((s * t.width) + cls) <- id;
        id
  in
  Mutex.unlock t.lock;
  id

let step_class t s cls =
  let tgt = t.trans.((s * t.width) + cls) in
  if tgt >= 0 then tgt else materialize t s cls

let class_of_symbol t sym =
  if sym = eof_symbol then eof_class t else Dfa.class_of_byte t.dfa sym

let step t s sym = step_class t s (class_of_symbol t sym)

let extendable t s q =
  let f0 = t.fidx.(q) in
  f0 >= 0 && Bits.mem t.origin_rows.(s) f0

let emit_bit t s q =
  Int64.logand
    (Int64.shift_right_logical
       (Array.unsafe_get t.emit_rows ((s * t.words) + (q lsr 6)))
       (q land 63))
    1L
  <> 0L

let num_states t = t.num_states

(* Lazy per-powerstate stop bitmaps for the accelerated TE runners: bit b
   set iff byte b moves powerstate [s] somewhere else. Computed the first
   time a skip loop enters with [s] as the lookahead state, by forcing that
   powerstate's real-symbol transitions (EOF excluded — the skip loop never
   feeds it). [step_class] does its own locking, so the row is assembled
   outside the mutex and only the publication (bitmap write + known flag) is
   serialized; a racing reader that sees a stale known byte just recomputes
   the same row. *)
let compute_accel_row t s =
  let ncls = t.width - 1 in
  let selfloop = Array.make ncls false in
  for cls = 0 to ncls - 1 do
    selfloop.(cls) <- step_class t s cls = s
  done;
  let w = Array.make 8 0 in
  for b = 0 to 255 do
    if not selfloop.(Dfa.class_of_byte t.dfa b) then
      w.(b lsr 5) <- w.(b lsr 5) lor (1 lsl (b land 31))
  done;
  (* classify the row for the SWAR tier, mirroring the DFA-side tables —
     but only when the underlying build carries a SWAR classification, so
     a ~swar:false engine stays pure-bitmap on the TE side too *)
  let kind, masks, tbl =
    if Dfa.accel_swar_enabled t.dfa then
      let kind, masks = Dfa.swar_classify ~num_states:1 ~stops:w in
      (kind, masks, Dfa.swar_byte_table ~num_states:1 ~stops:w)
    else (Bytes.make 1 '\000', Array.make 3 0L, Bytes.make 256 '\000')
  in
  Mutex.lock t.lock;
  if Bytes.get t.accel_known s = '\000' then begin
    Array.blit w 0 t.accel_stops (s * 8) 8;
    Array.blit masks 0 t.accel_masks (s * 3) 3;
    Bytes.blit tbl 0 t.accel_tbl (s * 256) 256;
    Bytes.set t.accel_kinds s (Bytes.get kind 0);
    Bytes.set t.accel_known s '\001';
    t.accel_rows <- t.accel_rows + 1
  end;
  Mutex.unlock t.lock

let accel_stops t s =
  if Bytes.unsafe_get t.accel_known s = '\000' then compute_accel_row t s;
  t.accel_stops

let accel_kinds t = t.accel_kinds
let accel_masks t = t.accel_masks
let accel_tbl t = t.accel_tbl

let accel_bytes t =
  (t.accel_rows * (32 + 24 + 256)) + (2 * t.num_states)

let set_bytes t = t.set_words * (Sys.word_size / 8)

let start _t = 0
let k t = t.k
let num_finals t = t.num_finals
let final_index t q = t.fidx.(q)

module Raw = struct
  let trans t = t.trans
  let emit_rows t = t.emit_rows
  let words t = t.words
  let width t = t.width
end
