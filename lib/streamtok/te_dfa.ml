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

(* A powerstate is stored as a key of K + 1 ints: the interned ids of its
   K layers, then a restart flag. Layer j (key slot j - 1) holds the
   members at offset j, j = 1..K, as a sorted id array; the j = 0 members
   are exactly the restart set [inject] (every final at j = 0), which is in
   every set a real symbol produces and in none that EOF produces, so one
   flag stands for it. Offsets partition the members, so two powersets are
   equal iff their keys are.

   A step moves layer j to layer j + 1 and never looks at the others; the
   restart set's image under the class becomes layer 1. So a step is K
   lookups in per-layer, per-class memos, and the member-by-member work
   runs once per distinct (layer, class) pair. On the mini BPE vocabulary
   (2 MB of seeded text, K = 5) 1.08M materialized transitions reach 256k
   powerstates, which share 184 layers and 15.8k layer steps.

   The accepting members Done (f0, K) all lie in layer K, so a
   powerstate's origin set and emit-bit row are functions of that layer:
   each layer computes them once, [extendable] reads the origin set
   through the key, and a new powerstate copies the emit row.

   Keys and layers are hashed in full: [Hashtbl.hash] samples only a
   bounded prefix, and layers sharing their first members are common. *)

let hash_ints a off n =
  let h = ref n in
  for j = off to off + n - 1 do
    h := (!h * 0x01000193) lxor Array.unsafe_get a j
  done;
  let h = !h * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

module Arr_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash a = hash_ints a 0 (Array.length a) land max_int
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
  mutable trans : Bytes.t;  (* capacity × width int32s; -1 = not yet built *)
  mutable emit_rows : Bytes.t;  (* capacity × words int64s *)
  mutable keys : int array;  (* capacity × (K + 1): layer ids, restart flag *)
  mutable slots : int array;  (* 2 × capacity, open-addressed key -> state *)
  mutable accel_idx : int array;  (* per state: accel row, -1 = none yet *)
  (* layers, touched only under [lock]: *)
  mutable num_layers : int;
  mutable layers : int array array;  (* sorted member ids *)
  mutable layer_next : Bytes.t array;  (* int32 step memo; -1 = unset *)
  mutable layer_origin : Bits.t array;  (* finals with a completed path *)
  mutable layer_emit : Bytes.t array;  (* emit-bit row, words int64s *)
  layer_tbl : int Arr_tbl.t;  (* members -> layer *)
  mutable set_words : int;  (* heap words of keys and layers *)
  (* accel rows, allocated on first use: *)
  mutable accel_rows : int;
  mutable accel_cap : int;
  mutable accel_stops : int array;  (* accel_cap × 8: 256-bit stop bitmaps *)
  mutable accel_kinds : Bytes.t;  (* accel_cap; per-row Dfa.accel_kind byte *)
  mutable accel_masks : int64 array;  (* accel_cap × 3: SWAR broadcast masks *)
  mutable accel_tbl : Bytes.t;  (* accel_cap × 256: 0/1 gather stop tables *)
  (* NFA parameters *)
  m : int;
  active_count : int;
  final_state : int array;  (* final index -> DFA state *)
  coacc : Bits.t;
  mutable images : int array;  (* per class: layer 1 after a restart *)
  (* step scratch, touched only under [lock]: *)
  key : int array;  (* the key being interned *)
  mark : Bits.t;  (* members already in [buf] *)
  mutable buf : int array;
  lock : Mutex.t;  (* guards materialization; reads are lock-free *)
}

let eof_symbol = 256
let width t = t.width
let eof_class t = t.width - 1

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let target trans i = Int32.to_int (get32u trans (i lsl 2))

(* NFA state encoding, given M = DFA size, F = number of finals, K:
   - Active (f0, q, j), j ∈ 0..K-1:  id = f0*M*K + q*K + j
   - Done (f0, j), j ∈ 1..K:         id = F*M*K + f0*K + (j-1)
   Accepting states are Done (f0, K); Λ(Done (f0, _)) = f0. *)

let active t f0 q j = (f0 * t.m * t.k) + (q * t.k) + j
let done_ t f0 j = t.active_count + (f0 * t.k) + (j - 1)

let extend a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let extend_bytes b n fill =
  let b' = Bytes.make n fill in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

(* Powerstate keys live in the flat [keys] array and are found through
   [slots], a linear-probing table of state ids (-1 = empty) at most half
   full: a lookup touches one slot run and one key, allocating nothing. *)

(* the slot holding the key [t.key], or the empty slot where it goes *)
let find_slot t =
  let w = t.k + 1 and mask = Array.length t.slots - 1 in
  let rec probe i =
    let id = t.slots.(i) in
    if id < 0 then i
    else begin
      let j = ref 0 in
      while !j < w && t.keys.((id * w) + !j) = t.key.(!j) do
        incr j
      done;
      if !j = w then i else probe ((i + 1) land mask)
    end
  in
  probe (hash_ints t.key 0 w land mask)

let rehash t n =
  let w = t.k + 1 in
  let slots = Array.make n (-1) in
  for id = 0 to t.num_states - 1 do
    let i = ref (hash_ints t.keys (id * w) w land (n - 1)) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land (n - 1)
    done;
    slots.(!i) <- id
  done;
  t.slots <- slots

let grow t =
  let cap = 2 * t.capacity in
  t.trans <- extend_bytes t.trans (cap * t.width * 4) '\255';
  t.emit_rows <- extend_bytes t.emit_rows (cap * t.words * 8) '\000';
  t.keys <- extend t.keys (cap * (t.k + 1)) 0;
  rehash t (2 * cap);
  t.accel_idx <- extend t.accel_idx cap (-1);
  t.capacity <- cap

(* Done (f0, K), the accepting members, for which the result is f0 *)
let accepting t nid =
  let d = nid - t.active_count in
  if d >= 0 && d mod t.k = t.k - 1 then d / t.k else -1

(* intern a sorted member array as a layer, with its origin set and emit-bit
   row; layers without accepting members share the empty layer's *)
let intern_layer t members =
  match Arr_tbl.find_opt t.layer_tbl members with
  | Some l -> l
  | None ->
      let l = t.num_layers in
      if l = Array.length t.layers then begin
        let n = max 16 (2 * l) in
        t.layers <- extend t.layers n [||];
        t.layer_next <- extend t.layer_next n Bytes.empty;
        t.layer_origin <- extend t.layer_origin n (Bits.create 0);
        t.layer_emit <- extend t.layer_emit n Bytes.empty
      end;
      t.num_layers <- l + 1;
      Arr_tbl.add t.layer_tbl members l;
      t.layers.(l) <- members;
      t.set_words <- t.set_words + Obj.reachable_words (Obj.repr members);
      if l > 0 && not (Array.exists (fun nid -> accepting t nid >= 0) members)
      then begin
        t.layer_origin.(l) <- t.layer_origin.(0);
        t.layer_emit.(l) <- t.layer_emit.(0)
      end
      else begin
        let origin = Bits.create (max t.num_finals 1) in
        Array.iter
          (fun nid ->
            let f0 = accepting t nid in
            if f0 >= 0 then Bits.add origin f0)
          members;
        (* emit bit for q: q final and no completed extension path *)
        let emit = Bytes.make (t.words * 8) '\000' in
        for q = 0 to t.m - 1 do
          if t.fidx.(q) >= 0 && not (Bits.mem origin t.fidx.(q)) then begin
            let i = (q lsr 6) lsl 3 in
            set64u emit i
              (Int64.logor (get64u emit i) (Int64.shift_left 1L (q land 63)))
          end
        done;
        t.layer_origin.(l) <- origin;
        t.layer_emit.(l) <- emit;
        t.set_words <-
          t.set_words
          + Obj.reachable_words (Obj.repr origin)
          + Obj.reachable_words (Obj.repr emit)
      end;
      l

(* intern the powerstate key [t.key], copying its emit-bit row from
   layer K *)
let intern t =
  let i = find_slot t in
  if t.slots.(i) >= 0 then t.slots.(i)
  else begin
    let i = if t.num_states < t.capacity then i else (grow t; find_slot t) in
    let id = t.num_states and w = t.k + 1 in
    t.num_states <- id + 1;
    t.slots.(i) <- id;
    Array.blit t.key 0 t.keys (id * w) w;
    Bytes.blit t.layer_emit.(t.key.(t.k - 1)) 0 t.emit_rows (id * t.words * 8)
      (t.words * 8);
    t.set_words <- t.set_words + w;
    id
  end

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

(* The layer of the successors of [members], deduplicated through [mark]
   (cleared again before returning) and sorted. Uses the shared scratch:
   call under [t.lock]. *)
let step_members t members cls =
  let n = ref 0 in
  let add id =
    if not (Bits.mem t.mark id) then begin
      Bits.add t.mark id;
      if !n = Array.length t.buf then t.buf <- extend t.buf (2 * !n) 0;
      t.buf.(!n) <- id;
      incr n
    end
  in
  Array.iter (fun id -> step_member t cls id add) members;
  let next = Array.sub t.buf 0 !n in
  Array.iter (Bits.remove t.mark) next;
  Array.sort Int.compare next;
  intern_layer t next

(* memoized one-class step of layer [l], an int32 per class allocated on
   the layer's first step; call under [t.lock] *)
let step_layer t l cls =
  if l = 0 then 0
  else begin
    if Bytes.length t.layer_next.(l) = 0 then begin
      let memo = Bytes.make (t.width * 4) '\255' in
      t.layer_next.(l) <- memo;
      t.set_words <- t.set_words + Obj.reachable_words (Obj.repr memo)
    end;
    let memo = t.layer_next.(l) in
    let next = target memo cls in
    if next >= 0 then next
    else begin
      let next = step_members t t.layers.(l) cls in
      set32u memo (cls lsl 2) (Int32.of_int next);
      next
    end
  end

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
      trans = Bytes.make (capacity * width * 4) '\255';
      emit_rows = Bytes.make (capacity * words * 8) '\000';
      keys = Array.make (capacity * (k + 1)) 0;
      slots = Array.make (2 * capacity) (-1);
      accel_idx = Array.make capacity (-1);
      num_layers = 0;
      layers = [||];
      layer_next = [||];
      layer_origin = [||];
      layer_emit = [||];
      layer_tbl = Arr_tbl.create 64;
      set_words = 0;
      accel_rows = 0;
      accel_cap = 0;
      accel_stops = [||];
      accel_kinds = Bytes.empty;
      accel_masks = [||];
      accel_tbl = Bytes.empty;
      m;
      active_count;
      final_state;
      coacc = Dfa.co_accessible dfa;
      images = [||];
      key = Array.make (k + 1) 0;
      mark = Bits.create nfa_size;
      buf = Array.make 64 0;
      lock = Mutex.create ();
    }
  in
  (* layer 0 is the empty layer *)
  let empty = intern_layer t [||] in
  assert (empty = 0);
  (* the restart set: every final at j = 0 *)
  let inject = Array.init f (fun f0 -> active t f0 final_state.(f0) 0) in
  t.images <- Array.init width (step_members t inject);
  if f > 0 then t.key.(k) <- 1;
  let start = intern t in
  assert (start = 0);
  t

(* The key of powerstate [s]'s successor into [t.key]: layer j + 1 is
   layer j's memoized step, layer 1 the restart set's image if [s]
   included it; restart injection applied for real symbols only. *)
let step_key t s cls =
  let k = t.k and base = s * (t.k + 1) in
  for j = k - 1 downto 1 do
    t.key.(j) <- step_layer t t.keys.(base + j - 1) cls
  done;
  t.key.(0) <- (if t.keys.(base + k) = 1 then t.images.(cls) else 0);
  t.key.(k) <- (if cls <> eof_class t && t.num_finals > 0 then 1 else 0)

let materialize t s cls =
  (* Multi-domain safety: materialization (which may grow and replace the
     arrays) is serialized; readers race benignly — a stale array read
     yields -1 and falls back here. *)
  Mutex.lock t.lock;
  let i = (s * t.width) + cls in
  let id =
    match target t.trans i with
    | tgt when tgt >= 0 -> tgt
    | _ ->
        step_key t s cls;
        let id = intern t in
        (* t.trans may have been reallocated by intern/grow: write after *)
        set32u t.trans (i lsl 2) (Int32.of_int id);
        id
  in
  Mutex.unlock t.lock;
  id

let step_class t s cls =
  let tgt = target t.trans ((s * t.width) + cls) in
  if tgt >= 0 then tgt else materialize t s cls

let class_of_symbol t sym =
  if sym = eof_symbol then eof_class t else Dfa.class_of_byte t.dfa sym

let step t s sym = step_class t s (class_of_symbol t sym)

let extendable t s q =
  let f0 = t.fidx.(q) in
  f0 >= 0 && Bits.mem t.layer_origin.(t.keys.((s * (t.k + 1)) + t.k - 1)) f0

let emit_bit t s q =
  Int64.logand
    (Int64.shift_right_logical
       (get64u t.emit_rows (((s * t.words) + (q lsr 6)) lsl 3))
       (q land 63))
    1L
  <> 0L

let num_states t = t.num_states
let num_layers t = t.num_layers

let grow_accel t =
  let cap = max 4 (2 * t.accel_cap) in
  t.accel_stops <- extend t.accel_stops (cap * 8) 0;
  t.accel_masks <- extend t.accel_masks (cap * 3) 0L;
  t.accel_kinds <- extend_bytes t.accel_kinds cap '\000';
  t.accel_tbl <- extend_bytes t.accel_tbl (cap * 256) '\000';
  t.accel_cap <- cap

(* Lazy per-powerstate stop bitmaps for the accelerated TE runners: bit b
   set iff byte b moves powerstate [s] somewhere else. Computed the first
   time a skip loop enters with [s] as the lookahead state, by forcing that
   powerstate's real-symbol transitions (EOF excluded — the skip loop never
   feeds it). [step_class] does its own locking, so the row is assembled
   outside the mutex and only the publication (row allocation, writes,
   then the state's row index) is serialized; a racing reader that sees a
   stale index just recomputes the same row, and the first one published
   wins. *)
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
  if t.accel_idx.(s) < 0 then begin
    if t.accel_rows = t.accel_cap then grow_accel t;
    let r = t.accel_rows in
    Array.blit w 0 t.accel_stops (r * 8) 8;
    Array.blit masks 0 t.accel_masks (r * 3) 3;
    Bytes.blit tbl 0 t.accel_tbl (r * 256) 256;
    Bytes.set t.accel_kinds r (Bytes.get kind 0);
    t.accel_rows <- r + 1;
    t.accel_idx.(s) <- r
  end;
  let r = t.accel_idx.(s) in
  Mutex.unlock t.lock;
  r

let accel_row t s =
  let r = Array.unsafe_get t.accel_idx s in
  if r >= 0 then r else compute_accel_row t s

let accel_stops t = t.accel_stops
let accel_kinds t = t.accel_kinds
let accel_masks t = t.accel_masks
let accel_tbl t = t.accel_tbl
let set_bytes t = t.set_words * (Sys.word_size / 8)

(* per state: its int32 transition row, its emit-bit row, two key-table
   slots and its accel-row index (its key is in [set_bytes]); per accel
   row: the stop bitmap (32 B as packed), masks, gather table and kind
   byte *)
let footprint_bytes t =
  (t.num_states * ((t.width * 4) + (t.words * 8) + 24))
  + (t.accel_rows * (32 + 24 + 256 + 1))
  + set_bytes t

let start _t = 0
let k t = t.k
let num_finals t = t.num_finals
let final_index t q = t.fidx.(q)

module Raw = struct
  external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  let trans t = t.trans
  let emit_rows t = t.emit_rows
  let words t = t.words
  let width t = t.width
end
