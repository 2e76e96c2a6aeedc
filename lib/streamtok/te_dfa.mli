(** The token-extension DFA (paper §5.2).

    For a tokenization DFA [A] with max-TND [K], a {e token-extension path}
    is a path [q →a₁ q₁ → … →aₖ qₖ] (k ≤ K) whose endpoints are final and
    whose intermediate states are non-final. The token-extension NFA
    recognizes the labels of these paths padded to length exactly [K]; its
    states are labeled with the path's first state [fst(π)]. The
    token-extension DFA results from a modified powerset construction that
    re-injects the initial states at every step ("restart"), so that while
    scanning the stream it simultaneously tracks extension paths starting
    at every position.

    The NFA is never materialized as an explicit path enumeration: its
    states are the compact triples [(q₀, q, j)] (in-progress path from
    final state [q₀], currently at [q], [j] symbols consumed) and pairs
    [(q₀, j)] ("done": the path already ended at a final state and is
    padding to length [K]) — the sharing-based structure of the paper's
    implementation note. In-progress paths through non-co-accessible DFA
    states are pruned.

    A powerstate is stored as K + 1 ints: the interned ids of its K
    {e layers}, then a restart flag. Layer [j] is the sorted array of the
    members at offset [j] ([j = 1..K]); the [j = 0] members are exactly the
    restart set (every final [q₀] at [j = 0]), present iff the last symbol
    was not EOF, so one flag stands for them. Offsets partition the
    members, so keys are equal iff powersets are. A step maps layer [j] to
    layer [j + 1] alone and the restart set's image to layer 1, so each
    layer memoizes its one-class step and a powerstate step is K lookups.
    On the mini BPE vocabulary 256k powerstates over 2 MB of seeded text
    share 184 layers.

    The accepting members all lie in layer K, so the origin set
    ({!extendable}) and the emit-bit row ({!emit_bit}) are computed once
    per layer; {!extendable} reads layer K's origin set through the key,
    and a new powerstate copies layer K's emit-bit row.

    The DFA itself is {e lazy}: powerstates and their transitions
    materialize the first time {!step} takes them (eager construction is
    exponential in [K] in the worst case; on a concrete stream only the
    windows that occur are built, preserving O(1) amortized work per
    symbol). Consequently {!step} mutates internal tables; it is
    idempotent and the automaton's answers are deterministic.

    An extra EOF pseudo-symbol kills in-progress paths but advances the
    padding; the engine feeds it [K] times when the stream ends, so
    maximality checks near end-of-stream are exact.

    Transition rows are indexed by the underlying DFA's byte equivalence
    classes ([Dfa.num_classes + 1] columns, EOF last): bytes the DFA cannot
    distinguish take identical extension paths, so class compression is
    exact here too. The rows are native-endian int32s in one [Bytes.t]
    ([-1] = not yet built), and the emit-bit rows int64s in another: half
    the size of an [int array] row, copied by [memcpy] on growth, and never
    scanned by the GC. The byte-level {!step}/{!eof_symbol}
    interface is kept (it translates through the classmap); hot loops that
    already hold a class use {!step_class} with {!eof_class}. *)

open St_automata

type t

val eof_symbol : int

(** Columns per transition row: [Dfa.num_classes + 1]. *)
val width : t -> int

(** The class-space EOF column: [width - 1]. *)
val eof_class : t -> int

(** [build dfa ~k] prepares the automaton (only the start state is
    materialized). Requires [k ≥ 1]. *)
val build : Dfa.t -> k:int -> t

(** The start powerstate (the restart injection set). *)
val start : t -> int

val k : t -> int

(** Powerstates materialized so far. *)
val num_states : t -> int

val num_finals : t -> int

(** Dense index of a final DFA state, -1 for non-final. *)
val final_index : t -> int -> int

(** [step te s sym] with [sym] ∈ 0..255 or {!eof_symbol}; materializes the
    target powerstate on first use. *)
val step : t -> int -> int -> int

(** [step_class te s cls] with [cls] ∈ 0..num_classes-1 or {!eof_class}:
    the two-load form for callers that already translated the byte. *)
val step_class : t -> int -> int -> int

(** [extendable te s q] — some token-extension path starting at final DFA
    state [q] matches the (padded) window just consumed, i.e. the token
    ending at [q] is {e not} maximal. *)
val extendable : t -> int -> int -> bool

(** [emit_bit te s q] — the token-maximality table entry T[q][S]: true iff
    [q] is final and the token ending at [q] is maximal. Single packed-bit
    read; the engine's per-symbol check. *)
val emit_bit : t -> int -> int -> bool

(** [accel_row te s] — the acceleration row of powerstate [s], computed
    and cached on first use: its 256-bit stop-byte bitmap (bit [b] set iff
    byte [b] moves [s] somewhere else), SWAR kind byte and masks, and
    gather table. Rows are allocated only for powerstates a skip loop
    enters, and are indexed by this row number, not by [s], in the
    {!Dfa.skip_run2} layout. *)
val accel_row : t -> int -> int

(** The packed stop bitmaps, 8 words per accel row (row [r*8]). Like the
    {!Raw} views, the accel arrays are replaced wholesale on growth, so
    re-fetch them after each {!accel_row}. *)
val accel_stops : t -> int array

(** Per-accel-row {!Dfa.type:t.accel_kind} bytes (all zero when the
    underlying DFA was built [~swar:false]). *)
val accel_kinds : t -> Bytes.t

(** Per-accel-row SWAR broadcast masks (3 per row, [r*3]). *)
val accel_masks : t -> int64 array

(** Per-accel-row 256-byte 0/1 gather stop tables (row [r*256]), in the
    {!Dfa.type:t.accel_tbl} layout, for {!Dfa.skip_run2}'s mixed-pair
    loop. *)
val accel_tbl : t -> Bytes.t

(** Layers interned so far (the empty layer included). *)
val num_layers : t -> int

(** Heap bytes held by the powerstate keys and the layers with their
    step memos, origin sets and emit-bit rows (monotone in use). *)
val set_bytes : t -> int

(** Bytes held by the materialized automaton (monotone in use): per
    powerstate its transition and emit-bit rows, two key-table slots and
    its accel-row index; the computed accel rows; and {!set_bytes}. *)
val footprint_bytes : t -> int

(**/**)

(** Internal raw views for the engine's hot loop. The arrays are replaced
    wholesale when the automaton grows, so callers must re-fetch them after
    any {!step} that materialized a state (a cached copy stays valid for
    reads of already-materialized states). *)
module Raw : sig
  (** capacity × {!width} int32 entries; entry [i] is at byte [4 * i]
      (read it with {!get32u}), [-1] = not yet built. *)
  val trans : t -> Bytes.t

  (** Unchecked native-endian int32 load at a byte offset. *)
  external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

  (** capacity × {!words} native-endian int64s; word [i] is at byte
      [8 * i] (read it with {!get64u}). *)
  val emit_rows : t -> Bytes.t

  (** Unchecked native-endian int64 load at a byte offset. *)
  external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  val words : t -> int
  val width : t -> int
end
