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

    A powerstate is stored sparse: a sorted array of its members outside
    the restart set, plus one marker standing for the whole restart set
    (every final [q₀] at [j = 0]). This is exact because the [j = 0]
    members of a powerstate are exactly the restart set, present iff the
    last symbol was not EOF: a step only produces [j ≥ 1], and injection
    follows every real symbol and no EOF. The restart set's image under
    each symbol class is computed once at {!build} and shared by every
    step. On the mini BPE vocabulary ([F·M·K + F·K] = 685,410 NFA states)
    a powerstate averages ~357 members but only ~16 outside the restart
    set.

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
    exact here too. The byte-level {!step}/{!eof_symbol} interface is kept
    (it translates through the classmap); hot loops that already hold a
    class use {!step_class} with {!eof_class}. *)

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

(** [accel_stops te s] — the 256-bit stop-byte bitmap of powerstate [s]
    (bit [b] set iff byte [b] moves [s] somewhere else), lazily computed on
    first use and cached. Returns the whole packed array (8 words per
    powerstate, row [s*8]), in the {!Dfa.skip_run2} layout; like {!Raw}
    views, the array is replaced wholesale on growth, so re-fetch per use.
    Computing a row also classifies it for the SWAR tier (see
    {!accel_kinds}). *)
val accel_stops : t -> int -> int array

(** Per-powerstate {!Dfa.type:t.accel_kind} bytes, valid for rows already
    ensured via {!accel_stops} (all zero when the underlying DFA was built
    [~swar:false]). Replaced wholesale on growth — re-fetch per use. *)
val accel_kinds : t -> Bytes.t

(** Per-powerstate SWAR broadcast masks (3 per row, [s*3]), paired with
    {!accel_kinds}; same validity and growth caveats. *)
val accel_masks : t -> int64 array

(** Per-powerstate 256-byte 0/1 gather stop tables (row [s*256]), in the
    {!Dfa.type:t.accel_tbl} layout, for {!Dfa.skip_run2}'s mixed-pair
    loop; same validity and growth caveats as {!accel_kinds}. *)
val accel_tbl : t -> Bytes.t

(** Bytes held by the lazily materialized stop bitmaps, kind bytes, SWAR
    masks and gather tables (monotone in use, for footprint
    accounting). *)
val accel_bytes : t -> int

(** Heap bytes held by the materialized powersets and their origin rows
    (monotone in use, for footprint accounting). *)
val set_bytes : t -> int

(**/**)

(** Internal raw views for the engine's hot loop. The arrays are replaced
    wholesale when the automaton grows, so callers must re-fetch them after
    any {!step} that materialized a state (a cached copy stays valid for
    reads of already-materialized states). *)
module Raw : sig
  val trans : t -> int array
  val emit_rows : t -> int64 array
  val words : t -> int
  val width : t -> int
end
