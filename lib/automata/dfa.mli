(** Tokenization DFA (Definition 3): a total DFA over the byte alphabet,
    where every final state carries Λ(q), the preferred (least) rule index.

    Built from the rule-tagged NFA by subset construction. The byte alphabet
    is compressed into equivalence classes first: bytes that no charset label
    of the NFA distinguishes share a column, so transitions are a dense
    [num_states × num_classes] table reached through a 256-byte [classmap].
    {!step} is therefore two dependent array reads — still O(1) per symbol,
    which every engine in this library relies on — at 1/10th to 1/60th the
    table footprint of the raw-byte layout on ASCII-heavy grammars. Pass
    [~classes:false] to the constructors to keep the dense 256-column layout
    (identity classmap); that path is retained as the reference oracle for
    the compression test battery. *)

open St_regex

type t = {
  num_states : int;
  start : int;
  num_classes : int;  (** columns per state; 256 when built dense *)
  classmap : string;
      (** 256 bytes; [classmap.[b]] is the equivalence class of byte [b],
          in [0 .. num_classes-1]. Identity when built with
          [~classes:false]. *)
  trans : int array;
      (** [trans.(q * num_classes + class)] is the successor state *)
  accept : int array;  (** Λ(q): rule id of final state [q], or -1 *)
  accel : bool;  (** whether the acceleration analysis ran at build time *)
  accel_flags : Bytes.t;
      (** [num_states] bytes; nonzero marks an accelerable state (one whose
          self-loop covers at least a few bytes, so a skip loop can pay
          off). Always allocated — all zero when [accel] is false — so hot
          loops may probe it unconditionally with [Bytes.unsafe_get]. *)
  accel_stops : int array;
      (** Per-state 256-bit stop-byte bitmaps, 8 little-endian 32-bit words
          per state held in immediate [int]s (Int64 would box without
          flambda): bit [b land 31] of word [q*8 + b/32] is set iff byte [b]
          moves state [q] somewhere else (i.e. [step q b <> q]). Rows exist
          for every state of an
          accelerated build, flagged or not; [[||]] when [accel] is false —
          only dereference it behind an [accel_flags] hit. *)
  accel_kind : Bytes.t;
      (** [num_states] bytes classifying each state's scanner:
          ['\000'] bitmap scan (>= 4 stop bytes, or SWAR disabled),
          ['\001'..'\003'] SWAR with that many distinct stop bytes,
          ['\004'] free-running (no stop bytes: a run never ends before the
          range limit). Derived from [accel_stops] by {!swar_classify};
          all zero when [accel] is false or the build passed
          [~swar:false]. *)
  accel_swar : int64 array;
      (** 3 broadcast masks per state ([0x0101010101010101 * stop_byte]);
          states with fewer than 3 stop bytes repeat the last real mask.
          Only meaningful for SWAR kinds; [[||]] when classification is
          off. *)
  accel_tbl : Bytes.t;
      (** 256 bytes per state: [tbl.[q*256 + b]] is ['\001'] iff byte [b]
          stops state [q] — the stop bitmap re-expanded for the
          dual-cursor mixed scan, whose merged word loop gathers per-byte
          0/1 flags for the bitmap-classified side while testing the SWAR
          side with broadcast detectors. Derived by {!swar_byte_table};
          [Bytes.empty] when classification is off. *)
}

(** [step dfa q c] is δ(q, c): classmap load, then table load. *)
val step : t -> int -> char -> int

(** [step_class dfa q cls] skips the classmap load — for hot loops that
    translate the input once and walk in class space. *)
val step_class : t -> int -> int -> int

(** Equivalence class of a byte (the classmap load of {!step}). *)
val class_of : t -> char -> int

val class_of_byte : t -> int -> int
val num_classes : t -> int

(** [is_final dfa q]. *)
val is_final : t -> int -> bool

(** Token id Λ(q) of a final state; -1 for non-final. *)
val accept_rule : t -> int -> int

(** [run dfa s] is δ(start, s). *)
val run : t -> string -> int

(** The coarsest partition of 0–255 respected by every charset label of the
    NFA, as (classmap, num_classes). Classes are numbered by first byte
    occurrence, so equal NFAs give equal classmaps. *)
val equiv_classes : Nfa.t -> string * int

(** One representative byte per class, in class order. *)
val class_reps : string -> int -> int array

(** Subset construction from a rule-tagged NFA. The result is total and all
    states are accessible; a dead (reject) state exists whenever some input
    cannot be extended into any token. [classes] (default true) selects the
    equivalence-classed table layout; [~classes:false] builds the dense
    256-column reference layout. Both recognize the same languages.
    [accel] (default true) runs the self-loop acceleration analysis;
    [~accel:false] keeps the unaccelerated build as the differential
    reference, mirroring [~classes:false]. [max_states] (default
    unbounded) caps the number of interned subset states: data-driven
    grammars (BPE vocabularies) can blow up the construction, and a
    prompt [Failure] naming the cap beats unbounded memory growth.
    [swar] (default true) additionally classifies accelerated states into
    per-state scanners (see {!type:t.accel_kind}); [~swar:false] keeps the
    pure-bitmap accelerated build as the SWAR differential reference. *)
val of_nfa :
  ?classes:bool -> ?accel:bool -> ?swar:bool -> ?max_states:int -> Nfa.t -> t

(** [of_rules rules] = subset construction ∘ Thompson, with Moore
    minimization applied when [minimize] (default true). *)
val of_rules :
  ?minimize:bool -> ?classes:bool -> ?accel:bool -> ?swar:bool ->
  ?max_states:int -> Regex.t list -> t

(** [of_grammar src] parses a newline-separated grammar and builds its DFA. *)
val of_grammar :
  ?minimize:bool -> ?classes:bool -> ?accel:bool -> ?swar:bool ->
  ?max_states:int -> string -> t

(** {2 Self-loop run acceleration}

    Static analysis over the classed tables: a state whose self-loop covers
    all but a small set of byte classes gets a 256-bit {e stop-byte bitmap}
    (bit set iff the byte leaves the state), expanded through the classmap
    once at build time. Hot loops enter {!skip_run} after observing a
    self-loop step on a flagged state and consume the rest of the run
    without touching the transition table. *)

(** Recompute (or strip, with [~enabled:false]) the acceleration tables of
    an existing DFA. Used by rebuilds that renumber states and, through
    {!of_tables}, by deserialization. [swar] (default true) controls whether the SWAR classification
    is computed alongside the bitmaps. *)
val attach_accel : enabled:bool -> ?swar:bool -> t -> t

(** [of_tables ~accel ~start ~num_classes ~classmap ~trans ~accept ()]: the
    DFA with these tables ([num_states] is the length of [accept]) and its
    acceleration tables derived as by {!attach_accel}. The tables are taken
    as given: callers building from untrusted data check ranges first. *)
val of_tables :
  accel:bool -> ?swar:bool -> start:int -> num_classes:int -> classmap:string ->
  trans:int array -> accept:int array -> unit -> t

val accel_enabled : t -> bool

(** Whether this build carries a SWAR classification (always true for a
    default accelerated build; false after [~swar:false] or [~accel:false]). *)
val accel_swar_enabled : t -> bool

(** Number of flagged (accelerable) states. *)
val accel_state_count : t -> int

(** Number of states classified into the SWAR tier (kinds 1–3; the
    free-running kind 4 is not counted — it never runs a word loop). *)
val accel_swar_state_count : t -> int

val is_accel_state : t -> int -> bool

(** [swar_classify ~num_states ~stops]: derive the per-state scanner
    classification (kind bytes + broadcast masks) from stop-byte bitmaps.
    Exposed for the token-extension DFA's per-powerstate rows and for the
    SWAR oracle tests, which feed it synthetic bitmaps. *)
val swar_classify :
  num_states:int -> stops:int array -> Bytes.t * int64 array

(** [swar_byte_table ~num_states ~stops]: re-expand stop-byte bitmaps into
    the 256-byte-per-state 0/1 gather tables ([accel_tbl]) used by
    {!skip_run2}'s mixed-pair word loop. Like {!swar_classify}, a pure
    function of the bitmaps, recomputed on every build and load. *)
val swar_byte_table : num_states:int -> stops:int array -> Bytes.t

(** [accel_stop_byte d q b] iff the analysis marks byte [b] as a stop byte
    of state [q] (false on unaccelerated builds). Test/tool access; hot
    loops use {!skip_run} directly. *)
val accel_stop_byte : t -> int -> int -> bool

(** Bytes held by the acceleration tables (flags + bitmaps + kind bytes +
    SWAR masks), for footprint accounting. *)
val accel_table_bytes : t -> int

(** [stop_bit stops base b]: 1 iff byte [b] is a stop byte of the bitmap
    row starting at word [base] (= [q * 8]) of [stops]. A handful of int
    ops, inlined cross-module — hot loops use it as the skip-entry
    pre-test so {!skip_run} is only called when the next byte actually
    extends the run (a run-poor stream then never pays the call). *)
val stop_bit : int array -> int -> int -> int

(** [skip_run stops kinds masks q s pos limit]: first index in
    [[pos, limit)] holding a stop byte of state [q] per the bitmaps [stops]
    (normally [d.accel_stops]), or [limit] when the whole range self-loops.
    Dispatches on [kinds.[q]] (normally [d.accel_kind]): SWAR states scan
    8 bytes per 64-bit load using the broadcast [masks]
    ([d.accel_swar]), free-running states return [limit] outright, bitmap
    states take the 8-way byte loop. Callers must only reach this from a
    flagged state of an accelerated build. *)
val skip_run :
  int array -> Bytes.t -> int64 array -> int -> string -> int -> int -> int

(** The kind-['\000'] scanner of {!skip_run}, callable directly: pure
    byte-at-a-time bitmap scanning, no SWAR. This is the reference the
    SWAR tier is differentially tested (and benched) against. *)
val skip_run_bitmap : int array -> int -> string -> int -> int -> int

(** Dual-cursor variant for the TE paths: stops when {e either} state hits
    a stop byte, the second cursor reading [off] bytes away from the first
    ([off = +k] when the lookahead automaton leads, [-k] when the main
    automaton trails). Both sides carry (stops, kinds, masks, byte table);
    both sides SWAR runs the dual detector loop, a mixed pair runs the
    merged SWAR + byte-table-gather loop (the slow side's [tbl] is the
    only table it dereferences), and only a doubly-bitmap pair falls back
    to the dual bitmap loop. Caller guarantees both cursors stay in
    bounds: [pos + off >= 0] and [limit + off <= String.length s] (which
    also bounds the offset 64-bit load — the word loop stops at
    [limit - 8]). *)
val skip_run2 :
  int array -> Bytes.t -> int64 array -> Bytes.t -> int ->
  int array -> Bytes.t -> int64 array -> Bytes.t -> int ->
  off:int -> string -> int -> int -> int

(** The dual bitmap scanner of {!skip_run2}, callable directly as the SWAR
    differential reference. *)
val skip_run2_bitmap :
  int array -> int -> int array -> int -> off:int -> string -> int -> int -> int

(** States from which some final state is reachable (co-accessible,
    paper §4). The complement is the set of reject/failure states. *)
val co_accessible : t -> St_util.Bits.t

(** States reachable from the start by a {e nonempty} string — the
    initialization set of the static analysis needs finals in this set. *)
val reachable_nonempty : t -> St_util.Bits.t

(** [is_reject dfa coacc q] iff q cannot reach a final state. *)
val is_reject : t -> St_util.Bits.t -> int -> bool

(** Number of states; [|A|] in the paper's pseudocode. *)
val size : t -> int

(** Structural equality of the recognized token languages is not decided
    here; this is plain structural DFA equality (including the classmap)
    for tests. *)
val equal : t -> t -> bool

(** Render transitions compactly for debugging (one line per state,
    byte-level, so dense and classed builds print identically when
    equivalent). *)
val pp : Format.formatter -> t -> unit
