(** StreamTok: backtracking-free streaming tokenization (paper §5).

    An {!t} is a compiled tokenizer for a grammar with bounded max-TND. For
    max-TND ≤ 1 it uses the token-extension table of Fig. 5 (one extra table
    lookup per symbol); for max-TND = K ≥ 2 it uses the token-extension DFA
    of Fig. 6 running K symbols ahead of the tokenization DFA. Either way
    the cost is O(1) table lookups per input symbol and the memory footprint
    is independent of the stream length.

    {2 One kernel}

    Each of the two algorithms is one hand-written, chunk-resumable loop
    (kernel.cppo.ml): it advances a cursor over a range of a string and
    emits every maximal token as a view [(s, pos, len, rule)]. Without EOF
    it stops where the lookahead runs out and leaves the last max(K, 1)
    bytes for the next call. {!run_string} is that loop entered once,
    over the whole string with EOF as the final lookahead;
    {!Stream_tokenizer} enters it once per chunk. The only two
    skip-scanner call sites in this library ([Dfa.skip_run] for Fig. 5,
    [Dfa.skip_run2] for Fig. 6) are in those loops. The instrumented
    runner's per-byte state-heat counters come from a second module,
    [Kernel_heat], that cppo stamps from the same source; skip counts are
    cursor fields read after the call and rule tallies are taken in the
    emit callback, so no other variant of the loops exists.

    {2 Lazy failure}

    The loops never test for failure per byte. A DFA state from which no
    final state is reachable (a reject state) is absorbing and never final,
    so once the DFA dies nothing more is emitted and the unconsumed tail is
    the failure: {!run_string} reports [Failed] at the start of the
    unfinished token. *)

open St_regex
open St_automata

type t

(** Grammars with unbounded max-TND cannot be streamed with bounded memory
    (paper Lemma 6); {!compile} reports them instead of guessing. *)
type error = Unbounded_tnd

(** [force_te] (ablation knob, default false): use the general Fig. 6
    token-extension machinery even when the grammar's max-TND is ≤ 1 and
    the cheaper Fig. 5 table would suffice. *)
val compile : ?force_te:bool -> Dfa.t -> (t, error) result

(** Compile-time observability: everything {!compile} learned about the
    grammar, with phase timings. Consumed by [streamtok stats] and the
    bench harness. [te_states] counts powerstates materialized {e so far}
    (the token-extension DFA is lazy, so this grows as inputs are run —
    see {!te_states}). *)
type compile_stats = {
  dfa_states : int;
  max_tnd : St_analysis.Tnd.result;
  analysis_seconds : float;  (** max-TND frontier analysis (paper Fig. 3) *)
  build_seconds : float;  (** engine table construction after the analysis *)
  te_states : int;
  k1_table_bytes : int;  (** Fig. 5 table size; 0 when the TE DFA is used *)
  footprint_bytes : int;
}

(** {!compile}, also returning the recorded {!compile_stats}. *)
val compile_timed : ?force_te:bool -> Dfa.t -> (t * compile_stats, error) result

(** Deserialization fast path ({!Engine_io}): builds the engine taking the
    given [k] as the grammar's max-TND without re-running the analysis.
    {b Unsafe} if [k] is smaller than the true max-TND (tokens would be
    emitted too eagerly) or if the true max-TND is unbounded; sound
    whenever [k] is ≥ the true finite distance. *)
val compile_trusted : Dfa.t -> k:int -> t

(** Convenience wrappers: build the minimized tokenization DFA first.
    [classes] / [accel] / [swar] (all default true) select the table layout,
    the self-loop acceleration analysis and its SWAR classification, and
    [max_states] caps the subset construction (raising [Failure]), as in
    {!Dfa.of_rules} — the reference builds used by the differential
    batteries. *)
val compile_rules :
  ?classes:bool -> ?accel:bool -> ?swar:bool -> ?max_states:int ->
  Regex.t list -> (t, error) result

val compile_grammar : string -> (t, error) result

(** Number of accelerable (skip-loop) DFA states; 0 on an unaccelerated
    build. Reported as the [accel_states] gauge. *)
val accel_states : t -> int

(** Number of accelerable states classified into the SWAR (64-bit scan)
    tier; 0 on unaccelerated or [~swar:false] builds. Reported as the
    [accel_swar_states] gauge. *)
val accel_swar_states : t -> int

(** The grammar's max-TND; the engine's lookahead window. *)
val k : t -> int

(** The underlying tokenization DFA. *)
val dfa : t -> Dfa.t

(** Number of powerstates of the token-extension DFA (0 when the Fig. 5
    table is used); reported by the memory-footprint experiment. *)
val te_states : t -> int

(** Size in bytes of the Fig. 5 maximality table (0 in TE mode): one byte
    per (state, symbol-or-EOF) pair, i.e. [257 * dfa_states]. *)
val k1_table_bytes : t -> int

(** Approximate resident size, in bytes, of all tables the engine consults
    at run time: DFA transition/accept tables, the Fig. 5 [k1_table] or the
    materialized token-extension powerstates, and the max(K, 1) lookahead
    bytes a chunked run carries between chunks. Monotone in
    {!te_states}, so it grows as the lazy TE DFA materializes. Used by the
    RQ6 memory experiment. *)
val footprint_bytes : t -> int

(** How a run ended: the whole input was tokenized, or tokenization stopped
    at [offset] (no nonempty prefix of the remaining input matches any
    rule); [pending] is the untokenized remainder that the caller may want
    to report. *)
type outcome = Finished | Failed of { offset : int; pending : string }

(** Structural equality, including the pending tail — the fuzz harness and
    the differential suites compare failure positions byte-for-byte. *)
val outcome_equal : outcome -> outcome -> bool

(** Compact rendering for mismatch reports. *)
val outcome_to_string : outcome -> string

(** [run_string e s ~emit] tokenizes an in-memory string, calling
    [emit ~pos ~len ~rule] for every maximal token, in order. Single
    left-to-right pass, no backtracking: one kernel call with EOF as the
    final lookahead. [from] (default 0) starts tokenization at that offset
    (the rest of the string is still the lookahead horizon); the emit
    callback may raise to stop the run early — used by the parallel
    tokenizer's splice phase. On failure, [pending] is the whole rest of
    the string from the unfinished token's start. *)
val run_string :
  ?from:int ->
  t ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  outcome

(** [tokens e s] collects [(lexeme, rule)] pairs (convenience wrapper). *)
val tokens : t -> string -> (string * int) list * outcome

(** Instrumented variant of {!run_string}: same token stream, same outcome
    (differentially tested), plus [stats] recording. The loop is the plain
    kernel; the per-rule tally is taken in its emit callback, skip counts
    are read from the cursor after the call, and bytes / chunk / lookahead
    / footprint numbers are recorded once per call. With
    [Run_stats.enable_state_heat] the cppo-stamped heat kernel runs
    instead, adding the two per-byte state counters {!heat_table} reads. *)
val run_string_instrumented :
  ?from:int ->
  t ->
  string ->
  stats:Run_stats.t ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  outcome

(** {!run_string} wrapped in a [Trace] span ([engine.run], category
    [engine]). The probe sits outside the hot loop: with tracing disabled
    this is one bool load plus the plain runner, which the smoke check
    gates at ≤2% (hard 10%) against {!run_string} itself. *)
val run_string_traced :
  ?from:int ->
  t ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  outcome

(** [heat_table e stats] folds the state-heat counters collected by
    {!run_string_instrumented} (after [Run_stats.enable_state_heat]) into
    a {!St_trace.Trace.Heat.table}: per state, bytes consumed, bytes
    skip-scanned, the population of its accel stop-byte set, its rule id
    (-1 if non-final) and its accel flag. *)
val heat_table : ?label:string -> t -> Run_stats.t -> St_trace.Trace.Heat.table

(**/**)

(** A fresh kernel cursor over this engine's tables, emitting views —
    the state {!Stream_tokenizer} drives chunk by chunk. Not part of the
    public API. *)
val cursor : t -> emit:(string -> int -> int -> int -> unit) -> Cursor.t
