(** Serialization of compiled engines.

    What flex achieves by generating C source, a library can achieve by
    saving its tables: analyze and compile once (possibly in a build step),
    then load the compiled tokenizer at startup without re-running the
    subset construction or the max-TND analysis.

    The format (v5) stores the tokenization DFA, the analyzed max-TND and
    one byte saying whether the DFA is accelerated. Everything else is
    derived and rebuilt on load: the Fig. 5 table, co-accessibility, the
    token-extension DFA, and the self-loop acceleration tables (stop
    bitmaps, SWAR classification), which {!St_automata.Dfa.attach_accel}
    recomputes from the stored transitions (an engine built [~swar:false]
    therefore reloads as the default SWAR-classified build). A loaded engine's skip loops
    therefore never run on tables its transitions do not imply, verified
    or not. v2–v4 blobs still load; the accel section of a v3/v4 blob is
    checked for length and otherwise ignored. The encoding is a versioned,
    self-describing binary format — not [Marshal] — so files are stable
    across compiler versions. *)

val magic : string
val version : int

(** Serialize a compiled engine. *)
val to_string : Engine.t -> string

(** Deserialize. With [verify] (default true) the stored max-TND is
    re-checked against the static analysis of the stored DFA, so a
    corrupted or hand-edited file cannot produce a silently wrong
    tokenizer; [verify:false] trusts the file and makes loading O(tables).
    Errors are reported as [Error message]. *)
val of_string : ?verify:bool -> string -> (Engine.t, string) result
