(** Reps' linear-time maximal-munch tokenizer (TOPLAS 1998).

    Extends the backtracking algorithm of Fig. 2 with a memoization table of
    (state, position) pairs known to lead to failure: once a scan dies (or
    hits end of input) past its last accepting position, every pair it
    visited after that accept can never contribute a longer token, so later
    scans stop as soon as they reach one. Time becomes O(n); the cost is the
    table, whose size is O(M·n) in the worst case — the memory drawback the
    paper (and [29]) point out. Like {!Backtracking}, it steps the table
    once per byte and never enters a skip loop. *)

open St_automata

type result = {
  outcome : Backtracking.outcome;
  steps : int;  (** DFA steps taken, memo-hit stops included *)
  memo_entries : int;  (** final memo-table population, for memory reports *)
}

val run :
  Dfa.t -> string -> emit:(pos:int -> len:int -> rule:int -> unit) -> result

val tokens : Dfa.t -> string -> (string * int) list * Backtracking.outcome
