(* The resumable state of one tokenization run: what the Fig. 5 / Fig. 6
   kernels ({!Kernel}) load into locals at entry and store back at exit.
   Between kernel calls it is all a chunked run keeps — the two automaton
   states, the token-extension DFA's lead, the token start, and the spill
   buffer holding the unfinished token's bytes from earlier chunks.

   Positions are indices into the string the last kernel call scanned;
   [tok = -1] means the unfinished token began in an earlier chunk and its
   first bytes are in [spill]. Internal plumbing shared by {!Engine} and
   {!Stream_tokenizer}. *)

open St_automata

type mode =
  | Table_k1 of Bytes.t
      (* Fig. 5: [q * (num_classes + 1) + class] = '\001' iff the token
         ending at final state [q] is maximal given a next symbol of that
         equivalence class (last column = EOF). *)
  | Te of Te_dfa.t (* Fig. 6 *)

type t = {
  dfa : Dfa.t;
  mode : mode;
  reject : bool array;  (* DFA states from which no final state is reachable *)
  emit : string -> int -> int -> int -> unit;  (* view: s pos len rule *)
  mutable q : int;  (* tokenization DFA state *)
  mutable st : int;  (* token-extension DFA powerstate (Fig. 6) *)
  mutable lead : int;  (* bytes the TE DFA has read past [pos] (≤ K) *)
  mutable pos : int;  (* next byte the tokenization DFA consumes *)
  mutable tok : int;  (* start of the unfinished token; -1 = in [spill] *)
  mutable spill : Bytes.t;
  mutable spill_len : int;
  mutable skipped : int;  (* bytes consumed by skip loops *)
  mutable swar_skipped : int;  (* subset consumed by SWAR-classified loops *)
  mutable visits : int array;  (* per-state heat, stamped kernel only *)
  mutable skips : int array;
}

let create dfa mode reject ~emit =
  {
    dfa;
    mode;
    reject;
    emit;
    q = dfa.Dfa.start;
    st = (match mode with Table_k1 _ -> 0 | Te te -> Te_dfa.start te);
    lead = 0;
    pos = 0;
    tok = 0;
    spill = Bytes.empty;
    spill_len = 0;
    skipped = 0;
    swar_skipped = 0;
    visits = [||];
    skips = [||];
  }

(* Bytes of lookahead a token's maximality needs: the next symbol for
   Fig. 5, K symbols for Fig. 6 — max(K, 1) either way. A chunked run
   carries exactly these bytes, unconsumed, between chunks. *)
let lookahead = function Table_k1 _ -> 1 | Te te -> Te_dfa.k te

let spill_append c s pos len =
  let need = c.spill_len + len in
  if need > Bytes.length c.spill then begin
    let b = Bytes.create (max need (max 64 (2 * Bytes.length c.spill))) in
    Bytes.blit c.spill 0 b 0 c.spill_len;
    c.spill <- b
  end;
  Bytes.blit_string s pos c.spill c.spill_len len;
  c.spill_len <- need

let spill_drop_front c n =
  if n > 0 then begin
    Bytes.blit c.spill n c.spill 0 (c.spill_len - n);
    c.spill_len <- c.spill_len - n
  end

(* The kernels' emit site for a token that began in an earlier chunk: its
   head is in the spill, its tail is s[p..e). Kept out of line — at most
   one token per chunk takes this path. *)
let emit_spilled c s p e rule =
  spill_append c s p (e - p);
  let len = c.spill_len in
  c.spill_len <- 0;
  c.emit (Bytes.unsafe_to_string c.spill) 0 len rule
