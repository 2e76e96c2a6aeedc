(* The two StreamTok hot loops — Fig. 5 (K ≤ 1, maximality table) and
   Fig. 6 (K ≥ 2, token-extension DFA) — written once, chunk-resumable.

   [run c s p fin ~eof] advances cursor [c] over s[p..fin): the
   tokenization DFA consumes bytes from [p] and every maximal token is
   emitted as a view [c.emit s pos len rule]. Without [eof] the loop stops
   where the lookahead runs out — the last byte (Fig. 5) or the last K
   bytes (Fig. 6) stay unconsumed for the next call to re-present; with
   [eof] the missing lookahead is end-of-input and the range is consumed
   to [fin]. {!Engine.run_string} is one call with [~eof:true];
   {!Stream_tokenizer} makes one per chunk (plus a short one over the
   spill at each chunk seam) and a final one at EOF.

   This file is the source of two modules, stamped by cppo from the
   dune file: [Kernel], and [Kernel_heat] (-D HEAT), which adds the two
   per-byte state-heat increments. Everything else the instrumented
   runners report is taken outside the loops: skip counts are cursor
   fields written back at exit, rule tallies happen in the emit callback.

   There is no per-symbol failure check: once the DFA enters a reject
   state it can never be final again, so no token is emitted past that
   point (§5 of the paper proves no emission can be pending when the DFA
   dies). Callers test [c.reject.(c.q)] after a call, or the unconsumed
   tail at EOF, and recover the failing byte on that cold path.

   Self-loop run acceleration: when two consecutive steps land back in the
   same state and that state is flagged accelerable, the run is finished
   with [Dfa.skip_run] — no table steps, no maximality probes. Skipping
   the intermediate probes is sound because a self-loop step can never
   fire the Fig. 5 bit: T[q][c] = 1 needs δ(q,c) non-final while q is
   final, and δ(q,c) = q during a run. Demanding a run of two (plus an
   inline stop-bit pre-test of the next byte) keeps streams made of
   1–2 byte tokens from ever touching the bitmaps. *)

open St_automata

let[@inline] cls_at cmap s i =
  Char.code (String.unsafe_get cmap (Char.code (String.unsafe_get s i)))

(* Fig. 5: per symbol, one classmap load, one DFA step and one table
   probe. The class of the lookahead byte is carried into the next
   iteration, where the same byte is the one consumed. *)
let fig5 (c : Cursor.t) tbl s p fin ~eof =
  let d = c.dfa in
  let trans = d.Dfa.trans and accept = d.Dfa.accept in
  let cmap = d.Dfa.classmap and nc = d.Dfa.num_classes in
  let aflags = d.Dfa.accel_flags and astops = d.Dfa.accel_stops in
  let akind = d.Dfa.accel_kind and aswar = d.Dfa.accel_swar in
  let kw = nc + 1 in
  let start = d.Dfa.start in
  let emit = c.emit in
#ifdef HEAT
  let visits = c.visits and skips = c.skips in
#endif
  let lim = if eof then fin else fin - 1 in
  let q = ref c.q and tok = ref c.tok and pos = ref p in
  let sk = ref 0 and swk = ref 0 in
  let cls = ref (if p < fin then cls_at cmap s p else nc) in
  let prev2 = ref (-1) in
  while !pos < lim do
    let prev = !q in
    q := Array.unsafe_get trans ((!q * nc) + !cls);
#ifdef HEAT
    Array.unsafe_set visits !q (Array.unsafe_get visits !q + 1);
#endif
    incr pos;
    if
      !q = prev && prev = !prev2
      && Bytes.unsafe_get aflags !q <> '\000'
      && !pos < lim
      && Dfa.stop_bit astops (!q * 8) (Char.code (String.unsafe_get s !pos))
         = 0
    then begin
      let j = Dfa.skip_run astops akind aswar !q s !pos lim in
      sk := !sk + (j - !pos);
      if Bytes.unsafe_get akind !q <> '\000' then swk := !swk + (j - !pos);
#ifdef HEAT
      Array.unsafe_set skips !q (Array.unsafe_get skips !q + (j - !pos));
#endif
      pos := j
    end;
    prev2 := prev;
    let next_cls = if !pos < fin then cls_at cmap s !pos else nc in
    if Bytes.unsafe_get tbl ((!q * kw) + next_cls) <> '\000' then begin
      let rule = Array.unsafe_get accept !q in
      if !tok >= 0 then emit s !tok (!pos - !tok) rule
      else Cursor.emit_spilled c s p !pos rule;
      tok := !pos;
      q := start
    end;
    cls := next_cls
  done;
  c.q <- !q;
  c.tok <- !tok;
  c.pos <- !pos;
  c.skipped <- c.skipped + !sk;
  c.swar_skipped <- c.swar_skipped + !swk

(* Fig. 6: the token-extension DFA B runs K symbols ahead of the
   tokenization DFA A. Per symbol: two classmap loads, δ_B, δ_A and the
   maximality probe; the maximality table T[q][S] is a packed bit matrix,
   so the probe is one word read. B's rows are materialized lazily — the
   cached raw views are refreshed whenever a step materializes a new
   powerstate (which may reallocate them).

   Acceleration must preserve the K-symbol lead: a skipped byte advances
   both cursors, so an iteration can only be skipped when the consumed
   byte self-loops A's state [q] and the byte K ahead self-loops B's
   powerstate [st] — [Dfa.skip_run2] scans both bitmaps in lockstep, B
   reading [+k] bytes ahead. The emit bit is a function of the (st, q)
   pair, constant across the run and known 0 at entry, so no probe can be
   missed; the skip is bounded to [fin - k] so B never reads past the
   range and the EOF padding always re-enters the normal path. *)
let fig6 (c : Cursor.t) te s p fin ~eof =
  let d = c.dfa in
  let trans = d.Dfa.trans and accept = d.Dfa.accept in
  let cmap = d.Dfa.classmap and nc = d.Dfa.num_classes in
  let aflags = d.Dfa.accel_flags and astops = d.Dfa.accel_stops in
  let akind = d.Dfa.accel_kind and aswar = d.Dfa.accel_swar in
  let atbl = d.Dfa.accel_tbl in
  let start = d.Dfa.start in
  let k = Te_dfa.k te in
  let words = Te_dfa.Raw.words te in
  let tw = Te_dfa.Raw.width te in
  let eofc = tw - 1 in
  let emit = c.emit in
#ifdef HEAT
  let visits = c.visits and skips = c.skips in
#endif
  let q = ref c.q and st = ref c.st and tok = ref c.tok in
  (* prologue: B reads the first K symbols before A moves — resumed from
     [c.lead] while the stream is still shorter than K; EOF pads *)
  let b_end = if eof then p + k else min (p + k) fin in
  for i = p + c.lead to b_end - 1 do
    st := Te_dfa.step_class te !st (if i < fin then cls_at cmap s i else eofc)
  done;
  c.lead <- b_end - p;
  let te_trans = ref (Te_dfa.Raw.trans te) in
  let emit_rows = ref (Te_dfa.Raw.emit_rows te) in
  let lim = if eof then fin else fin - k in
  let skip_lim = fin - k in
  let pos = ref p in
  let sk = ref 0 and swk = ref 0 in
  let prev2_q = ref (-1) and prev2_st = ref (-1) in
  while !pos < lim do
    let prev_st = !st and prev_q = !q in
    let b = !pos + k in
    let bcls = if b < fin then cls_at cmap s b else eofc in
    let tgt = Array.unsafe_get !te_trans ((!st * tw) + bcls) in
    if tgt >= 0 then st := tgt
    else begin
      st := Te_dfa.step_class te !st bcls;
      te_trans := Te_dfa.Raw.trans te;
      emit_rows := Te_dfa.Raw.emit_rows te
    end;
    q := Array.unsafe_get trans ((!q * nc) + cls_at cmap s !pos);
#ifdef HEAT
    Array.unsafe_set visits !q (Array.unsafe_get visits !q + 1);
#endif
    if
      Int64.logand
        (Int64.shift_right_logical
           (Array.unsafe_get !emit_rows ((!st * words) + (!q lsr 6)))
           (!q land 63))
        1L
      <> 0L
    then begin
      let rule = Array.unsafe_get accept !q in
      if !tok >= 0 then emit s !tok (!pos + 1 - !tok) rule
      else Cursor.emit_spilled c s p (!pos + 1) rule;
      tok := !pos + 1;
      q := start;
      incr pos
    end
    else if
      !q = prev_q && prev_q = !prev2_q && !st = prev_st
      && prev_st = !prev2_st
      && Bytes.unsafe_get aflags !q <> '\000'
      && !pos + 1 < skip_lim
      && Dfa.stop_bit astops (!q * 8)
           (Char.code (String.unsafe_get s (!pos + 1)))
         = 0
    then begin
      let bkinds = Te_dfa.accel_kinds te in
      let j =
        Dfa.skip_run2 astops akind aswar atbl !q (Te_dfa.accel_stops te !st)
          bkinds (Te_dfa.accel_masks te) (Te_dfa.accel_tbl te) !st ~off:k s
          (!pos + 1) skip_lim
      in
      let n = j - (!pos + 1) in
      sk := !sk + n;
      if
        Bytes.unsafe_get akind !q <> '\000'
        || Bytes.unsafe_get bkinds !st <> '\000'
      then swk := !swk + n;
#ifdef HEAT
      Array.unsafe_set skips !q (Array.unsafe_get skips !q + n);
#endif
      pos := j
    end
    else incr pos;
    prev2_q := prev_q;
    prev2_st := prev_st
  done;
  c.q <- !q;
  c.st <- !st;
  c.tok <- !tok;
  c.pos <- !pos;
  c.skipped <- c.skipped + !sk;
  c.swar_skipped <- c.swar_skipped + !swk

let run (c : Cursor.t) s p fin ~eof =
  match c.mode with
  | Cursor.Table_k1 tbl -> fig5 c tbl s p fin ~eof
  | Cursor.Te te -> fig6 c te s p fin ~eof
