(* The chunked driver of the Fig. 5 / Fig. 6 kernels ({!Kernel}): the same
   loops {!Engine.run_string} enters once, entered once per chunk. The
   kernel leaves the last max(K, 1) bytes of a chunk unconsumed (their
   lookahead is not in yet); the driver keeps them, together with the
   unfinished token's consumed bytes, in the cursor's spill buffer. At the
   next chunk a short kernel call over the spill plus that chunk's first
   max(K, 1) bytes (the seam) consumes them; the chunk itself is then
   scanned in place, tokens emitted as views into it. Only a token that
   straddles the seam is emitted from the spill. *)

type t = {
  engine : Engine.t;
  cur : Cursor.t;
  la : int;  (* lookahead the kernel holds back: 1, or K for Fig. 6 *)
  mutable a : int;  (* next spill byte the tokenization DFA consumes *)
  mutable base : int;  (* stream offset of spill[0] *)
  mutable fed : int;
  mutable state :
    [ `Running | `Failed of Engine.outcome | `Finished of Engine.outcome ];
  stats : Run_stats.t option;
}

let create_views ?stats engine ~emit =
  let emit =
    match stats with
    | None -> emit
    | Some st ->
        fun s pos len rule ->
          Run_stats.record_token st ~rule ~len;
          emit s pos len rule
  in
  let cur = Engine.cursor engine ~emit in
  let la = Cursor.lookahead cur.mode in
  (match stats with
  | Some st ->
      Run_stats.set_lookahead st la;
      Run_stats.set_accel_states st (Engine.accel_states engine);
      Run_stats.set_accel_swar_states st (Engine.accel_swar_states engine)
  | None -> ());
  { engine; cur; la; a = 0; base = 0; fed = 0; state = `Running; stats }

let create ?stats engine ~emit =
  create_views ?stats engine ~emit:(fun s pos len rule ->
      emit (String.sub s pos len) rule)

let failed t = match t.state with `Failed _ -> true | _ -> false
let bytes_fed t = t.fed
let accel_skipped_bytes t = t.cur.skipped
let swar_skipped_bytes t = t.cur.swar_skipped

(* Bytes carried across the chunk boundary: the unfinished token plus the
   unconsumed lookahead. *)
let carried_bytes t = t.cur.spill_len

let record_failure t =
  match t.stats with Some st -> Run_stats.record_failure st | None -> ()

(* Cold path: the kernel left the DFA in a reject state somewhere in the
   token that starts at stream offset [offset] — [head] then s[from..upto).
   Failure detection is lazy (reject states are absorbing), so re-run the
   DFA over those bytes to find the one that killed it: the outcome's
   pending bytes are the token through that byte, as if each byte had been
   checked as it was consumed. *)
let failure t ~offset head s from upto =
  let d = Engine.dfa t.engine in
  let tok = head ^ String.sub s from (upto - from) in
  let q = ref d.St_automata.Dfa.start and i = ref 0 in
  while !i < String.length tok && not t.cur.reject.(!q) do
    q := St_automata.Dfa.step d !q tok.[!i];
    incr i
  done;
  record_failure t;
  Engine.Failed { offset; pending = String.sub tok 0 !i }

(* The seam: the spill's unconsumed bytes take this chunk's first bytes as
   lookahead. Returns whether the DFA has reached s[p]; a chunk shorter
   than the lookahead is absorbed into the spill whole. *)
let seam t s p len =
  let c = t.cur in
  let l = c.spill_len in
  Cursor.spill_append c s p (min len t.la);
  c.tok <- 0;
  let w = Bytes.unsafe_to_string c.spill in
  Kernel.run c w t.a c.spill_len ~eof:false;
  let tok = c.tok in
  if c.reject.(c.q) then begin
    t.state <- `Failed (failure t ~offset:(t.base + tok) "" w tok c.pos);
    false
  end
  else begin
    let reached = c.pos >= l in
    if reached then c.spill_len <- l else t.a <- c.pos - tok;
    Cursor.spill_drop_front c tok;
    t.base <- t.base + tok;
    reached
  end

(* One chunk, s[p..p+len): the seam, then one kernel call over the chunk
   in place, then the unfinished token and the unconsumed lookahead go to
   the spill. Callers guarantee [t.state = `Running]; all other per-call
   bookkeeping (bounds, stats, trace) lives in the wrappers so the batched
   path can amortize it. *)
let advance t s p len =
  let c = t.cur in
  let here = t.fed in
  t.fed <- here + len;
  if len > 0 && (t.a >= c.spill_len || seam t s p len) then begin
    c.tok <- (if c.spill_len > 0 then -1 else p);
    Kernel.run c s p (p + len) ~eof:false;
    if c.reject.(c.q) then
      t.state <-
        `Failed
          (if c.tok < 0 then
             failure t ~offset:t.base
               (Bytes.sub_string c.spill 0 c.spill_len)
               s p c.pos
           else failure t ~offset:(here + c.tok - p) "" s c.tok c.pos)
    else if c.tok < 0 then begin
      t.a <- c.spill_len + (c.pos - p);
      Cursor.spill_append c s p len
    end
    else begin
      t.base <- here + (c.tok - p);
      t.a <- c.pos - c.tok;
      c.spill_len <- 0;
      Cursor.spill_append c s c.tok (p + len - c.tok)
    end
  end

let p_feed = St_trace.Trace.probe ~cat:"engine" "st.feed"
let p_finish = St_trace.Trace.probe ~cat:"engine" "st.finish"

let feed_untraced t s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Stream_tokenizer.feed";
  (match t.stats with
  | Some st ->
      Run_stats.add_chunk st len;
      (* carried state is sampled before and after each chunk (below), so
         the high-water mark reflects what survives chunk boundaries *)
      Run_stats.observe_buffer st (carried_bytes t)
  | None -> ());
  if t.state <> `Running then t.fed <- t.fed + len
  else begin
    let sk0 = t.cur.skipped and sw0 = t.cur.swar_skipped in
    advance t s pos len;
    match t.stats with
    | Some st ->
        Run_stats.add_accel_skipped st (t.cur.skipped - sk0);
        Run_stats.add_swar_skipped st (t.cur.swar_skipped - sw0);
        Run_stats.observe_buffer st (carried_bytes t)
    | None -> ()
  end

(* The coalesced-FEED path: many chunks, one call. Each [(pos, len)]
   segment of [s] is processed as its own chunk — spill and failure
   semantics at segment boundaries are bit-identical to calling
   {!feed} once per segment — but the per-call overhead (validation,
   stats sampling, the trace span, skip-counter deltas) is paid once for
   the batch. Processing stops at the segment that fails the stream:
   later segments are neither consumed nor counted, matching the serving
   layer's drop-after-failure contract ({!Session.feed} never feeds a
   failed stream). *)
let feed_batch_untraced t segs n =
  if n < 0 || n > Array.length segs then
    invalid_arg "Stream_tokenizer.feed_batch";
  for j = 0 to n - 1 do
    let s, pos, len = Array.unsafe_get segs j in
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Stream_tokenizer.feed_batch"
  done;
  let sk0 = t.cur.skipped and sw0 = t.cur.swar_skipped in
  let j = ref 0 in
  while !j < n && t.state = `Running do
    let s, pos, len = Array.unsafe_get segs !j in
    (match t.stats with
    | Some st ->
        Run_stats.add_chunk st len;
        Run_stats.observe_buffer st (carried_bytes t)
    | None -> ());
    advance t s pos len;
    incr j
  done;
  match t.stats with
  | Some st ->
      Run_stats.add_accel_skipped st (t.cur.skipped - sk0);
      Run_stats.add_swar_skipped st (t.cur.swar_skipped - sw0);
      Run_stats.observe_buffer st (carried_bytes t)
  | None -> ()

(* Per-chunk trace span; the probe never enters the chunk loop itself, so
   the disabled cost is a single bool load per feed call. *)
let feed t s pos len =
  if not !St_trace.Trace.on then feed_untraced t s pos len
  else begin
    St_trace.Trace.begin_span p_feed;
    match feed_untraced t s pos len with
    | () -> St_trace.Trace.end_span p_feed
    | exception exn ->
        St_trace.Trace.end_span p_feed;
        raise exn
  end

let feed_string t s = feed t s 0 (String.length s)

(* One trace span per batch — the whole point: the span (and every other
   per-call cost) amortizes over the coalesced segments. *)
let feed_batch t segs n =
  if not !St_trace.Trace.on then feed_batch_untraced t segs n
  else begin
    St_trace.Trace.begin_span p_feed;
    match feed_batch_untraced t segs n with
    | () -> St_trace.Trace.end_span p_feed
    | exception exn ->
        St_trace.Trace.end_span p_feed;
        raise exn
  end

(* EOF: one kernel call over the spill with end-of-input as the missing
   lookahead. A DFA that dies there fails the stream as a fed byte would;
   an unfinished token is reported in the outcome only. *)
let finish_untraced t =
  match t.state with
  | `Failed o | `Finished o -> o
  | `Running ->
      let c = t.cur in
      c.tok <- 0;
      let w = Bytes.unsafe_to_string c.spill in
      Kernel.run c w t.a c.spill_len ~eof:true;
      (match t.stats with
      | Some st -> Run_stats.set_te_states st (Engine.te_states t.engine)
      | None -> ());
      let offset = t.base + c.tok in
      let dead = c.tok < c.spill_len && c.reject.(c.q) in
      let o =
        if c.tok >= c.spill_len then Engine.Finished
        else if dead then failure t ~offset "" w c.tok c.pos
        else begin
          record_failure t;
          Engine.Failed
            { offset; pending = String.sub w c.tok (c.spill_len - c.tok) }
        end
      in
      t.state <- (if dead then `Failed o else `Finished o);
      o

let finish t =
  if not !St_trace.Trace.on then finish_untraced t
  else begin
    St_trace.Trace.begin_span p_finish;
    match finish_untraced t with
    | o ->
        St_trace.Trace.end_span p_finish;
        o
    | exception exn ->
        St_trace.Trace.end_span p_finish;
        raise exn
  end
