(* The load generator: one process, at most two connections to the daemon.
   Every workload is a closed loop: a connection sends more only as replies
   come back. Every reply is checked against the workload's reference as
   it arrives (json, csv) or right after the run (bpe). *)

open Streamtok

open Streamtok.Serve

(* ---- reply checking ---- *)

(* Tokens of one doc, checked as they stream in: each lexeme must equal
   the input at the running offset, and (rule, length) feed the hash the
   reference was built with. *)
type tokcheck = {
  text : string;
  want : Common.ref_doc;
  mutable off : int;
  mutable h : int;
  mutable n : int;
  mutable bad : bool;
}

let tokcheck (d : Workload.doc) =
  { text = d.text; want = d.ref_; off = 0; h = Common.hash_basis; n = 0; bad = false }

let on_token tc ~rule ~buf ~pos ~len =
  let off = tc.off in
  if off + len > String.length tc.text then tc.bad <- true
  else
    for i = 0 to len - 1 do
      if Bytes.unsafe_get buf (pos + i) <> String.unsafe_get tc.text (off + i) then
        tc.bad <- true
    done;
  tc.off <- off + len;
  tc.h <- Common.hash_token tc.h ~rule ~len;
  tc.n <- tc.n + 1

let tokens_of_view tc v =
  match Wire.iter_tokens_view v (on_token tc) with
  | Ok _ -> ()
  | Error e -> failwith ("malformed TOKENS: " ^ e)

(* Did the doc come back whole and equal to its reference? *)
let tokcheck_ok tc (ok, offset) =
  let len = String.length tc.text in
  ok && offset = len && (not tc.bad) && tc.off = len && tc.n = tc.want.ntok
  && tc.h = tc.want.hash

(* ---- what a measured phase reports ---- *)

type phase = {
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;  (* non-lexical ERROR replies, lost replies *)
  mutable mismatched : int;  (* docs answered otherwise than the reference *)
  mutable bytes : int;  (* input bytes of completed docs *)
  mutable lat : (float * int) list;  (* seconds per doc, and its segment *)
  mutable lag : float list;  (* seconds the generator ran late *)
  mutable t_first : float;
  mutable t_last : float;
  mutable seg_t0 : float;  (* start of the current segment *)
  mutable segs : float list;  (* wall seconds of each ended segment, latest first *)
  mutable cals : float list;  (* calibrations, latest first: one before the load, one after each segment *)
}

let phase () =
  {
    attempted = 0;
    completed = 0;
    failed = 0;
    mismatched = 0;
    bytes = 0;
    lat = [];
    lag = [];
    t_first = infinity;
    t_last = neg_infinity;
    seg_t0 = infinity;
    segs = [];
    cals = [ Daemon.calibrate () ];
  }

let start p t =
  if p.t_first = infinity then begin
    p.t_first <- t;
    p.seg_t0 <- t
  end

let complete p ~t ~t_start ~bytes ~ok =
  p.completed <- p.completed + 1;
  p.bytes <- p.bytes + bytes;
  p.lat <- (t -. t_start, List.length p.segs) :: p.lat;
  p.t_last <- Float.max p.t_last t;
  if not ok then p.mismatched <- p.mismatched + 1

(* ---- host-speed segments ----

   The load runs in segments of about [segment_s]. When one is due, the
   generator sends nothing new, lets what is in flight finish, and
   calibrates the host's speed (Daemon.calibrate) before it goes on. Each
   segment's wall time and doc latencies are scaled by the mean of the
   calibrations on either side of it. The pauses count neither in the
   window nor against the deadline. *)
let segment_s = 1.0

let due p = Common.now () -. p.seg_t0 >= segment_s

(* Ends the current segment at the last reply, with nothing in flight,
   and calibrates. Returns the seconds the pause took out of the run. *)
let pause p =
  p.segs <- Float.max 0. (p.t_last -. p.seg_t0) :: p.segs;
  p.cals <- Daemon.calibrate () :: p.cals;
  let t = Common.now () in
  let gap = t -. Float.max p.t_last p.seg_t0 in
  p.seg_t0 <- t;
  gap

(* Ends the last segment, if a doc finished in it. *)
let finish p =
  if p.t_last > p.seg_t0 then begin
    p.segs <- (p.t_last -. p.seg_t0) :: p.segs;
    p.cals <- Daemon.calibrate () :: p.cals
  end

(* Each segment's speed, oldest first. *)
let speeds p =
  let c = Array.of_list (List.rev p.cals) in
  Array.init (List.length p.segs) (fun i -> Common.speed c.(i) c.(i + 1))

(* The measured window in wall seconds, and in seconds at the reference
   speed. *)
let window p = List.fold_left ( +. ) 0. p.segs

let ref_window p =
  let sp = speeds p in
  List.fold_left ( +. ) 0. (List.rev p.segs |> List.mapi (fun i w -> w *. sp.(i)))

(* Doc latencies [lat] (of [p]), in wall seconds and at the reference
   speed. *)
let raw_lat lat = List.map fst lat

let ref_lat p lat =
  let sp = speeds p in
  List.map (fun (l, k) -> l *. sp.(k)) lat

(* An ERROR reply. Every generated doc tokenizes in full (its reference
   proves it), so a Lexical error is a wrong answer: returns [true] and the
   caller counts the doc as mismatched. Any other code (protocol,
   capacity, shutdown) counts as a failed request. *)
let rejected p workload v =
  match Conn.reply_of_view v with
  | Wire.Error { code; message; _ } ->
      Common.detail "%s: ERROR %s: %s" workload (Wire.error_code_to_string code) message;
      if code = Wire.Lexical then true
      else begin
        p.failed <- p.failed + 1;
        false
      end
  | _ -> failwith "expected ERROR"

(* A doc whose reply was cut off: a mismatch if the daemon had already
   rejected it, else a failed request. *)
let lost p tc = if tc.bad then p.mismatched <- p.mismatched + 1 else p.failed <- p.failed + 1

let is_conn o c = match o with Some c' -> c' == c | None -> false

(* ---- json-stream: 2 closed-loop connections streaming long docs ---- *)

let json_window = 4 * Workload.feed_bytes

type jslot = {
  id : int;
  mutable conn : Conn.t option;
  mutable tc : tokcheck;
  mutable sent : int;
  mutable flushed : bool;
  mutable finished : bool;  (* PENDING seen *)
  mutable t_doc : float;
  mutable k : int;
}

let json_stream ~sock ~(docs : Workload.doc array) ~seconds =
  let p = phase () in
  let deadline = ref infinity in
  let slots =
    Array.init 2 (fun id ->
        {
          id;
          conn = None;
          tc = tokcheck docs.(0);
          sent = 0;
          flushed = false;
          finished = true;
          t_doc = 0.;
          k = 0;
        })
  in
  let running = ref true in
  let t_wake = ref (Common.now ()) in
  let on_view s _ (v : Wire.Decoder.view) =
    if v.vtag = Wire.tag_tokens then tokens_of_view s.tc v
    else if v.vtag = Wire.tag_pending && not s.finished then begin
      s.finished <- true;
      complete p ~t:(Common.now ()) ~t_start:s.t_doc ~bytes:(String.length s.tc.text)
        ~ok:(tokcheck_ok s.tc (Conn.pending_of_view v))
    end
    else if v.vtag = Wire.tag_error then
      if rejected p "json-stream" v then begin
        (* no more tokens will open the window: skip to FLUSH, whose
           PENDING then reports the doc as mismatched *)
        s.tc.bad <- true;
        s.sent <- String.length s.tc.text
      end
      else s.finished <- true
  in
  while !running do
    running := false;
    Array.iter
      (fun s ->
        (match s.conn with
        | Some c when c.Conn.eof ->
            Conn.close c;
            if not s.finished then lost p s.tc;
            s.conn <- None
        | _ -> ());
        (match s.conn with
        | None when Common.now () < !deadline && due p ->
            running := true (* waits for the pause *)
        | None when Common.now () < !deadline ->
            let c = Conn.connect sock in
            Conn.send c (Wire.Open "json");
            let d = docs.((s.id + (2 * s.k)) mod Array.length docs) in
            s.k <- s.k + 1;
            s.conn <- Some c;
            s.tc <- tokcheck d;
            s.sent <- 0;
            s.flushed <- false;
            s.finished <- false;
            p.attempted <- p.attempted + 1
        | _ -> ());
        match s.conn with
        | None -> ()
        | Some c ->
            running := true;
            let len = String.length s.tc.text in
            let sent_before = s.sent in
            while s.sent < len && s.sent + Workload.feed_bytes - s.tc.off <= json_window do
              let n = min Workload.feed_bytes (len - s.sent) in
              let t = Common.now () in
              if s.sent = 0 then begin
                s.t_doc <- t;
                if p.t_first = infinity then begin
                  start p t;
                  deadline := t +. seconds
                end
              end;
              Conn.send_feed c s.tc.text s.sent n;
              s.sent <- s.sent + n
            done;
            if s.sent > sent_before && sent_before > 0 then
              p.lag <- (Common.now () -. !t_wake) :: p.lag;
            if s.sent = len && not s.flushed then begin
              Conn.send c Wire.Flush;
              Conn.send c Wire.Close;
              s.flushed <- true
            end)
      slots;
    if !running then begin
      match Array.to_list slots |> List.filter_map (fun s -> s.conn) with
      | [] -> deadline := !deadline +. pause p
      | conns ->
          List.iter Conn.write_some conns;
          Conn.pump conns ~timeout:0.05 (fun c v ->
              let s = Array.to_list slots |> List.find (fun s -> is_conn s.conn c) in
              on_view s c v)
    end;
    t_wake := Common.now ()
  done;
  finish p;
  p

(* ---- csv-docs: 2 closed-loop sessions of small independent docs ---- *)

(* Docs in flight per connection: enough that the daemon always has a
   queued request, so per-request work, not the generator's wake-ups,
   sets the pace. *)
let csv_depth = 32

type cslot = {
  mutable cc : Conn.t option;
  inflight : (tokcheck * float) Queue.t;
  mutable quota : int;  (* docs left before this session closes *)
  mutable closing : bool;
}

(* Requests cycle through [docs] in order; session quotas come from
   [prng]. *)
let csv_docs ~sock ~(docs : Workload.doc array) ~prng ~seconds =
  let p = phase () in
  let next = ref 0 in
  let slots =
    Array.init 2 (fun _ -> { cc = None; inflight = Queue.create (); quota = 0; closing = false })
  in
  let deadline = ref (Common.now () +. seconds) in
  let t_wake = ref (Common.now ()) in
  let on_view s (v : Wire.Decoder.view) =
    if v.vtag = Wire.tag_tokens then
      match Queue.peek_opt s.inflight with
      | Some (tc, _) -> tokens_of_view tc v
      | None -> failwith "TOKENS with no doc in flight"
    else if v.vtag = Wire.tag_pending then
      match Queue.take_opt s.inflight with
      | Some (tc, t_send) ->
          complete p ~t:(Common.now ()) ~t_start:t_send ~bytes:(String.length tc.text)
            ~ok:(tokcheck_ok tc (Conn.pending_of_view v))
      | None -> failwith "PENDING with no doc in flight"
    else if v.vtag = Wire.tag_error then
      if rejected p "csv-docs" v then
        match Queue.peek_opt s.inflight with
        | Some (tc, _) -> tc.bad <- true
        | None -> failwith "ERROR with no doc in flight"
  in
  let busy () = Array.exists (fun s -> s.cc <> None) slots in
  let idle () = Array.for_all (fun s -> Queue.is_empty s.inflight) slots in
  while Common.now () < !deadline || busy () do
    Array.iter
      (fun s ->
        match s.cc with
        | None ->
            if Common.now () < !deadline then begin
              let c = Conn.connect sock in
              Conn.send c (Wire.Open "csv");
              s.cc <- Some c;
              s.quota <- Prng.in_range prng 32 256;
              s.closing <- false
            end
        | Some c when c.Conn.eof ->
            Conn.close c;
            Queue.iter (fun (tc, _) -> lost p tc) s.inflight;
            Queue.clear s.inflight;
            s.cc <- None
        | Some c when not s.closing ->
            let sent = ref false in
            while
              Common.now () < !deadline
              && (not (due p))
              && s.quota > 0
              && Queue.length s.inflight < csv_depth
            do
              let d = docs.(!next mod Array.length docs) in
              incr next;
              let t = Common.now () in
              start p t;
              Conn.send_feed c d.text 0 (String.length d.text);
              Conn.send c Wire.Flush;
              Queue.push (tokcheck d, t) s.inflight;
              s.quota <- s.quota - 1;
              p.attempted <- p.attempted + 1;
              sent := true
            done;
            if !sent then p.lag <- (Common.now () -. !t_wake) :: p.lag;
            if (s.quota = 0 || Common.now () >= !deadline) && Queue.is_empty s.inflight then begin
              Conn.send c Wire.Close;
              s.closing <- true
            end
        | Some _ -> ())
      slots;
    if Common.now () < !deadline && due p && idle () then deadline := !deadline +. pause p
    else begin
      let conns = Array.to_list slots |> List.filter_map (fun s -> s.cc) in
      List.iter Conn.write_some conns;
      Conn.pump conns ~timeout:0.05 (fun c v ->
          on_view (Array.to_list slots |> List.find (fun s -> is_conn s.cc c)) v)
    end;
    t_wake := Common.now ()
  done;
  finish p;
  p

(* ---- bpe-ids: 1 closed-loop connection, fresh text docs, token ids ---- *)

type bdoc = {
  btext : string;
  mutable ids_h : int;
  mutable ids_n : int;
  mutable ok : bool;
  mutable rejected : bool;  (* Lexical ERROR: a mismatch *)
  mutable err : bool;  (* other ERROR: failed, not checked *)
}

(* The fixed-work figures of a bpe-ids run: the daemon's VmHWM right after
   the doc that brings the input to [Workload.bpe_fixed_bytes], and the
   latencies of the docs up to it. *)
type fixed = { rss_mb : float; lat : (float * int) list }

let bpe_ids ~sock ~pid ~open_req ~src ~seconds =
  let p = phase () in
  let fixed = ref None in
  let c = Conn.connect sock in
  Conn.send c open_req;
  Daemon.await_opened c;
  let done_ = ref [] in
  let cur = ref None in
  let t_wake = ref 0. in
  let on_view _ (v : Wire.Decoder.view) =
    match !cur with
    | None -> failwith "reply with no doc in flight"
    | Some (d, t_send) ->
        if v.vtag = Wire.tag_ids then begin
          match
            Wire.iter_ids_view v (fun id ->
                d.ids_h <- Common.mix d.ids_h id;
                d.ids_n <- d.ids_n + 1)
          with
          | Ok _ -> ()
          | Error e -> failwith ("malformed IDS: " ^ e)
        end
        else if v.vtag = Wire.tag_pending then begin
          let ok, off = Conn.pending_of_view v in
          d.ok <- ok && off = String.length d.btext && not d.rejected;
          if not d.err then begin
            complete p ~t:(Common.now ()) ~t_start:t_send ~bytes:(String.length d.btext)
              ~ok:true;
            done_ := d :: !done_;
            if !fixed = None && p.bytes >= Workload.bpe_fixed_bytes then
              fixed := Some { rss_mb = Common.vm_hwm_mb pid; lat = p.lat }
          end;
          cur := None
        end
        else if v.vtag = Wire.tag_error then
          if rejected p "bpe-ids" v then d.rejected <- true else d.err <- true
  in
  let next = ref (Workload.bpe_next src) in
  let deadline = ref infinity and hard_deadline = ref infinity in
  (* the window, and then the fixed docs, unless the daemon is so slow
     that they outlast the hard limit *)
  let more () =
    let t = Common.now () in
    (t < !deadline || p.bytes < Workload.bpe_fixed_bytes)
    && t < !hard_deadline && p.bytes < Workload.bpe_byte_cap
  in
  while more () || !cur <> None do
    (match !cur with
    | None when more () ->
        if p.t_first < infinity && due p then begin
          let gap = pause p in
          deadline := !deadline +. gap;
          hard_deadline := !hard_deadline +. gap;
          t_wake := Common.now ()
        end;
        let text = !next in
        let t = Common.now () in
        if p.t_first = infinity then begin
          start p t;
          deadline := t +. seconds;
          hard_deadline := t +. Float.max seconds Workload.bpe_max_seconds
        end
        else p.lag <- (t -. !t_wake) :: p.lag;
        Conn.send_feed c text 0 (String.length text);
        Conn.send c Wire.Flush;
        p.attempted <- p.attempted + 1;
        cur :=
          Some
            ( {
                btext = text;
                ids_h = Common.hash_basis;
                ids_n = 0;
                ok = false;
                rejected = false;
                err = false;
              },
              t );
        Conn.write_some c;
        next := Workload.bpe_next src
    | _ -> ());
    if c.Conn.eof then failwith "daemon hung up mid-run";
    Conn.pump [ c ] ~timeout:0.05 on_view;
    t_wake := Common.now ()
  done;
  finish p;
  Conn.send c Wire.Close;
  Conn.write_some c;
  Conn.close c;
  let fixed =
    match !fixed with
    | Some f -> f
    | None ->
        Common.detail "bpe-ids: only %d of the %d fixed bytes done" p.bytes
          Workload.bpe_fixed_bytes;
        { rss_mb = Common.vm_hwm_mb pid; lat = p.lat }
  in
  (List.rev !done_, p, fixed)

(* Post-run check of every doc sent against the merge-loop encoder. *)
let bpe_verify vocab p docs =
  List.iter
    (fun d ->
      let want = Workload.bpe_ref vocab d.btext in
      if not (d.ok && d.ids_n = want.Common.ntok && d.ids_h = want.Common.hash) then
        p.mismatched <- p.mismatched + 1)
    docs
