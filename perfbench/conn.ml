(* Client side of one daemon connection: non-blocking Unix-domain socket,
   an outgoing frame queue, and the reply decoder. The load generator's
   event loop multiplexes these with [pump]. *)

open Streamtok.Serve

type t = {
  fd : Unix.file_descr;
  out : Outbuf.t;
  dec : Wire.Decoder.t;
  mutable eof : bool;
}

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.set_nonblock fd;
  { fd; out = Outbuf.create ~capacity:(256 lsl 10) (); dec = Wire.Decoder.create (); eof = false }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Control requests go through [Wire.encode_request]; FEED payloads are
   framed straight from the doc text, as [Client] does. *)
let scratch = Buffer.create 256

let send c req =
  Buffer.clear scratch;
  Wire.encode_request scratch req;
  Outbuf.add_buffer c.out scratch

let send_feed c s pos len = Outbuf.add_frame_substring c.out ~tag:Wire.tag_feed s pos len
let pending_out c = Outbuf.length c.out

let write_some c =
  let buf, pos, len = Outbuf.view c.out in
  if len > 0 then
    match Unix.single_write c.fd buf pos len with
    | n -> Outbuf.consume c.out n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> c.eof <- true

let rbuf = Bytes.create (1 lsl 20)

(* Read what is available and hand each complete reply frame to [on_view]
   (the view is valid only during the call). *)
let read_some c on_view =
  match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
  | 0 -> c.eof <- true
  | n ->
      Wire.Decoder.feed_bytes c.dec rbuf ~pos:0 ~len:n;
      let rec drain () =
        match Wire.Decoder.next_view c.dec with
        | Wire.Decoder.View v ->
            on_view v;
            drain ()
        | Wire.Decoder.View_need_more -> ()
        | Wire.Decoder.View_corrupt msg -> failwith ("corrupt reply stream: " ^ msg)
      in
      drain ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true

(* One select round over [conns]: writes pending requests, reads replies.
   Returns after at most [timeout] seconds. *)
let pump conns ~timeout on_view =
  let live = List.filter (fun c -> not c.eof) conns in
  let rd = List.map (fun c -> c.fd) live in
  let wr = List.filter_map (fun c -> if pending_out c > 0 then Some c.fd else None) live in
  match Unix.select rd wr [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, w, _ ->
      List.iter (fun c -> if List.memq c.fd w then write_some c) live;
      List.iter (fun c -> if List.memq c.fd r then read_some c (on_view c)) live

(* Decode a reply that is not TOKENS or IDS (those stay views). *)
let reply_of_view (v : Wire.Decoder.view) =
  match Wire.reply_of_frame { Wire.tag = v.vtag; payload = Wire.Decoder.view_string v } with
  | Ok r -> r
  | Error e -> failwith ("malformed reply: " ^ e)

let pending_of_view v =
  match reply_of_view v with
  | Wire.Pending { ok; offset; _ } -> (ok, offset)
  | _ -> failwith "expected PENDING"

(* Block until [pred ()] or [timeout] seconds pass. *)
let pump_until conns ~timeout on_view pred =
  let deadline = Common.now () +. timeout in
  while (not (pred ())) && Common.now () < deadline do
    pump conns ~timeout:(Float.min 0.05 (deadline -. Common.now ())) on_view
  done;
  pred ()
