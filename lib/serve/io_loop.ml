let stop = ref false

(* io.read wraps the syscall plus the decode/session/flush work done in
   Server.on_data, which nests its own spans inside; io.write is the
   flush syscall side. Both are per-select-readiness, not per-byte. *)
let p_read = St_trace.Trace.probe ~cat:"io" "io.read"
let p_write = St_trace.Trace.probe ~cat:"flush" "io.write"

let install_signal_handlers () =
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  (* A client killed mid-write must not take the daemon down. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let rec select_eintr r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w e timeout

let bind_listener ~socket =
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
     (* A previous daemon's socket file. Refuse to steal a live one. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let live =
       try
         Unix.connect probe (Unix.ADDR_UNIX socket);
         Unix.close probe;
         true
       with Unix.Unix_error _ ->
         Unix.close probe;
         false
     in
     if live then begin
       Unix.close listen_fd;
       raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", socket))
     end
     else begin
       Unix.unlink socket;
       Unix.bind listen_fd (Unix.ADDR_UNIX socket)
     end);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  listen_fd

module Core = struct
  type t = {
    srv : Server.t;
    fd_of_id : (Server.conn_id, Unix.file_descr) Hashtbl.t;
    id_of_fd : (Unix.file_descr, Server.conn_id) Hashtbl.t;
    rbuf : Bytes.t;
    vecs : (Bytes.t * int * int) array;  (* writev gather scratch *)
  }

  let create srv =
    {
      srv;
      fd_of_id = Hashtbl.create 32;
      id_of_fd = Hashtbl.create 32;
      rbuf = Bytes.create 65536;
      vecs = Array.make 3 (Bytes.empty, 0, 0);
    }

  let register t fd =
    Unix.set_nonblock fd;
    let id = Server.on_connect t.srv in
    Hashtbl.replace t.fd_of_id id fd;
    Hashtbl.replace t.id_of_fd fd id

  let drop_conn t ~eof id =
    match Hashtbl.find_opt t.fd_of_id id with
    | None -> ()
    | Some fd ->
        Hashtbl.remove t.fd_of_id id;
        Hashtbl.remove t.id_of_fd fd;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if eof then Server.on_eof t.srv id else Server.on_closed t.srv id

  let read_conn t fd id =
    St_trace.Trace.begin_span p_read;
    (match Unix.read fd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> drop_conn t ~eof:true id
    | n -> Server.on_data t.srv id t.rbuf ~pos:0 ~len:n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        drop_conn t ~eof:true id);
    St_trace.Trace.end_span p_read

  (* The gathered flush: out queue + deferred batch frame in one
     writev; a long-running daemon should never die on a write errno, so
     unknown errors also just drop the connection. *)
  let write_conn t fd id =
    St_trace.Trace.begin_span p_write;
    (let k = Server.out_vectors t.srv id t.vecs in
     if k > 0 then
       match Writev.write fd t.vecs k with
       | Writev.Written n -> Server.out_vec_consume t.srv id n
       | Writev.Retry -> ()
       | Writev.Closed | Writev.Error _ -> drop_conn t ~eof:true id);
    St_trace.Trace.end_span p_write

  (* One select round: build the fd sets from the server's backpressure
     and pending-output queries (plus [extra] — a listener or a wakeup
     pipe, whose readiness is returned to the caller), dispatch reads
     and writes, complete drain-closes, tick. *)
  let iterate t ~extra ~max_timeout =
    let reads = ref extra in
    let writes = ref [] in
    List.iter
      (fun id ->
        match Hashtbl.find_opt t.fd_of_id id with
        | None -> ()
        | Some fd ->
            if Server.wants_read t.srv id then reads := fd :: !reads;
            if Server.out_pending t.srv id > 0 then writes := fd :: !writes)
      (Server.conn_ids t.srv);
    let timeout =
      let cfg = Server.config t.srv in
      let now = cfg.Server.clock () in
      match Server.next_deadline t.srv with
      | Some dl -> Float.max 0.01 (Float.min max_timeout (dl -. now))
      | None -> max_timeout
    in
    let readable, writable, _ = select_eintr !reads !writes [] timeout in
    List.iter
      (fun fd ->
        if not (List.memq fd extra) then
          match Hashtbl.find_opt t.id_of_fd fd with
          | Some id -> read_conn t fd id
          | None -> ())
      readable;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.id_of_fd fd with
        | Some id -> if Hashtbl.mem t.fd_of_id id then write_conn t fd id
        | None -> ())
      writable;
    (* complete drain-closes whose output queues emptied *)
    List.iter
      (fun id ->
        if Hashtbl.mem t.fd_of_id id && Server.should_close t.srv id then
          drop_conn t ~eof:false id)
      (Server.conn_ids t.srv);
    Server.on_tick t.srv;
    List.filter (fun fd -> List.memq fd readable) extra
end

let serve ?config ?(on_listening = fun () -> ()) ?should_stop ~socket () =
  stop := false;
  let srv =
    match config with
    | None -> Server.create ()
    | Some config -> Server.create ~config ()
  in
  (* A caller-supplied stop predicate (bench harnesses, worker pools)
     replaces the process-global signal handlers. *)
  (match should_stop with None -> install_signal_handlers () | Some _ -> ());
  let stop_requested () =
    !stop || match should_stop with Some f -> f () | None -> false
  in
  let max_timeout = match should_stop with None -> 1.0 | Some _ -> 0.05 in
  let listen_fd = bind_listener ~socket in
  on_listening ();
  let core = Core.create srv in
  (* Out of file descriptors (EMFILE / ENFILE), the refused connection
     stays in the backlog and the listener stays readable, so polling it
     would spin. Stop polling it until a connection closes — or, for
     descriptors freed outside this loop, until a select timeout has
     passed — and count the event. *)
  let paused = ref None in
  let accept_new () =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true listen_fd with
      | fd, _ -> Core.register core fd
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EPERM), _, _) ->
          ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          Server.note_accept_exhausted srv;
          paused := Some (Server.live_conns srv, Unix.gettimeofday ());
          continue := false
    done
  in
  let listening = ref true in
  let finished = ref false in
  while not !finished do
    if stop_requested () && not (Server.draining srv) then Server.drain srv;
    if Server.draining srv && !listening then begin
      listening := false;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ())
    end;
    (match !paused with
    | Some (live, since)
      when Server.live_conns srv < live
           || Unix.gettimeofday () -. since >= max_timeout ->
        paused := None
    | _ -> ());
    if Server.draining srv && Server.live_conns srv = 0 then finished := true
    else begin
      let extra = if !listening && !paused = None then [ listen_fd ] else [] in
      let ready = Core.iterate core ~extra ~max_timeout in
      if ready <> [] then accept_new ()
    end
  done;
  if !listening then begin
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ()
  end
