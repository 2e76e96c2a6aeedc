open St_streamtok

type worker = {
  idx : int;
  queue : Unix.file_descr Queue.t;  (* acceptor -> worker fd handoff *)
  mu : Mutex.t;  (* guards [queue] *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable published : Server.totals option;  (* guarded by pool.pub_mu *)
  mutable domain : unit Domain.t option;
}

type t = {
  cfg : Server.config;
  cache : Engine_cache.t option;  (* [Some] = one shared locked cache *)
  workers : worker array;
  stop_flag : bool Atomic.t;
  accept_exhausted : int Atomic.t;  (* acceptor EMFILE/ENFILE count *)
  pub_mu : Mutex.t;
  mutable rr : int;  (* round-robin handoff cursor *)
}

let wake_byte = Bytes.make 1 '!'

(* A full pipe means a wakeup is already pending — dropping the byte is
   exactly as good as writing it. *)
let wake w =
  try ignore (Unix.write w.wake_w wake_byte 0 1)
  with
  | Unix.Unix_error
      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.EPIPE), _, _)
  ->
    ()

let shared_cache pool = Option.is_some pool.cache

let pool_registry pool snaps =
  Server.registry_of_totals
    (Server.add_accept_exhausted
       (Server.sum_totals ~shared_cache:(shared_cache pool) snaps)
       (Atomic.get pool.accept_exhausted))

(* Pool-wide aggregated stats: the calling worker's live snapshot plus
   every other worker's last published one (at most ~50 ms + one select
   round stale). *)
let aggregate pool ~self_idx own =
  Mutex.lock pool.pub_mu;
  let snaps =
    Array.to_list
      (Array.map
         (fun w -> if w.idx = self_idx then Some own else w.published)
         pool.workers)
  in
  Mutex.unlock pool.pub_mu;
  let snaps = List.filter_map Fun.id snaps in
  pool_registry pool snaps

let stats pool =
  Mutex.lock pool.pub_mu;
  let snaps =
    Array.to_list pool.workers |> List.filter_map (fun w -> w.published)
  in
  Mutex.unlock pool.pub_mu;
  match snaps with
  | [] -> None
  | snaps -> Some (pool_registry pool snaps)

let worker_loop pool w =
  let srv = Server.create ?cache:pool.cache ~config:pool.cfg () in
  Server.set_stats_hook srv (fun () ->
      aggregate pool ~self_idx:w.idx (Server.totals srv));
  let core = Io_loop.Core.create srv in
  let cfg = Server.config srv in
  let wbuf = Bytes.create 64 in
  let last_pub = ref neg_infinity in
  let publish ~force =
    let now = cfg.Server.clock () in
    if force || now -. !last_pub >= 0.05 then begin
      last_pub := now;
      let tot = Server.totals srv in
      Mutex.lock pool.pub_mu;
      w.published <- Some tot;
      Mutex.unlock pool.pub_mu
    end
  in
  let drain_queue () =
    Mutex.lock w.mu;
    let fds = ref [] in
    while not (Queue.is_empty w.queue) do
      fds := Queue.pop w.queue :: !fds
    done;
    Mutex.unlock w.mu;
    List.iter (Io_loop.Core.register core) (List.rev !fds)
  in
  let drain_wakeup () =
    let continue = ref true in
    while !continue do
      match Unix.read w.wake_r wbuf 0 (Bytes.length wbuf) with
      | n -> if n < Bytes.length wbuf then continue := false
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          continue := false
    done
  in
  publish ~force:true;
  let finished = ref false in
  while not !finished do
    if Atomic.get pool.stop_flag && not (Server.draining srv) then begin
      (* adopt handoffs still queued so they get the drain reply too *)
      drain_queue ();
      Server.drain srv
    end;
    if Server.draining srv && Server.live_conns srv = 0 then finished := true
    else begin
      let ready =
        Io_loop.Core.iterate core ~extra:[ w.wake_r ] ~max_timeout:0.25
      in
      if ready <> [] then begin
        drain_wakeup ();
        drain_queue ()
      end;
      publish ~force:false
    end
  done;
  publish ~force:true

let create_pool ?(config = Server.default_config) ?(cache_mode = `Shared)
    ~domains () =
  (* a worker writing to a freshly-dead client must not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = max 1 domains in
  let cache =
    match cache_mode with
    | `Shared -> Some (Engine_cache.create ~max_entries:config.cache_entries ())
    | `Per_domain -> None
  in
  let workers =
    Array.init n (fun idx ->
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          idx;
          queue = Queue.create ();
          mu = Mutex.create ();
          wake_r;
          wake_w;
          published = None;
          domain = None;
        })
  in
  let pool =
    {
      cfg = config;
      cache;
      workers;
      stop_flag = Atomic.make false;
      accept_exhausted = Atomic.make 0;
      pub_mu = Mutex.create ();
      rr = 0;
    }
  in
  Array.iter
    (fun w -> w.domain <- Some (Domain.spawn (fun () -> worker_loop pool w)))
    workers;
  pool

let domains pool = Array.length pool.workers

let inject pool fd =
  let w = pool.workers.(pool.rr mod Array.length pool.workers) in
  pool.rr <- pool.rr + 1;
  Mutex.lock w.mu;
  Queue.push fd w.queue;
  Mutex.unlock w.mu;
  wake w

let stop pool =
  Atomic.set pool.stop_flag true;
  Array.iter wake pool.workers

let join pool =
  Array.iter
    (fun w ->
      (match w.domain with
      | Some d ->
          Domain.join d;
          w.domain <- None
      | None -> ());
      (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
      try Unix.close w.wake_w with Unix.Unix_error _ -> ())
    pool.workers

let rec select_eintr r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w e timeout

let serve ?config ?(on_listening = fun () -> ()) ?should_stop ?cache_mode
    ~domains ~socket () =
  if domains <= 1 then Io_loop.serve ?config ~on_listening ?should_stop ~socket ()
  else begin
    let pool = create_pool ?config ?cache_mode ~domains () in
    let sigstop = Atomic.make false in
    (match should_stop with
    | Some _ -> ()
    | None ->
        let handler = Sys.Signal_handle (fun _ -> Atomic.set sigstop true) in
        Sys.set_signal Sys.sigterm handler;
        Sys.set_signal Sys.sigint handler);
    let stop_requested () =
      Atomic.get sigstop
      || match should_stop with Some f -> f () | None -> false
    in
    let listen_fd = Io_loop.bind_listener ~socket in
    on_listening ();
    let timeout = match should_stop with None -> 0.25 | Some _ -> 0.05 in
    (* Out of file descriptors (EMFILE / ENFILE): the listener stays
       readable with the refused connection in its backlog, so back off
       for one select timeout without polling it; the workers close
       connections meanwhile. *)
    let paused = ref false in
    let accept_new () =
      let continue = ref true in
      while !continue do
        match Unix.accept ~cloexec:true listen_fd with
        | fd, _ -> inject pool fd
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception
            Unix.Unix_error ((Unix.ECONNABORTED | Unix.EPERM), _, _) ->
            ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
            Atomic.incr pool.accept_exhausted;
            paused := true;
            continue := false
      done
    in
    while not (stop_requested ()) do
      let listen = if !paused then [] else [ listen_fd ] in
      paused := false;
      match select_eintr listen [] [] timeout with
      | [], _, _ -> ()
      | _ -> accept_new ()
    done;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
    stop pool;
    join pool
  end
