open St_obs
open St_streamtok

type worker = {
  idx : int;
  queue : Unix.file_descr Queue.t;  (* fd handoff into this worker *)
  mu : Mutex.t;  (* guards [queue] *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable published : Metrics.Registry.t option;
      (* a Server.snapshot, never mutated; guarded by pool.pub_mu *)
  mutable domain : unit Domain.t option;
}

type t = {
  cfg : Server.config;
  cache : Engine_cache.t;  (* one locked cache shared by every worker *)
  workers : worker array;
  stop_flag : bool Atomic.t;
  pub_mu : Mutex.t;
  started : float;
  mutable rr : int;  (* round-robin handoff cursor *)
}

type listener = { fd : Unix.file_descr; socket : string }

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

let push w fd =
  Mutex.lock w.mu;
  Queue.push fd w.queue;
  Mutex.unlock w.mu;
  wake w

let next_worker pool =
  let w = pool.workers.(pool.rr mod Array.length pool.workers) in
  pool.rr <- pool.rr + 1;
  w

(* Merge worker snapshots, then append the shared-cache metrics and
   uptime once. Published snapshots stay as they are: append to a copy. *)
let pool_registry pool first rest =
  let r =
    List.fold_left Metrics.Registry.merge (Metrics.Registry.copy first) rest
  in
  Server.add_shared_metrics r pool.cache
    ~uptime:(pool.cfg.Server.clock () -. pool.started);
  r

(* Pool-wide aggregated stats: the calling worker's live snapshot plus
   every other worker's last published one (at most ~50 ms + one select
   round stale). *)
let aggregate pool ~self_idx own =
  Mutex.lock pool.pub_mu;
  let others =
    Array.to_list pool.workers
    |> List.filter_map (fun w -> if w.idx = self_idx then None else w.published)
  in
  Mutex.unlock pool.pub_mu;
  pool_registry pool own others

let stats pool =
  Mutex.lock pool.pub_mu;
  let snaps =
    Array.to_list pool.workers |> List.filter_map (fun w -> w.published)
  in
  Mutex.unlock pool.pub_mu;
  match snaps with
  | [] -> None
  | first :: rest -> Some (pool_registry pool first rest)

let stop pool =
  Atomic.set pool.stop_flag true;
  Array.iter wake pool.workers

let max_timeout = 0.25

(* One worker's event loop. With [~listener] (worker 0 of {!serve}) it
   also accepts, handing each new fd to the next worker round-robin —
   itself included, registered directly, so a one-worker pool never
   touches a queue, a mutex or a pipe — and on stop closes and unlinks
   the socket before draining like every other worker. *)
let worker_loop pool w ~listener =
  let srv = Server.create ~cache:pool.cache ~config:pool.cfg () in
  Server.set_stats_hook srv (fun () ->
      aggregate pool ~self_idx:w.idx (Server.snapshot srv));
  let core = Io_loop.Core.create srv in
  let cfg = Server.config srv in
  let wbuf = Bytes.create 64 in
  let last_pub = ref neg_infinity in
  let publish ~force =
    let now = cfg.Server.clock () in
    if force || now -. !last_pub >= 0.05 then begin
      last_pub := now;
      let snap = Server.snapshot srv in
      Mutex.lock pool.pub_mu;
      w.published <- Some snap;
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
  (* Out of file descriptors (EMFILE / ENFILE), the refused connection
     stays in the backlog and the listener stays readable, so polling it
     would spin. Stop polling it until one of this worker's connections
     closes — or, for descriptors freed elsewhere, until a select timeout
     has passed — and count the event. *)
  let paused = ref None in
  let accept_new listen_fd =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true listen_fd with
      | fd, _ ->
          let dst = next_worker pool in
          if dst == w then Io_loop.Core.register core fd else push dst fd
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
  publish ~force:true;
  let finished = ref false in
  while not !finished do
    if Atomic.get pool.stop_flag && not (Server.draining srv) then begin
      (match listener with
      | Some l ->
          (try Unix.close l.fd with Unix.Unix_error _ -> ());
          (try Unix.unlink l.socket with Unix.Unix_error _ | Sys_error _ -> ())
      | None -> ());
      (* adopt handoffs still queued so they get the drain reply too *)
      drain_queue ();
      Server.drain srv
    end;
    (match !paused with
    | Some (live, since)
      when Server.live_conns srv < live
           || Unix.gettimeofday () -. since >= max_timeout ->
        paused := None
    | _ -> ());
    if Server.draining srv && Server.live_conns srv = 0 then finished := true
    else begin
      let extra =
        match listener with
        | Some l when !paused = None && not (Server.draining srv) ->
            [ w.wake_r; l.fd ]
        | _ -> [ w.wake_r ]
      in
      let ready = Io_loop.Core.iterate core ~extra ~max_timeout in
      List.iter
        (fun fd ->
          if fd == w.wake_r then begin
            drain_wakeup ();
            drain_queue ()
          end
          else accept_new fd)
        ready;
      publish ~force:false
    end
  done;
  publish ~force:true

let make_pool ?(config = Server.default_config) ~domains () =
  (* a worker writing to a freshly-dead client must not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    Array.init (max 1 domains) (fun idx ->
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
  {
    cfg = config;
    cache = Engine_cache.create ~max_entries:config.cache_entries ();
    workers;
    stop_flag = Atomic.make false;
    pub_mu = Mutex.create ();
    started = config.Server.clock ();
    rr = 0;
  }

let spawn pool w =
  w.domain <-
    Some (Domain.spawn (fun () -> worker_loop pool w ~listener:None))

let create_pool ?config ~domains () =
  let pool = make_pool ?config ~domains () in
  Array.iter (spawn pool) pool.workers;
  pool

let inject pool fd = push (next_worker pool) fd

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

let serve ?config ?(on_listening = fun () -> ()) ~domains ~socket () =
  let fd = Io_loop.bind_listener ~socket in
  let pool = make_pool ?config ~domains () in
  let handler = Sys.Signal_handle (fun _ -> stop pool) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  Array.iteri (fun i w -> if i > 0 then spawn pool w) pool.workers;
  on_listening ();
  worker_loop pool pool.workers.(0) ~listener:(Some { fd; socket });
  join pool
