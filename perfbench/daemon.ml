(* A real `streamtok serve` daemon in its own process (default --domains 1),
   observed only from outside: its ready line, the wire protocol, and
   /proc/PID. *)

open Streamtok.Serve

let exe = "perfbench/_run/build/default/bin/streamtok_cli.exe"  (* built by run.sh *)
let run_dir = "perfbench/_run"

type t = { pid : int; sock : string; ready : Unix.file_descr }

let counter = ref 0

let spawn () =
  if not (Sys.file_exists exe) then failwith (exe ^ " not built");
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  incr counter;
  let sock = Printf.sprintf "%s/d%d-%d.sock" run_dir (Unix.getpid ()) !counter in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe [| exe; "serve"; "--socket"; sock |] null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  { pid; sock; ready = r }

(* The daemon prints one line once its socket accepts. *)
let wait_ready d =
  let buf = Bytes.create 256 in
  let deadline = Common.now () +. 30. in
  let rec go acc =
    if String.contains acc '\n' then ()
    else if Common.now () > deadline then failwith "daemon did not become ready"
    else
      match Unix.select [ d.ready ] [] [] 1.0 with
      | [], _, _ -> go acc
      | _ -> (
          match Unix.read d.ready buf 0 256 with
          | 0 -> failwith "daemon exited before listening"
          | n -> go (acc ^ Bytes.sub_string buf 0 n))
  in
  go ""

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Common.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Common.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close d.ready;
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

let live : t list ref = ref []

let stop_all () =
  List.iter stop !live;
  live := []

(* Wait for OPENED on [c]; fails on ERROR. *)
let await_opened c =
  let opened = ref false in
  let ok =
    Conn.pump_until [ c ] ~timeout:60.
      (fun _ v ->
        match Conn.reply_of_view v with
        | Wire.Opened _ -> opened := true
        | Wire.Error { message; _ } -> failwith ("OPEN refused: " ^ message)
        | _ -> ())
      (fun () -> !opened)
  in
  if not ok then failwith "no OPENED reply"

(* Spawn a daemon and time spawn -> first OPENED (grammar/vocab compile). *)
let setup open_req =
  let t0 = Common.now () in
  let d = spawn () in
  live := d :: !live;
  wait_ready d;
  let c = Conn.connect d.sock in
  Conn.send c open_req;
  await_opened c;
  let dt = Common.now () -. t0 in
  Conn.close c;
  (d, dt)

(* With two or more CPUs, the daemon runs on CPU 0 and the load
   generator on CPU 1, so the two never share a core and run-to-run
   placement stops moving the numbers. Daemons are spawned while this
   process sits on CPU 0, so they and all their threads inherit it (no
   pinning inside any set-up time); for the measured run this process
   moves to CPU 1, and back to CPU 0 only to calibrate, while the daemon
   is idle. Without taskset nothing is pinned. *)
let cpus = Domain.recommended_domain_count ()

(* [true] when taskset ran and succeeded. *)
let taskset pid cpu_list =
  cpus >= 2
  &&
  let argv = [| "taskset"; "-a"; "-p"; "-c"; cpu_list; string_of_int pid |] in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  match Unix.create_process "taskset" argv Unix.stdin null null with
  | pid ->
      Unix.close null;
      snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  | exception Unix.Unix_error _ ->
      Unix.close null;
      false

(* The CPU this process is pinned to, if any. *)
let self_cpu = ref None

let move_self cpu =
  match !self_cpu with
  | Some c when c <> cpu ->
      if not (taskset (Unix.getpid ()) (string_of_int cpu)) then failwith "taskset failed";
      self_cpu := Some cpu
  | _ -> ()

let unpin_self () =
  if !self_cpu <> None then begin
    ignore (taskset (Unix.getpid ()) (Printf.sprintf "0-%d" (cpus - 1)));
    self_cpu := None
  end

(* Seconds this process has spent calibrating, so that its CPU use can
   be told apart from the load generator's. *)
let cal_seconds = ref 0.

(* The host's speed on the daemon's CPU (Common.calibrate), measured
   while no request is in flight. *)
let calibrate () =
  let timed () =
    let c, dt = Common.time Common.calibrate in
    cal_seconds := !cal_seconds +. dt;
    c
  in
  match !self_cpu with
  | None -> timed ()
  | Some back ->
      move_self 0;
      let c = timed () in
      move_self back;
      c

(* [n] fresh daemons, each timed to its first OPENED and followed by a
   calibration; all but the last are stopped. Returns the last daemon,
   the median set-up time scaled to the reference speed, and the raw
   samples. *)
let setup_median ~n open_req =
  if taskset (Unix.getpid ()) "0" then self_cpu := Some 0;
  let rec go i acc raw =
    let d, dt = setup open_req in
    if i < n then begin
      stop d;
      live := List.filter (fun x -> x != d) !live
    end;
    let c = calibrate () in
    let acc = (dt *. Common.cal_ref_s /. c) :: acc and raw = dt :: raw in
    if i = n then (d, Common.median acc, raw) else go (i + 1) acc raw
  in
  go 1 [] []

(* Moves this process to the generator's CPU; returns the CPUs the run
   is pinned to, [Some [0; 1]], or [None] when it could not be pinned. *)
let pin () =
  match !self_cpu with
  | None -> None
  | Some _ ->
      move_self 1;
      Some [ 0; 1 ]

(* End-of-run STATS (JSON) on a fresh connection, as (name, value) pairs. *)
let stats d =
  let c = Conn.connect d.sock in
  Conn.send c (Wire.Stats Wire.Json);
  let body = ref None in
  ignore
    (Conn.pump_until [ c ] ~timeout:10.
       (fun _ v ->
         match Conn.reply_of_view v with
         | Wire.Metrics { body = b; _ } -> body := Some b
         | _ -> ())
       (fun () -> !body <> None));
  Conn.close c;
  let open Streamtok.Obs.Json in
  match !body with
  | None -> failwith "no METRICS reply"
  | Some s -> (
      match of_string s with
      | Error e -> failwith ("STATS: " ^ e)
      | Ok j ->
          let ms = Option.value ~default:[] (Option.bind (member "metrics" j) to_list_opt) in
          List.filter_map
            (fun mj ->
              match
                ( Option.bind (member "name" mj) to_string_opt,
                  Option.bind (member "value" mj) to_float_opt )
              with
              | Some n, Some v -> Some (n, v)
              | _ -> None)
            ms)
