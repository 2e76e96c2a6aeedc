(* Shared helpers: monotonic time, order statistics, the rolling token
   hash both sides of every parity check use, /proc readings of the daemon,
   and the result line. *)

let now () = float_of_int (Streamtok.Mclock.now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated so far (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* FNV-style mixing over 63-bit ints. Tokens hash as (rule, length):
   lexeme bytes are compared against the input directly by the client, so
   (rule, length) at consecutive offsets pins the (rule, lexeme) sequence. *)
let hash_basis = 0x4bf29ce484222325
let mix h x = (h lxor x) * 0x100000001b3
let hash_token h ~rule ~len = mix (mix h rule) len

type ref_doc = { ntok : int; hash : int }

let ref_of_tokens run =
  let n = ref 0 and h = ref hash_basis in
  run (fun ~rule ~len ->
      incr n;
      h := hash_token !h ~rule ~len);
  { ntok = !n; hash = !h }

(* ---- /proc readings of the daemon (from outside the process) ---- *)

let read_proc path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM (peak resident set) in MB. *)
let vm_hwm_mb pid =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.)

(* (utime, stime) in seconds; fields 14 and 15 of /proc/PID/stat, counted
   after the parenthesised command name. USER_HZ is 100 on Linux. *)
let cpu_seconds pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) /. 100., float_of_string f.(12) /. 100.)

(* Host steal time of each CPU, in seconds, indexed by CPU number: time
   the hypervisor ran something else while that CPU of the VM wanted to
   run (the cpuN lines of /proc/stat, 8th value). *)
let steal_seconds () =
  let per_cpu =
    List.filter_map
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | name :: fields when String.length name > 3 && String.sub name 0 3 = "cpu" ->
            Some
              ( int_of_string (String.sub name 3 (String.length name - 3)),
                float_of_string (List.nth fields 7) /. 100. )
        | _ -> None)
      (String.split_on_char '\n' (read_proc "/proc/stat"))
  in
  let a = Array.make (1 + List.fold_left (fun m (i, _) -> max m i) (-1) per_cpu) 0. in
  List.iter (fun (i, s) -> a.(i) <- s) per_cpu;
  a

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- host speed ----

   The VM shares its host's cores, caches and memory, and its speed
   drifts with what the host runs beside it: the same daemon run of the
   same code took 2x the wall time and CPU time per MB from one
   quarter-hour to the next. So every run times a fixed unit of work on
   the daemon's CPU, between segments of load, and scales its wall-clock
   figures to the speed that unit has on an idle host, [cal_ref_s] (see
   README.md). The work is written here, apart from the code under test,
   and mixes what the daemon's time goes to: a dependent walk over a
   512 KB table (a DFA scan), memory copies through a 16 MB ring (beyond
   L2, where a shared host hurts most), short-lived allocation, and
   64 KB socket round trips (syscalls and kernel copies). *)

let cal_table = Array.init 65536 (fun i -> ((i * 7919) + 13) land 255)
let cal_input = Bytes.init 8192 (fun i -> Char.chr (((i * 31) + (i / 7)) land 255))
let cal_ring_bytes = 16 lsl 20
let cal_src = Bytes.make cal_ring_bytes 'a'
let cal_dst = Bytes.make cal_ring_bytes 'b'
let cal_ring = ref 0
let cal_buf = Bytes.create 65536
let cal_sock = lazy (Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0)

let cal_unit () =
  let s = ref 0 in
  for _ = 1 to 10 do
    for i = 0 to Bytes.length cal_input - 1 do
      s := Array.unsafe_get cal_table ((!s lsl 8) lor Char.code (Bytes.unsafe_get cal_input i))
    done
  done;
  for _ = 1 to 2 do
    let off = !cal_ring in
    cal_ring := (off + (1 lsl 20)) land (cal_ring_bytes - 1);
    Bytes.blit cal_src off cal_dst off (1 lsl 20)
  done;
  (* short-lived blocks only: a block that outlives a minor collection
     would put the major GC, and the size of this process's heap, into
     the timing *)
  let x = ref (0, 0) in
  for i = 1 to 100_000 do
    x := Sys.opaque_identity (i, !s)
  done;
  let a, b = Lazy.force cal_sock in
  for _ = 1 to 4 do
    ignore (Unix.write a cal_src 0 65536);
    let got = ref 0 in
    while !got < 65536 do
      got := !got + Unix.read b cal_buf 0 65536
    done
  done;
  fst !x + !s

(* Seconds per unit on an idle host: a 2-vCPU Intel Xeon VM. *)
let cal_ref_s = 1e-3

(* Median seconds per unit over [cal_units] units, after a warm-up. *)
let cal_units = 41

let calibrate () =
  for _ = 1 to 5 do
    ignore (cal_unit ())
  done;
  median (List.init cal_units (fun _ -> snd (time cal_unit)))

(* Share of the reference speed the host gave, given the calibrations
   before and after a stretch of work: below 1 on a slower host. *)
let speed c_before c_after = cal_ref_s /. ((c_before +. c_after) /. 2.)

(* ---- result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let detail fmt = Printf.printf (fmt ^^ "\n%!")

exception Invalid_run of string

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        raise (Invalid_run (Printf.sprintf "metric %s is not finite" x.name)))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
