open St_automata
module Bits = St_util.Bits
module Tnd = St_analysis.Tnd

type mode = Cursor.mode = Table_k1 of Bytes.t | Te of Te_dfa.t

type t = { dfa : Dfa.t; k : int; reject : bool array; mode : mode }

type error = Unbounded_tnd

let k e = e.k
let dfa e = e.dfa
let te_states e = match e.mode with Table_k1 _ -> 0 | Te te -> Te_dfa.num_states te

let delay e = Cursor.lookahead e.mode

let k1_table_bytes e =
  match e.mode with Table_k1 tbl -> Bytes.length tbl | Te _ -> 0

let footprint_bytes e =
  (* classed transition table + accept row, plus the 256-byte classmap that
     every lookup goes through, plus the acceleration flags + stop bitmaps *)
  let dfa_bytes =
    ((Array.length e.dfa.Dfa.trans + Array.length e.dfa.Dfa.accept) * 8)
    + 256
    + Dfa.accel_table_bytes e.dfa
  in
  let mode_bytes =
    match e.mode with
    | Table_k1 tbl -> Bytes.length tbl
    | Te te ->
        (* materialized powerstates: transition row + emit-bit row each *)
        Te_dfa.num_states te
        * ((Te_dfa.width te * 8) + (((Dfa.size e.dfa + 63) / 64) * 8) + 16)
        + Te_dfa.accel_bytes te
  in
  dfa_bytes + mode_bytes + delay e + 64

let build_k1_table d =
  let n = Dfa.size d in
  let nc = Dfa.num_classes d in
  let kw = nc + 1 in
  let tbl = Bytes.make (n * kw) '\000' in
  for q = 0 to n - 1 do
    if Dfa.is_final d q then begin
      for c = 0 to nc - 1 do
        if not (Dfa.is_final d (Dfa.step_class d q c)) then
          Bytes.set tbl ((q * kw) + c) '\001'
      done;
      (* at EOF nothing can extend the token *)
      Bytes.set tbl ((q * kw) + nc) '\001'
    end
  done;
  tbl

type compile_stats = {
  dfa_states : int;
  max_tnd : St_analysis.Tnd.result;
  analysis_seconds : float;
  build_seconds : float;
  te_states : int;
  k1_table_bytes : int;
  footprint_bytes : int;
}

(* The engine tables for a DFA whose max-TND is (at most) [k]. The
   token-extension DFA is correct for any lookahead ≥ max-TND, so forcing
   it on a K ≤ 1 grammar (ablation) uses K = 1. *)
let build ?(force_te = false) d ~k =
  let coacc = Dfa.co_accessible d in
  let reject = Array.init (Dfa.size d) (fun q -> not (Bits.mem coacc q)) in
  let mode =
    if k <= 1 && not force_te then Table_k1 (build_k1_table d)
    else Te (Te_dfa.build d ~k:(max k 1))
  in
  { dfa = d; k; reject; mode }

let compile_timed ?force_te d =
  let result, analysis_seconds =
    St_util.Timer.time_it (fun () -> Tnd.max_tnd d)
  in
  match result with
  | Tnd.Infinite -> Error Unbounded_tnd
  | Tnd.Finite k ->
      let e, build_seconds =
        St_util.Timer.time_it (fun () -> build ?force_te d ~k)
      in
      Ok
        ( e,
          {
            dfa_states = Dfa.size d;
            max_tnd = result;
            analysis_seconds;
            build_seconds;
            te_states = te_states e;
            k1_table_bytes = k1_table_bytes e;
            footprint_bytes = footprint_bytes e;
          } )

let compile ?force_te d = Result.map fst (compile_timed ?force_te d)

(* Deserialization fast path: the caller asserts the max-TND. Correct as
   long as k is ≥ the true (finite) max-TND of the DFA — the engine's
   lookahead only needs to be at least the real distance. *)
let compile_trusted d ~k =
  if k < 0 then invalid_arg "Engine.compile_trusted: negative k";
  build d ~k

let compile_rules ?classes ?accel ?swar ?max_states rules =
  compile (Dfa.of_rules ?classes ?accel ?swar ?max_states rules)

let compile_grammar src = compile (Dfa.of_grammar src)
let accel_states e = Dfa.accel_state_count e.dfa
let accel_swar_states e = Dfa.accel_swar_state_count e.dfa

type outcome = Finished | Failed of { offset : int; pending : string }

let outcome_equal a b =
  match (a, b) with
  | Finished, Finished -> true
  | Failed { offset = o1; pending = p1 }, Failed { offset = o2; pending = p2 }
    ->
      o1 = o2 && String.equal p1 p2
  | _ -> false

let outcome_to_string = function
  | Finished -> "finished"
  | Failed { offset; pending } ->
      Printf.sprintf "failed at %d (%d pending bytes)" offset
        (String.length pending)

let fail s startP =
  Failed
    { offset = startP; pending = String.sub s startP (String.length s - startP) }

let cursor e ~emit = Cursor.create e.dfa e.mode e.reject ~emit

(* One kernel call over the whole string with EOF as the final lookahead:
   the Fig. 5 / Fig. 6 loop of {!Kernel}, entered once. Failure is
   reported lazily, from the unconsumed tail (see kernel.cppo.ml). *)
let run_string ?(from = 0) e s ~emit =
  let c = cursor e ~emit:(fun _ pos len rule -> emit ~pos ~len ~rule) in
  c.tok <- from;
  Kernel.run c s from (String.length s) ~eof:true;
  if c.tok < String.length s then fail s c.tok else Finished

let tokens e s =
  let acc = ref [] in
  let emit ~pos ~len ~rule = acc := (String.sub s pos len, rule) :: !acc in
  let outcome = run_string e s ~emit in
  (List.rev !acc, outcome)

let num_rules e = 1 + Array.fold_left max (-1) e.dfa.Dfa.accept

(* Trace probe around whole-string runs. The span wraps the plain runner
   (never a probe inside it), so the disabled-tracer cost is one bool
   load per call — gated by `bench/main.exe smoke`. *)
let p_run = St_trace.Trace.probe ~cat:"engine" "engine.run"

let run_string_instrumented ?(from = 0) e s ~stats ~emit =
  let traced = !St_trace.Trace.on in
  if traced then St_trace.Trace.begin_span p_run;
  let rc = Run_stats.rule_slots stats (num_rules e) in
  let c =
    cursor e ~emit:(fun _ pos len rule ->
        Array.unsafe_set rc rule (Array.unsafe_get rc rule + 1);
        emit ~pos ~len ~rule)
  in
  c.tok <- from;
  let n = String.length s in
  let (), dt =
    St_util.Timer.time_it (fun () ->
        if Run_stats.heat_enabled stats then begin
          let sv, ss = Run_stats.heat_slots stats (Dfa.size e.dfa) in
          c.visits <- sv;
          c.skips <- ss;
          Kernel_heat.run c s from n ~eof:true
        end
        else Kernel.run c s from n ~eof:true)
  in
  let outcome = if c.tok < n then fail s c.tok else Finished in
  Run_stats.add_run_seconds stats dt;
  Run_stats.add_chunk stats (n - from);
  Run_stats.add_accel_skipped stats c.skipped;
  Run_stats.add_swar_skipped stats c.swar_skipped;
  Run_stats.set_accel_states stats (accel_states e);
  Run_stats.set_accel_swar_states stats (accel_swar_states e);
  Run_stats.set_lookahead stats (delay e);
  Run_stats.observe_buffer stats (delay e);
  Run_stats.set_te_states stats (te_states e);
  (match outcome with
  | Failed _ -> Run_stats.record_failure stats
  | Finished -> ());
  if traced then St_trace.Trace.end_span p_run;
  outcome

let run_string_traced ?from e s ~emit =
  if not !St_trace.Trace.on then run_string ?from e s ~emit
  else begin
    St_trace.Trace.begin_span p_run;
    match run_string ?from e s ~emit with
    | o ->
        St_trace.Trace.end_span p_run;
        o
    | exception exn ->
        St_trace.Trace.end_span p_run;
        raise exn
  end

let heat_table ?(label = "") e stats =
  let d = e.dfa in
  let n = Dfa.size d in
  let sv = Run_stats.state_visits stats in
  let ss = Run_stats.state_skipped stats in
  let get a i = if i < Array.length a then a.(i) else 0 in
  let rows =
    List.init n (fun q ->
        let stop_bytes = ref 0 in
        if Dfa.is_accel_state d q then
          for b = 0 to 255 do
            if Dfa.accel_stop_byte d q b then incr stop_bytes
          done;
        {
          St_trace.Trace.Heat.state = q;
          visits = get sv q;
          skipped = get ss q;
          stop_bytes = !stop_bytes;
          rule = Dfa.accept_rule d q;
          accel = Dfa.is_accel_state d q;
        })
  in
  {
    St_trace.Trace.Heat.label;
    states = n;
    bytes = Run_stats.bytes_in stats;
    rows;
  }
