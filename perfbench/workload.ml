(* Seeded inputs and their independent references.

   Every input derives from --seed. References never go through the code
   under test: json and csv docs are tokenized by [Backtracking] over the
   dense, unaccelerated DFA build; BPE docs by the [St_bpe.Encoder] merge
   loop. *)

open Streamtok

type kind = Json_stream | Csv_docs | Bpe_ids

let of_name = function
  | "json-stream" -> Some Json_stream
  | "csv-docs" -> Some Csv_docs
  | "bpe-ids" -> Some Bpe_ids
  | _ -> None

let name = function
  | Json_stream -> "json-stream"
  | Csv_docs -> "csv-docs"
  | Bpe_ids -> "bpe-ids"

(* ---- fixed workload shape ---- *)

let json_doc_bytes = 2 lsl 20
let json_pool = 4
let feed_bytes = 64 lsl 10 (* json-stream FEED size *)
let csv_pool = 512
let csv_min_bytes = 256
let csv_max_bytes = 16 lsl 10
let bpe_min_bytes = 256
let bpe_max_bytes = 1024

(* bpe-ids reports peak RSS and doc latency over its first
   [bpe_fixed_bytes] of input (to the end of the doc that reaches it), a
   fixed amount of work. In a fixed window the daemon materializes as many
   powerstates as its speed lets it, so a faster daemon would show more RSS,
   and a run that got one doc further ~10% more. 32 KB is ~55 docs: with
   the ~32 docs of 20 KB the median latency spread 0.14-0.38 over 5 seeds,
   and 0.08-0.14 with 32 KB. The run goes on past the window until that
   input is done, up to [bpe_max_seconds]. *)
let bpe_fixed_bytes = 32 lsl 10
let bpe_max_seconds = 60.

(* A bpe-ids run also ends after this many input bytes, so the post-run
   merge-loop check stays bounded once the daemon is fast. *)
let bpe_byte_cap = 8 lsl 20

type doc = { text : string; ref_ : Common.ref_doc }

let seed_of seed i = Int64.(add (mul (of_int seed) 1_000_003L) (of_int i))

let dense_ref rules =
  let d = Dfa.of_rules ~classes:false ~accel:false rules in
  fun text ->
    Common.ref_of_tokens (fun f ->
        match
          Backtracking.run d text ~emit:(fun ~pos:_ ~len ~rule -> f ~rule ~len)
        with
        | Backtracking.Finished, _ -> ()
        | Backtracking.Failed { offset; _ }, _ ->
            failwith (Printf.sprintf "reference: input fails at %d" offset))

let grammar_rules spec =
  match Registry.find spec with
  | Some g -> Grammar.rules g
  | None -> failwith ("unknown grammar " ^ spec)

let json_docs seed =
  let reference = dense_ref (grammar_rules "json") in
  Array.init json_pool (fun i ->
      let text =
        Gen_data.json ~seed:(seed_of seed i) ~target_bytes:json_doc_bytes ()
      in
      { text; ref_ = reference text })

(* Independent csv docs with log-uniform sizes in [csv_min_bytes,
   csv_max_bytes], in a seeded order. The sizes sit at the distribution's
   quantiles rather than being drawn, so every seed has the same byte mix
   (random draws moved the pool's mean size by ~5% between seeds); the
   seed sets the content and the order. *)
let csv_docs seed =
  let reference = dense_ref (grammar_rules "csv") in
  let lo = log (float_of_int csv_min_bytes)
  and hi = log (float_of_int csv_max_bytes) in
  let docs =
    Array.init csv_pool (fun i ->
        let q = (float_of_int i +. 0.5) /. float_of_int csv_pool in
        let size = int_of_float (exp (lo +. ((hi -. lo) *. q))) in
        let text = Gen_data.csv ~seed:(seed_of seed (1000 + i)) ~target_bytes:size () in
        { text; ref_ = reference text })
  in
  Prng.shuffle (Prng.create (seed_of seed 77)) docs;
  docs

(* Fresh, never-repeated BPE text docs, generated on demand. The text
   comes from the run's seed; the size sequence is the same in every run,
   because with a few dozen docs per run, seeded sizes alone would move
   the latency figures more than any change to the daemon. Docs are
   256 B-1 KB: with 1-4 KB docs a run held ~13 of them, too few for a
   steady median latency. *)
type bpe_source = { text : Prng.t; sizes : Prng.t }

let bpe_source seed = { text = Prng.create (seed_of seed 99); sizes = Prng.create 4242L }

let bpe_next src =
  let size = Prng.in_range src.sizes bpe_min_bytes bpe_max_bytes in
  Bpe.Trainer.gen_corpus src.text size

let bpe_vocab () = Bpe.Trainer.mini ()

let bpe_ref vocab text =
  let ids = Bpe.Encoder.encode vocab text in
  List.fold_left
    (fun (r : Common.ref_doc) id ->
      { Common.ntok = r.ntok + 1; hash = Common.mix r.hash id })
    { Common.ntok = 0; hash = Common.hash_basis }
    ids
