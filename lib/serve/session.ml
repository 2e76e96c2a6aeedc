open St_streamtok
open St_grammars

type deps = {
  cache : Engine_cache.t;
  resolve : string -> (Grammar.t, string) result;
}

type opened_state = {
  engine : Engine.t;
  grammar_name : string;
  rule_names : string list;
  ids : bool;  (* token-id serving mode: IDS frames, no lexeme bytes *)
  enc : Outbuf.t;  (* encoded TOKENS/IDS records; shared with the emit closure *)
  ntoks : int ref;
  mutable tok : Stream_tokenizer.t;
  mutable outcome : Engine.outcome option;
      (* set as soon as the current stream fails; FLUSH reports and clears *)
}

type state = Awaiting_open | Opened_ of opened_state

type t = { deps : deps; mutable state : state }

let create deps = { deps; state = Awaiting_open }
let opened t = match t.state with Opened_ _ -> true | Awaiting_open -> false

(* Tokens are encoded straight into the wire format as they are emitted —
   u32 rule, u32 len, lexeme bytes (or just u32 rule in id mode) — into a
   scratch Outbuf reused across frames. The tokenizer emits views into the
   fed chunk, so no lexeme is ever allocated: TOKENS blit the view, IDS
   ignore it. Flushing a batch is then a single header poke + one blit. *)
let new_tokenizer ~ids engine enc ntoks =
  if ids then
    Stream_tokenizer.create_views engine ~emit:(fun _ _ _ rule ->
        Outbuf.add_u32 enc rule;
        incr ntoks)
  else
    Stream_tokenizer.create_views engine ~emit:(fun s pos len rule ->
        Outbuf.add_u32 enc rule;
        Outbuf.add_u32 enc len;
        Outbuf.add_substring enc s pos len;
        incr ntoks)

let batch t =
  match t.state with
  | Awaiting_open -> None
  | Opened_ os -> if !(os.ntoks) = 0 then None else Some (os.enc, !(os.ntoks))

let batch_tag t =
  match t.state with
  | Opened_ os when os.ids -> Wire.tag_ids
  | _ -> Wire.tag_tokens

let batch_clear t =
  match t.state with
  | Awaiting_open -> ()
  | Opened_ os ->
      Outbuf.clear os.enc;
      os.ntoks := 0

let protocol_error message =
  [ Wire.Error { code = Wire.Protocol; retryable = false; message } ]

let handle_open t spec =
  match t.state with
  | Opened_ _ -> protocol_error "session already OPENed"
  | Awaiting_open -> (
      match t.deps.resolve spec with
      | Error msg ->
          [ Wire.Error { code = Wire.Bad_grammar; retryable = false; message = msg } ]
      | Ok g -> (
          let rules = Grammar.rules g in
          let cached = Engine_cache.mem t.deps.cache rules in
          match Engine_cache.find_or_compile t.deps.cache rules with
          | Error Engine.Unbounded_tnd ->
              [
                Wire.Error
                  {
                    code = Wire.Bad_grammar;
                    retryable = false;
                    message =
                      Printf.sprintf
                        "grammar %s has unbounded max-TND; no bounded-memory \
                         streaming tokenizer exists"
                        g.Grammar.name;
                  };
              ]
          | Ok engine ->
              let enc = Outbuf.create () in
              let ntoks = ref 0 in
              let os =
                {
                  engine;
                  grammar_name = g.Grammar.name;
                  rule_names = List.map fst g.Grammar.rules;
                  ids = false;
                  enc;
                  ntoks;
                  tok = new_tokenizer ~ids:false engine enc ntoks;
                  outcome = None;
                }
              in
              t.state <- Opened_ os;
              [
                Wire.Opened
                  {
                    grammar = os.grammar_name;
                    k = Engine.k engine;
                    cached;
                    rules = os.rule_names;
                  };
              ]))

(* OPEN_BPE: vocab text -> audited vocabulary -> literal rules through the
   same engine cache as OPEN (the rules' canonical print is the key, so N
   sessions of one vocabulary share one engine). The subset-construction
   cap turns a hostile vocab into a Bad_grammar error, not an OOM. *)
let handle_open_bpe t ~ids vocab_text =
  match t.state with
  | Opened_ _ -> protocol_error "session already OPENed"
  | Awaiting_open -> (
      let bad message =
        [ Wire.Error { code = Wire.Bad_grammar; retryable = false; message } ]
      in
      match St_bpe.Vocab.of_string vocab_text with
      | Error msg -> bad msg
      | Ok vocab -> (
          match St_bpe.Compiler.audit vocab with
          | Error w ->
              bad
                ("vocabulary is not munch-consistent — "
               ^ St_bpe.Compiler.witness_to_string w)
          | Ok () -> (
              let rules = St_bpe.Compiler.rules_of_vocab vocab in
              let cached = Engine_cache.mem t.deps.cache rules in
              match
                Engine_cache.find_or_compile t.deps.cache
                  ~max_states:St_bpe.Compiler.default_max_states rules
              with
              | exception Failure msg -> bad msg
              | Error Engine.Unbounded_tnd ->
                  (* unreachable: a finite token language has finite TND *)
                  bad "vocabulary has unbounded max-TND"
              | Ok engine ->
                  let enc = Outbuf.create () in
                  let ntoks = ref 0 in
                  let os =
                    {
                      engine;
                      grammar_name = "bpe";
                      rule_names =
                        List.init (St_bpe.Vocab.size vocab)
                          (Printf.sprintf "t%d");
                      ids;
                      enc;
                      ntoks;
                      tok = new_tokenizer ~ids engine enc ntoks;
                      outcome = None;
                    }
                  in
                  t.state <- Opened_ os;
                  [
                    Wire.Opened
                      {
                        grammar = os.grammar_name;
                        k = Engine.k engine;
                        cached;
                        rules = os.rule_names;
                      };
                  ])))

let p_feed = St_trace.Trace.probe ~cat:"session" "session.feed"

(* Shared post-feed failure check: drain now so the failure offset is
   exact; the outcome is replayed by the next FLUSH. *)
let check_failed os =
  if Stream_tokenizer.failed os.tok then begin
    let outcome = Stream_tokenizer.finish os.tok in
    os.outcome <- Some outcome;
    let message =
      match outcome with
      | Engine.Failed { offset; pending } ->
          Printf.sprintf
            "untokenizable input at offset %d (%d pending bytes); \
             FLUSH for the outcome"
            offset (String.length pending)
      | Engine.Finished -> "stream failed"
    in
    [ Wire.Error { code = Wire.Lexical; retryable = false; message } ]
  end
  else []

let feed_untraced t s ~pos ~len =
  match t.state with
  | Awaiting_open -> protocol_error "FEED before OPEN"
  | Opened_ os -> (
      match os.outcome with
      | Some _ -> []  (* stream already failed; drop by contract *)
      | None ->
          Stream_tokenizer.feed os.tok s pos len;
          check_failed os)

let feed t s ~pos ~len =
  if not !St_trace.Trace.on then feed_untraced t s ~pos ~len
  else St_trace.Trace.with_span p_feed (fun () -> feed_untraced t s ~pos ~len)

let feed_views_untraced t segs n =
  match t.state with
  | Awaiting_open -> protocol_error "FEED before OPEN"
  | Opened_ os -> (
      match os.outcome with
      | Some _ -> []  (* stream already failed; drop by contract *)
      | None ->
          Stream_tokenizer.feed_batch os.tok segs n;
          check_failed os)

let feed_views t segs n =
  if not !St_trace.Trace.on then feed_views_untraced t segs n
  else St_trace.Trace.with_span p_feed (fun () -> feed_views_untraced t segs n)

let handle_flush t =
  match t.state with
  | Awaiting_open -> protocol_error "FLUSH before OPEN"
  | Opened_ os ->
      let outcome =
        match os.outcome with
        | Some o -> o
        | None -> Stream_tokenizer.finish os.tok
      in
      let pending_reply =
        match outcome with
        | Engine.Finished ->
            Wire.Pending
              { ok = true; offset = Stream_tokenizer.bytes_fed os.tok; pending = "" }
        | Engine.Failed { offset; pending } ->
            Wire.Pending { ok = false; offset; pending }
      in
      (* Reset for the next stream on the same engine. *)
      os.tok <- new_tokenizer ~ids:os.ids os.engine os.enc os.ntoks;
      os.outcome <- None;
      [ pending_reply ]

let p_open = St_trace.Trace.probe ~cat:"session" "session.open"
let p_flush = St_trace.Trace.probe ~cat:"session" "session.flush"

let handle t req =
  if not !St_trace.Trace.on then
    match req with
    | Wire.Open spec -> handle_open t spec
    | Wire.Open_bpe { ids; vocab } -> handle_open_bpe t ~ids vocab
    | Wire.Feed bytes -> feed_untraced t bytes ~pos:0 ~len:(String.length bytes)
    | Wire.Flush -> handle_flush t
    | Wire.Close | Wire.Stats _ -> []  (* handled by Server *)
  else
    match req with
    | Wire.Open spec -> St_trace.Trace.with_span p_open (fun () -> handle_open t spec)
    | Wire.Open_bpe { ids; vocab } ->
        St_trace.Trace.with_span p_open (fun () -> handle_open_bpe t ~ids vocab)
    | Wire.Feed bytes -> feed t bytes ~pos:0 ~len:(String.length bytes)
    | Wire.Flush -> St_trace.Trace.with_span p_flush (fun () -> handle_flush t)
    | Wire.Close | Wire.Stats _ -> []
