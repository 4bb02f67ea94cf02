(** The scan engine.

    A session ([open_project]) parses every file once and retains the
    ASTs, per-file pass results, summary table and catalog lookup in
    memory; [update_file]/[add_file]/[remove_file] apply targeted
    invalidation (re-parse + re-run the top-level pass for the touched
    file and its include-dependents only, falling back to a full
    re-analysis only when the edit changes a declared function, or adds
    or removes a file that declares one); [export] and [diagnostics]
    finalize and merge deterministically.  [run] is the one-shot scan:
    open a session, export it.

    The batch pipeline semantics live here: fused multi-spec analysis
    (pass 1 summaries, pass 2 function bodies, pass 3 parallel
    top-level sweep), digest-keyed caching, deterministic merge. *)

open Wap_php
module Cat = Wap_catalog.Catalog
module Trace = Wap_taint.Trace
module Obs = Wap_obs.Trace
module An = Wap_taint.Analyzer

(* Part of every cache key.  Bump it whenever a cached value's
   marshalled shape or a key's layout changes, so entries written by an
   older engine are never read back.  v4: the analyze-file keys lost
   the IR/AST mode bit, and the per-spec "analyze" entries are gone.
   v5: an origin's propagation chain is stored newest first.  v6: the
   analysis digest and the summary-chain seed lost the interprocedural
   bit.  v7: one "analyze" entry per project, keyed in project order,
   replaces the per-file analyze-file entries. *)
let cache_format_version = "wap-engine-8"

(* plain values, bumped from the parse workers: a [lazy] forced from two
   domains at once raises [CamlinternalLazy.Undefined] *)
let m_files_parsed = Wap_obs.Metrics.counter "engine.files_parsed"
let m_parse_recoveries = Wap_obs.Metrics.counter "engine.parse_error_recoveries"

type request = {
  files : (string * string) list;
  specs : Cat.spec list;
  jobs : int;
  cache : Cache.t option;
  fingerprint : string;
}

let request ?(jobs = Config.default_jobs ()) ?cache ?(fingerprint = "") ~specs
    files =
  { files; specs; jobs; cache; fingerprint }

type file_report = {
  fr_path : string;
  fr_cached : bool;
  fr_errors : Parser.recovered_error list;
}

type spec_report = {
  sr_spec : string;
  sr_candidates : int;
}

type outcome = {
  units : Wap_taint.Analyzer.file_unit list;
  candidates : Trace.candidate list;
  file_reports : file_report list;
  spec_reports : spec_report list;
  phases : (string * float) list;
  jobs_used : int;
  cache_hits : int;
  cache_misses : int;
}

let spec_label (s : Cat.spec) =
  Wap_catalog.Submodule.name s.Cat.submodule
  ^ "/"
  ^ Wap_catalog.Vuln_class.acronym s.Cat.vclass

(* The deterministic merge: a stable sort by sink file, then sink
   location, then the spec's position in the active set.  The
   location-major order is what users see; the spec index pins down
   ties (e.g. RFI and LFI both firing on one include), and stability
   keeps each spec's candidates at one sink in discovery order, so the
   later de-duplication keeps the same representative as a sequential
   spec-by-spec run. *)
let merge (cands : (int * Trace.candidate) list) =
  List.stable_sort
    (fun (si, (a : Trace.candidate)) (sj, (b : Trace.candidate)) ->
      let c = String.compare a.Trace.file b.Trace.file in
      if c <> 0 then c
      else
        let c = compare a.Trace.sink_loc.Loc.line b.Trace.sink_loc.Loc.line in
        if c <> 0 then c
        else
          let c = compare a.Trace.sink_loc.Loc.col b.Trace.sink_loc.Loc.col in
          if c <> 0 then c else compare (si : int) sj)
    cands

(* [timed name f] runs [f] under a span and returns its result plus the
   wall clock it took — the per-phase breakdown surfaced by [--stats]
   and the JSON export. *)
let timed name f =
  let t0 = Wap_obs.Clock.now_ns () in
  let v = Obs.with_span ~cat:"engine" name f in
  (v, Wap_obs.Clock.ns_to_s (Wap_obs.Clock.elapsed_ns t0))

(* ------------------------------------------------------------------ *)
(* Session state.                                                      *)

(* One file of the open project.  The expensive derived facts (summary
   fingerprint, include list, dead-sink set) are lazy: a one-shot
   [run] never mutates the session and so never pays for them. *)
type entry = {
  ent_path : string;
  mutable ent_src_digest : string;
      (* hex digest of the source text; [""] without a cache *)
  mutable ent_unit : An.file_unit;
  mutable ent_report : file_report;
  mutable ent_decl : (bool * string) Lazy.t;
      (* (has function decls, fingerprint of the exact function list
         passes 1/2 consume — names, bodies and locations) *)
  mutable ent_includes : string list Lazy.t;  (* top-level literal bases *)
  mutable ent_dead : Wap_flow.Reach.dead Lazy.t;
  mutable ent_pass2 : (int * Trace.candidate) list;
  mutable ent_pass3 : (int * Trace.candidate) list;
}

type t = {
  s_specs : Cat.spec list;
  s_jobs : int;
  s_cache : Cache.t option;
  s_fingerprint : string;
  s_hits0 : int;
  s_misses0 : int;
  mutable s_entries : entry list;  (* project order *)
  mutable s_generation : int;
  mutable s_state : An.project_state option;
      (* passes 1–2 over the current entries; [None] until first needed
         (an all-cache-hit open never builds it) and whenever an edit
         makes the shared summary table stale *)
  mutable s_phases : (string * float) list;  (* parse/digest/analyze of open *)
  mutable s_finalized : (int * Trace.candidate) list option;
      (* memoized finalize, in merge order; every mutation drops it *)
}

let generation t = t.s_generation
let specs t = t.s_specs
let paths t = List.map (fun e -> e.ent_path) t.s_entries
let mem t ~path = List.exists (fun e -> e.ent_path = path) t.s_entries

let parsed t ~path =
  List.find_map
    (fun e ->
      if e.ent_path = path then Some (e.ent_unit.An.program, e.ent_report.fr_errors)
      else None)
    t.s_entries

(* Per-file progress: one debug line per entry, logged from the calling
   domain.  Guarded, so a run below debug level does no per-file work. *)
let log_progress msg cached es =
  if Wap_obs.Log.enabled Wap_obs.Log.Debug then
    List.iter
      (fun e ->
        Wap_obs.Log.debug
          ~fields:[ ("file", e.ent_path); ("cached", string_of_bool (cached e)) ]
          msg)
      es

let log_parsed = log_progress "parsed" (fun e -> e.ent_report.fr_cached)
let log_analyzed ~cached = log_progress "analyzed" (fun _ -> cached)

let units_of t = List.map (fun e -> e.ent_unit) t.s_entries

(* ------------------------------------------------------------------ *)
(* Per-file facts.                                                     *)

let decl_of (program : Ast.program) =
  let funcs = Visitor.collect_functions program in
  ( funcs <> [],
    Digest.to_hex
      (Digest.string (String.concat "\x00" (List.map Ast.show_func funcs))) )

let dead_of (program : Ast.program) =
  lazy
    (let d = Wap_flow.Reach.create () in
     Wap_flow.Reach.add_program d program;
     d)

(* Only cache keys read a source digest, so a session without a cache
   computes none and leaves [ent_src_digest] empty.  Parsing depends
   only on the file itself, not on the active spec set, so the parse
   key deliberately omits the fingerprint. *)
let parse_file t path src =
  (* no span of its own: the nested php "parse" span already covers this
     per-file work at the same granularity *)
  let compute () = Parser.parse_string_tolerant ~file:path src in
  let digest, ((program, errs), cached) =
    match t.s_cache with
    | Some c ->
        let digest = Digest.to_hex (Digest.string src) in
        let k = Cache.key [ cache_format_version; "parse"; path; digest ] in
        (digest, Cache.memoize c ~key:k compute)
    | None -> ("", (compute (), false))
  in
  Wap_obs.Metrics.incr m_files_parsed;
  if errs <> [] then
    Wap_obs.Metrics.incr ~by:(List.length errs) m_parse_recoveries;
  (digest, program, { fr_path = path; fr_cached = cached; fr_errors = errs })

let make_entry t path src =
  let digest, program, report = parse_file t path src in
  {
    ent_path = path;
    ent_src_digest = digest;
    ent_unit = { An.path; program };
    ent_report = report;
    ent_decl = lazy (decl_of program);
    ent_includes = lazy (An.include_basenames program);
    ent_dead = dead_of program;
    ent_pass2 = [];
    ent_pass3 = [];
  }

let refresh_entry t e src =
  let digest, program, report = parse_file t e.ent_path src in
  e.ent_src_digest <- digest;
  e.ent_unit <- { An.path = e.ent_path; program };
  e.ent_report <- report;
  e.ent_decl <- lazy (decl_of program);
  e.ent_includes <- lazy (An.include_basenames program);
  e.ent_dead <- dead_of program;
  log_parsed [ e ]

(* ------------------------------------------------------------------ *)
(* Digests.                                                            *)

(* The analysis of one file depends on every other file (shared
   function summaries, include splicing) and on their order (pass 1
   registers summaries in project order, and the last declaration of a
   name wins), so the analysis is cached whole, under the ordered
   (path, source digest) list and the active specs: any edit or
   reordering invalidates it, which keeps caching sound.  Each file
   contributes its source digest, not just its path: a request may
   legally repeat a path with different contents (merged corpora do). *)
let analysis_key t =
  Cache.key
    (cache_format_version :: "analyze" :: t.s_fingerprint
    :: Cat.set_fingerprint t.s_specs
    :: List.map (fun e -> e.ent_path ^ "\x01" ^ e.ent_src_digest) t.s_entries)

(* ------------------------------------------------------------------ *)
(* The pass runner.                                                    *)

(* Re-run pass 3 over [es] (project order) and report them analyzed.
   Passes 1 and 2 run first, over every entry, when no analyzer state
   is retained ([s_state = None]: the open, an all-cache-hit open's
   first edit, or an edit that made the summary table stale).  Passes
   1 and 2 are sequential by design (summaries build up across files);
   pass 3 is pure per file and fans out.  Returns the paths of [es]. *)
let run_passes t (es : entry list) =
  if es = [] then []
  else begin
    let st =
      match t.s_state with
      | Some st -> st
      | None ->
          let st = An.project_state ~specs:t.s_specs () in
          t.s_state <- Some st;
          Obs.with_span ~cat:"engine" "fused.summaries" (fun () ->
              List.iter (fun e -> An.summarize_file st e.ent_unit) t.s_entries);
          Obs.with_span ~cat:"engine" "fused.functions" (fun () ->
              List.iter
                (fun e -> e.ent_pass2 <- An.analyze_file_functions st e.ent_unit)
                t.s_entries);
          st
    in
    let units = units_of t in
    let arr = Array.of_list es in
    let pass3 =
      Obs.with_span ~cat:"engine" "fused.toplevel" (fun () ->
          Pool.map ~jobs:t.s_jobs
            (fun e -> An.analyze_file_toplevel st ~units e.ent_unit)
            arr)
    in
    Array.iteri (fun i e -> e.ent_pass3 <- pass3.(i)) arr;
    log_analyzed ~cached:false es;
    List.map (fun e -> e.ent_path) es
  end

(* Full recompute over the current entries: the fallback of every
   mutation that can change the shared summary table. *)
let reanalyze_all t =
  t.s_state <- None;
  run_passes t t.s_entries

(* Entries whose top-level sweep can splice [base] (transitively,
   through the include graph).  Conservative over-approximation — a
   base name is matched against every entry carrying it, where the
   splice itself picks the first in project order — which only ever
   re-runs too much, never too little. *)
let dependents t ~base ~excluding =
  let by_base = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.add by_base (Filename.basename e.ent_path)
        (Lazy.force e.ent_includes))
    t.s_entries;
  let reaches e =
    let seen = Hashtbl.create 8 in
    let rec go bs =
      List.exists
        (fun b ->
          b = base
          || (not (Hashtbl.mem seen b))
             && begin
                  Hashtbl.add seen b ();
                  List.exists go (Hashtbl.find_all by_base b)
                end)
        bs
    in
    go (Lazy.force e.ent_includes)
  in
  List.filter (fun e -> e != excluding && reaches e) t.s_entries

(* ------------------------------------------------------------------ *)
(* The analyze stage of an open.                                       *)

(* One cache entry holds every file's (pass 2, pass 3) lists, in entry
   order, under [key] ([None] exactly when the session has no cache).
   A hit retains no analyzer state; the first edit that needs it
   replays passes 1–2.  An empty project makes no cache traffic. *)
let analyze_stage t ~key =
  match (t.s_cache, key) with
  | Some c, Some key when t.s_entries <> [] ->
      let results, cached =
        Cache.memoize c ~key (fun () ->
            ignore (run_passes t t.s_entries);
            List.map (fun e -> (e.ent_pass2, e.ent_pass3)) t.s_entries)
      in
      if cached then begin
        List.iter2
          (fun e (p2, p3) ->
            e.ent_pass2 <- p2;
            e.ent_pass3 <- p3)
          t.s_entries results;
        log_analyzed ~cached:true t.s_entries
      end
  | _ -> ignore (run_passes t t.s_entries)

(* ------------------------------------------------------------------ *)
(* Open.                                                               *)

let open_project (req : request) : t =
  Obs.with_span ~cat:"engine" "scan"
    ~args:[ ("files", string_of_int (List.length req.files));
            ("specs", string_of_int (List.length req.specs));
            ("jobs", string_of_int req.jobs) ]
  @@ fun () ->
  let jobs = max 1 req.jobs in
  let t =
    {
      s_specs = req.specs;
      s_jobs = jobs;
      s_cache = req.cache;
      s_fingerprint = req.fingerprint;
      s_hits0 = (match req.cache with Some c -> Cache.hits c | None -> 0);
      s_misses0 = (match req.cache with Some c -> Cache.misses c | None -> 0);
      s_entries = [];
      s_generation = 0;
      s_state = None;
      s_phases = [];
      s_finalized = None;
    }
  in
  (* ---- stage 1: tolerant parse, one work item per file ------------- *)
  let entries, t_parse =
    timed "phase.parse" (fun () ->
        let entries =
          Pool.map ~jobs
            (fun (path, src) -> make_entry t path src)
            (Array.of_list req.files)
        in
        let entries = Array.to_list entries in
        log_parsed entries;
        entries)
  in
  t.s_entries <- entries;
  let key, t_digest =
    match t.s_cache with
    | Some _ -> timed "phase.digest" (fun () -> Some (analysis_key t))
    | None -> (None, 0.)
  in
  (* ---- stage 2: fused multi-spec analysis ---------------------------- *)
  let (), t_analyze = timed "phase.analyze" (fun () -> analyze_stage t ~key) in
  t.s_phases <-
    [ ("parse", t_parse); ("digest", t_digest); ("analyze", t_analyze) ];
  t

(* ------------------------------------------------------------------ *)
(* Finalize / merge / export.                                          *)

(* De-duplication + dead-sink filter over the retained per-file pass
   results — [Analyzer.finalize] with the dead sets kept per file, so
   an edit rebuilds one file's set, not the whole project's — in merge
   order.  The pass lists are in discovery order, so [merge]'s stable
   sort needs no discovery index.  Memoized until the next mutation:
   repeated [diagnostics] calls between edits are free. *)
let all_diagnostics t =
  match t.s_finalized with
  | Some f -> f
  | None ->
      let pass2 = List.concat_map (fun e -> e.ent_pass2) t.s_entries in
      let pass3 = List.concat_map (fun e -> e.ent_pass3) t.s_entries in
      let by_path = Hashtbl.create 16 in
      List.iter
        (fun e -> Hashtbl.add by_path e.ent_path e.ent_dead)
        t.s_entries;
      let is_dead (loc : Loc.t) =
        List.exists
          (fun d -> Wap_flow.Reach.is_dead (Lazy.force d) loc)
          (Hashtbl.find_all by_path loc.Loc.file)
      in
      let f = merge (An.finalize_with ~is_dead (pass2 @ pass3)) in
      t.s_finalized <- Some f;
      f

let diagnostics t ~path =
  List.filter (fun (_, c) -> c.Trace.file = path) (all_diagnostics t)

let export t : outcome =
  let (reports, candidates), t_merge =
    timed "phase.merge" (fun () ->
        let f = all_diagnostics t in
        let counts = Array.make (List.length t.s_specs) 0 in
        List.iter (fun (si, _) -> counts.(si) <- counts.(si) + 1) f;
        let reports =
          List.mapi
            (fun si spec ->
              { sr_spec = spec_label spec; sr_candidates = counts.(si) })
            t.s_specs
        in
        (reports, List.map snd f))
  in
  {
    units = units_of t;
    candidates;
    file_reports = List.map (fun e -> e.ent_report) t.s_entries;
    spec_reports = reports;
    phases = t.s_phases @ [ ("merge", t_merge) ];
    jobs_used = t.s_jobs;
    cache_hits =
      (match t.s_cache with Some c -> Cache.hits c - t.s_hits0 | None -> 0);
    cache_misses =
      (match t.s_cache with
      | Some c -> Cache.misses c - t.s_misses0
      | None -> 0);
  }

let run (req : request) : outcome = export (open_project req)

(* ------------------------------------------------------------------ *)
(* Mutations.                                                          *)

let find_unique t ~op ~path =
  match List.filter (fun e -> e.ent_path = path) t.s_entries with
  | [ e ] -> Some e
  | [] -> None
  | _ :: _ ->
      invalid_arg
        (Printf.sprintf "Session.%s: duplicate path %S in project" op path)

(* Every mutation bumps the generation and drops the finalize memo. *)
let mutate t name f =
  Obs.with_span ~cat:"engine" name @@ fun () ->
  t.s_generation <- t.s_generation + 1;
  t.s_finalized <- None;
  f ()

let update_file t ~path src =
  let e =
    match find_unique t ~op:"update_file" ~path with
    | Some e -> e
    | None ->
        invalid_arg
          (Printf.sprintf "Session.update_file: no file %S in project" path)
  in
  mutate t "session.update_file" @@ fun () ->
  let _, old_fp = Lazy.force e.ent_decl in
  refresh_entry t e src;
  let _, new_fp = Lazy.force e.ent_decl in
  if not (String.equal old_fp new_fp) then reanalyze_all t
  else
    run_passes t (e :: dependents t ~base:(Filename.basename path) ~excluding:e)

let add_file t ~path src =
  if mem t ~path then
    invalid_arg
      (Printf.sprintf "Session.add_file: file %S already in project" path);
  mutate t "session.add_file" @@ fun () ->
  let e = make_entry t path src in
  log_parsed [ e ];
  t.s_entries <- t.s_entries @ [ e ];
  let has_funcs, _ = Lazy.force e.ent_decl in
  if has_funcs then reanalyze_all t
  else
    run_passes t (e :: dependents t ~base:(Filename.basename path) ~excluding:e)

let remove_file t ~path =
  match find_unique t ~op:"remove_file" ~path with
  | None -> []
  | Some e ->
      mutate t "session.remove_file" @@ fun () ->
      let deps = dependents t ~base:(Filename.basename path) ~excluding:e in
      t.s_entries <- List.filter (fun x -> x != e) t.s_entries;
      let had_funcs, _ = Lazy.force e.ent_decl in
      if had_funcs then reanalyze_all t else run_passes t deps
