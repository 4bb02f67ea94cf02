(** The taint analyzer: one fused flow-sensitive pass computing
    candidate vulnerabilities for {e all} active detector specs at
    once.

    Taint is tracked as a per-spec vector ({!Env.taint}): entry points
    mark the components of the specs they feed, each spec's sanitizers
    kill only that spec's component, and a sink emits one candidate per
    spec whose component survives.  Components never interact across
    specs, so the fused run is — component by component — exactly the N
    independent single-spec runs, with the spec-independent work
    (traversal, environment bookkeeping, include splicing) done once. *)

open Wap_php

(** One parsed source file of an application. *)
type file_unit = { path : string; program : Ast.program }

(** {2 Per-file steps}

    The analysis of a (spec set, project) pair decomposes into per-file
    sweeps over a {!project_state} that owns every piece of mutable
    state — no globals, so any number of states can be driven
    concurrently (the parallel scan engine runs one per project).  Each
    step adds its walks' loop counts to the [taint.loop_iterations]
    (loop-body runs of the fixpoints) and [taint.loop_specs_retired]
    (specs that settled while others kept iterating) counters, once
    per file. *)

type project_state

val project_state :
  ?interprocedural:bool -> specs:Wap_catalog.Catalog.spec list -> unit ->
  project_state

(** Pass-1 step: compute and register the summaries of one file's
    functions (each visible to the functions and files after it).
    Sequential, in file order.

    The state also keeps, per file (by path, for that exact program),
    each function's walk: its summary, the result of every summary
    lookup its body made (the fused summary found, or none), and every
    real-source candidate it emitted, in order.
    {!analyze_file_functions} consumes and drops it. *)
val summarize_file : project_state -> file_unit -> unit

(** {!summarize_file}, returning the summaries it registered (this
    file's pass-1 delta, function order).  With {!register_summaries},
    it builds the fuzz oracle's re-walk reference
    ([Wap_fuzz.Oracle.rewalk_reference]): deltas computed on a scratch
    state, registered on a fresh one. *)
val summarize_file_delta : project_state -> file_unit -> Summary.fused list

(** Register pass-1 summaries computed on another state exactly as
    {!summarize_file} would have.  A registered delta carries no pass-1
    walks, so pass 2 walks that file's bodies again — which is what the
    re-walk reference needs. *)
val register_summaries : project_state -> Summary.fused list -> unit

(** Pass-2 step: every candidate one file's function bodies emit
    (paired with the finding spec's id, in order, repeats included),
    refining their summaries now that callees are known.  Sequential,
    in file order, on the shared state: each body's summary is
    registered before the next body runs.

    A body's walk depends only on the body, the spec set, the file and
    what its summary lookups return.  So when pass 1 walked this file
    and every lookup a body made there still returns the physically same
    summary (or still none), the body is not walked again: pass 1's walk
    is kept, its summary registered and its emissions returned, which is
    exactly what walking it again would produce.  Any other body — a
    callee declared later, re-declared or re-analyzed since, a file with
    no pass-1 walk — is walked.  The counters [taint.functions_reused]
    and [taint.functions_reanalyzed] count the two cases. *)
val analyze_file_functions :
  project_state -> file_unit -> (int * Trace.candidate) list

(** Pass-3 step: top-level flows of one file, with literal includes of
    project files ([units]) spliced in place.  Pure with respect to the
    state (fresh context, read-only summaries), so different files may
    run concurrently.  Returns every emission, in order, repeats
    included; run {!finalize} over the concatenation. *)
val analyze_file_toplevel :
  project_state -> units:file_unit list -> file_unit ->
  (int * Trace.candidate) list

(** The base names a program's top-level literal includes resolve
    against — exactly the matching the include splice of
    {!analyze_file_toplevel} performs.  An
    incremental caller uses this to find the files that re-splice an
    edited one. *)
val include_basenames : Ast.program -> string list

(** The analysis's one de-duplication (first emission wins: a candidate
    repeating an earlier one's file, sink, position, spec and origins is
    dropped, whichever walk, file or pass emitted it) followed by the
    dead-sink filter.  Feed it pass-2 results (in file order) followed
    by pass-3 results (in file order). *)
val finalize :
  units:file_unit list ->
  (int * Trace.candidate) list ->
  (int * Trace.candidate) list

(** {!finalize} with a caller-supplied dead-sink predicate in place of
    the one built from [units] — byte-identical to [finalize] when
    [is_dead] is {!Wap_flow.Reach.is_dead} over the union of the
    units' dead sets (the session engine keeps that union per file). *)
val finalize_with :
  is_dead:(Loc.t -> bool) ->
  (int * Trace.candidate) list ->
  (int * Trace.candidate) list

(** Whole-project fused analysis: passes 1–3 over all files, finalized.
    Each candidate is paired with the id (list position in [specs]) of
    the spec that found it; candidates are in discovery order.

    [interprocedural:false] disables the summary mechanism (function
    bodies are still scanned for local flows, but taint no longer
    crosses call boundaries) — the ablation of DESIGN.md §6. *)
val analyze_project_indexed :
  ?interprocedural:bool ->
  specs:Wap_catalog.Catalog.spec list ->
  file_unit list ->
  (int * Trace.candidate) list

(** Analyze a set of files as one application under a single detector
    spec (the fused analysis of a one-spec set). *)
val analyze_project :
  ?interprocedural:bool ->
  spec:Wap_catalog.Catalog.spec ->
  file_unit list ->
  Trace.candidate list

(** Analyze a single parsed file. *)
val analyze_program :
  spec:Wap_catalog.Catalog.spec ->
  file:string ->
  Ast.program ->
  Trace.candidate list

(** Run several detector specs over the same project — one fused pass —
    and return the findings grouped by spec, in spec order (the shape a
    sequential run per sub-module configuration, as in Fig. 2, would
    produce). *)
val analyze_with_specs :
  ?interprocedural:bool ->
  specs:Wap_catalog.Catalog.spec list ->
  file_unit list ->
  Trace.candidate list
