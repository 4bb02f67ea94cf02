(** The code corrector: inserts fixes into vulnerable source (the
    right-hand module of Fig. 1).

    Correction happens on the AST: the tainted argument expressions at
    the sink are wrapped in a call to the fix function, whose definition
    is prepended once per file.  Fixes are applied at the line of the
    sensitive sink, as in the original WAP. *)

open Wap_php

type correction = {
  candidate : Wap_taint.Trace.candidate;
  fix : Fix.t;
}

type report = {
  file : string;
  applied : (Fix.t * Loc.t) list;  (** fix and sink line it protects *)
}

let wrap_call fix_name (e : Ast.expr) : Ast.expr =
  Ast.mk_e ~loc:e.Ast.eloc
    (Ast.Call
       (Ast.F_ident fix_name, [ { Ast.a_expr = e; a_spread = false } ]))

let already_wrapped fix_name (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Call (Ast.F_ident f, _) -> String.equal f fix_name
  | _ -> false

(* An expression is "the same sink argument" if it is physically the one
   the analyzer recorded, or (after a reparse) an equal expression at the
   same location. *)
let is_target (targets : Ast.expr list) (e : Ast.expr) =
  List.exists
    (fun t ->
      t == e
      || (Loc.equal t.Ast.eloc e.Ast.eloc && Ast.equal_expr t e))
    targets

(* A backtick sink cannot be fixed by wrapping: [`cmd {$x}`] executes
   like [shell_exec("cmd {$x}")], so sanitizing the *result* leaves the
   injection intact — and PHP's interpolation syntax cannot carry the
   sanitizer call inside the string.  Rewrite to an explicit
   [shell_exec] over a concatenation, sanitizing every interpolated
   expression. *)
let backtick_rewrite fix_name (parts : Ast.interp_part list) loc : Ast.expr =
  let piece = function
    | Ast.Ip_str s -> Ast.mk_e ~loc (Ast.String s)
    | Ast.Ip_expr pe ->
        if already_wrapped fix_name pe then pe else wrap_call fix_name pe
  in
  let arg =
    match List.map piece parts with
    | [] -> Ast.mk_e ~loc (Ast.String "")
    | first :: rest ->
        List.fold_left
          (fun acc p -> Ast.mk_e ~loc (Ast.Binop (Ast.Concat, acc, p)))
          first rest
  in
  Ast.mk_e ~loc
    (Ast.Call
       (Ast.F_ident "shell_exec", [ { Ast.a_expr = arg; a_spread = false } ]))

(* The expressions a correction wraps: the sink's own tainted arguments,
   or — for a flow into a sink inside a called function — the tainted
   arguments of that call site. *)
let tainted_args (candidate : Wap_taint.Trace.candidate) =
  List.filteri
    (fun i _ -> List.mem i candidate.Wap_taint.Trace.tainted_positions)
    candidate.Wap_taint.Trace.sink_args

(** Wrap the tainted sink arguments of one candidate with [fix]. *)
let apply_one (prog : Ast.program) ({ candidate; fix } : correction) :
    Ast.program =
  let tainted_args = tainted_args candidate in
  let f (e : Ast.expr) =
    if not (is_target tainted_args e) then e
    else
      match e.Ast.e with
      | Ast.Backtick parts
        when String.equal candidate.Wap_taint.Trace.sink_name "shell_exec"
             && Loc.equal candidate.Wap_taint.Trace.sink_loc e.Ast.eloc ->
          backtick_rewrite fix.Fix.fix_name parts e.Ast.eloc
      | _ ->
          if already_wrapped fix.Fix.fix_name e then e
          else wrap_call fix.Fix.fix_name e
  in
  Visitor.map_stmts f prog

(** Apply every correction, outermost targets first and backtick
    rewrites last.  An ordinary wrap preserves the wrapped subtree, so a
    later correction still finds its target by location + structural
    equality even inside an earlier wrap — e.g. [echo `cmd $x` . $y] is
    both an XSS sink (the whole concatenation) and an
    OS-command-injection sink (the backtick).  The converse does not
    hold: once an inner target is wrapped, an expression containing it
    no longer equals its recorded form, so larger targets go first (as
    in [exec(f($_GET['c']))], an OS-command sink over the call and,
    through [f]'s body, an XSS sink over its argument).  The backtick
    rewrite is the one destructive rewrite, so it must not run before a
    correction matching an expression that *contains* the backtick. *)
let apply_all (prog : Ast.program) (corrections : correction list) :
    Ast.program =
  let is_backtick_sink { candidate; _ } =
    String.equal candidate.Wap_taint.Trace.sink_name "shell_exec"
  in
  let target_size { candidate; _ } =
    List.fold_left
      (fun acc e -> max acc (Visitor.fold_expr (fun n _ -> n + 1) 0 e))
      0 (tainted_args candidate)
  in
  let outermost_first =
    List.stable_sort (fun a b -> compare (target_size b) (target_size a))
  in
  let ordered =
    outermost_first (List.filter (fun c -> not (is_backtick_sink c)) corrections)
    @ List.filter is_backtick_sink corrections
  in
  List.fold_left apply_one prog ordered

(* A fix function definition, parsed from its PHP source so it prints
   uniformly with the rest of the file. *)
let fix_def_stmts (fix : Fix.t) : Ast.stmt list =
  Parser.parse_string ~file:"<fix>" ("<?php\n" ^ Fix.runtime_code fix)

let fix_already_defined (prog : Ast.program) name =
  List.exists
    (fun (f : Ast.func) -> String.lowercase_ascii f.Ast.f_name = String.lowercase_ascii name)
    (Visitor.collect_functions prog)

(** Apply a batch of corrections to a parsed file: wraps every tainted
    sink argument and prepends each needed fix definition once. *)
let correct_program (prog : Ast.program) (corrections : correction list) :
    Ast.program * report =
  let file =
    match corrections with
    | c :: _ -> c.candidate.Wap_taint.Trace.file
    | [] -> "<none>"
  in
  (* two detectors can flag the same flow; applying both corrections
     would double-wrap the argument.  Flows from different call sites
     into one sink inside a function wrap different arguments, so the
     wrapped arguments' locations are part of the key. *)
  let corrections =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun { candidate; fix } ->
        let key =
          ( candidate.Wap_taint.Trace.sink_loc.Loc.line,
            candidate.Wap_taint.Trace.sink_loc.Loc.col,
            fix.Fix.fix_name,
            List.map (fun (e : Ast.expr) -> e.Ast.eloc) (tainted_args candidate) )
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      corrections
  in
  let prog = apply_all prog corrections in
  let needed_fixes =
    List.sort_uniq
      (fun (a : Fix.t) b -> String.compare a.fix_name b.fix_name)
      (List.map (fun c -> c.fix) corrections)
  in
  let defs =
    List.concat_map
      (fun fix ->
        if fix_already_defined prog fix.Fix.fix_name then [] else fix_def_stmts fix)
      needed_fixes
  in
  let applied =
    List.map (fun c -> (c.fix, c.candidate.Wap_taint.Trace.sink_loc)) corrections
  in
  (defs @ prog, { file; applied })

(** End-to-end correction of a parsed file: fix every candidate with its
    class's stock fix and print the corrected PHP. *)
let correct (prog : Ast.program) (candidates : Wap_taint.Trace.candidate list) :
    string * report =
  Wap_obs.Trace.with_span ~cat:"fixer" "correct"
    ~args:[ ("candidates", string_of_int (List.length candidates)) ]
  @@ fun () ->
  let corrections =
    List.map
      (fun c -> { candidate = c; fix = Fix.stock c.Wap_taint.Trace.vclass })
      candidates
  in
  let prog, report = correct_program prog corrections in
  (Printer.program_to_string prog, report)
