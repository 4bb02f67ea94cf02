(* The differential oracles.

   Each oracle is a predicate over one fuzz case that must hold for
   *every* input: not "the scan finds the planted bug" but "the pipeline
   never lies, crashes, or contradicts itself".  Violations are real
   bugs by construction, which is what makes the harness useful as a
   regression net — every shrunk failing input checked into
   [test/fuzz_seeds/] pins one. *)

open Wap_php

type case = {
  source : string;
  gen_ast : Ast.program option;
      (** the generated AST, when the source was printed from one;
          [None] for spiced/replayed raw sources *)
}

let case_of_source source = { source; gen_ast = None }

type verdict = Pass | Fail of string

type ctx = { tool : Wap_core.Tool.t Lazy.t }

type t = { name : string; describe : string; check : ctx -> case -> verdict }

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt

let file = "fuzz.php"

(* ------------------------------------------------------------------ *)
(* 1. Lexer totality: no exception but [Lexer.Error], token positions
   inside the source. *)

let check_spans src toks =
  let lines = String.split_on_char '\n' src in
  let nlines = List.length lines in
  let line_len i = try String.length (List.nth lines (i - 1)) with _ -> 0 in
  let bad =
    List.find_opt
      (fun ((_ : Token.t), (loc : Loc.t)) ->
        loc.line < 1 || loc.line > nlines + 1 || loc.col < 0
        || loc.col > line_len loc.line + 1)
      toks
  in
  match bad with
  | Some (tok, loc) ->
      failf "token %s has out-of-bounds location %s (source has %d lines)"
        (Token.show tok) (Loc.to_string loc) nlines
  | None -> Pass

let lexer_totality _ctx case =
  match Lexer.tokenize ~file case.source with
  | exception Lexer.Error _ -> Pass (* rejecting bad input is fine *)
  | exception exn ->
      failf "lexer raised %s instead of Lexer.Error" (Printexc.to_string exn)
  | toks -> (
      match check_spans case.source toks with
      | Fail _ as f -> f
      | Pass -> (
          (* the tolerant parser is the scan engine's entry point: it
             must recover, not die, on anything lexable *)
          match Parser.parse_string_tolerant ~file case.source with
          | exception Lexer.Error _ -> Pass
          | exception exn ->
              failf "tolerant parser raised %s" (Printexc.to_string exn)
          | (_ : Ast.program * Parser.recovered_error list) -> Pass))

(* ------------------------------------------------------------------ *)
(* 2. Printer/parser fixpoint: reparsing printed output yields the same
   AST modulo locations (and printing is idempotent). *)

let reparse_equal printed reference =
  match Parser.parse_string ~file printed with
  | exception Lexer.Error (m, loc) ->
      failf "printed source does not lex: %s at %s" m (Loc.to_string loc)
  | exception Parser.Error (m, loc) ->
      failf "printed source does not parse: %s at %s" m (Loc.to_string loc)
  | reparsed ->
      if not (Strip.equal reference reparsed) then
        Fail "reparsing the printed program changed the AST"
      else
        let printed2 = Printer.program_to_string reparsed in
        if String.equal printed printed2 then Pass
        else Fail "printing is not idempotent over a parse round-trip"

let printer_fixpoint _ctx case =
  match case.gen_ast with
  | Some ast -> reparse_equal (Printer.program_to_string ast) ast
  | None -> (
      match Parser.parse_string ~file case.source with
      | exception (Lexer.Error _ | Parser.Error _) -> Pass (* not applicable *)
      | p1 -> reparse_equal (Printer.program_to_string p1) p1)

(* ------------------------------------------------------------------ *)
(* 3. Scan determinism: the exported JSON is byte-identical across
   worker counts and across cold/warm cache, well-formed, and stable
   under the ASCII-escaping serializer. *)

let zero_timings (r : Wap_core.Tool.package_result) =
  {
    r with
    Wap_core.Tool.analysis_seconds = 0.0;
    analysis_cpu_seconds = 0.0;
    phase_seconds = List.map (fun (k, _) -> (k, 0.0)) r.phase_seconds;
  }

let scan ?cache ~jobs tool src =
  Wap_core.Tool.Scan.run tool
    (Wap_core.Tool.Scan.request ~jobs ?cache [ (file, src) ])

let canon_export (o : Wap_core.Tool.Scan.outcome) =
  Wap_core.Export.result_to_string (zero_timings o.result)

let scan_determinism ctx case =
  let tool = Lazy.force ctx.tool in
  let e1 = canon_export (scan ~jobs:1 tool case.source) in
  let e4 = canon_export (scan ~jobs:4 tool case.source) in
  if not (String.equal e1 e4) then
    Fail "export differs between --jobs 1 and --jobs 4"
  else
    let cache = Wap_engine.Cache.create () in
    let cold = canon_export (scan ~cache ~jobs:2 tool case.source) in
    let warm = canon_export (scan ~cache ~jobs:2 tool case.source) in
    if not (String.equal cold e1) then
      Fail "export differs between cached and uncached scans"
    else if not (String.equal cold warm) then
      Fail "export differs between cold and warm cache"
    else
      (* the export must be JSON a consumer can actually parse, and the
         ASCII serializer must describe the same document *)
      match Wap_report.Json.of_string e1 with
      | Error m -> failf "exported JSON is malformed: %s" m
      | Ok j -> (
          let ascii = Wap_report.Json.to_string_ascii j in
          match Wap_report.Json.of_string ascii with
          | Error m -> failf "ASCII-escaped export does not re-parse: %s" m
          | Ok j2 ->
              if
                String.equal
                  (Wap_report.Json.to_string j)
                  (Wap_report.Json.to_string j2)
              then Pass
              else Fail "ASCII-escaping the export changed its contents")

(* ------------------------------------------------------------------ *)
(* 4. Fused/per-spec equivalence: the engine's fused multi-spec pass
   agrees, spec by spec and in the engine's merge order, with the
   reference — one single-spec run of passes 1–3 per spec over the same
   parsed units, merged by {!Wap_engine.Session.merge}.  The reference
   computes its pass-1 deltas on a scratch state and registers them on
   a fresh one, so its pass 2 holds no pass-1 walk and re-walks every
   body.  Components never interact across specs, so any cross-spec
   leak inside the fused pass shows up here, and so does a pass-2 reuse
   of a walk whose callee summaries changed. *)

let rewalk_reference ~specs units =
  let module An = Wap_taint.Analyzer in
  let scratch = An.project_state ~specs () in
  let deltas = List.map (An.summarize_file_delta scratch) units in
  let st = An.project_state ~specs () in
  List.iter (An.register_summaries st) deltas;
  let pass2 = List.concat_map (An.analyze_file_functions st) units in
  let pass3 = List.concat_map (An.analyze_file_toplevel st ~units) units in
  An.finalize ~units (pass2 @ pass3)

let scan_fused_equiv ctx case =
  let module S = Wap_engine.Session in
  let specs = (Lazy.force ctx.tool).specs in
  let s = S.open_project (S.request ~jobs:1 ~specs [ (file, case.source) ]) in
  let units = (S.export s).units in
  let reference =
    S.merge
      (List.concat
         (List.mapi
            (fun i spec ->
              List.map
                (fun (_, c) -> (i, c))
                (rewalk_reference ~specs:[ spec ] units))
            specs))
  in
  let render = List.map (fun (i, c) -> (i, Wap_taint.Trace.show_candidate c)) in
  if render (S.all_diagnostics s) = render reference then Pass
  else Fail "fused scan candidates differ from the per-spec analyzer reference"

(* ------------------------------------------------------------------ *)
(* 5. Sanitizer monotonicity: wrapping a tainted sink argument in a
   sanitizer of the candidate's class never *adds* candidates. *)

let count_by_key cands =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c : Wap_taint.Trace.candidate) ->
      let key =
        (Wap_catalog.Vuln_class.report_group c.vclass, c.sink_loc.Loc.line)
      in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    cands;
  tbl

let sanitizer_for (tool : Wap_core.Tool.t) vclass =
  List.find_map
    (fun (s : Wap_catalog.Catalog.spec) ->
      if Wap_catalog.Vuln_class.equal s.vclass vclass then
        List.find_map
          (function Wap_catalog.Catalog.San_fn f -> Some f | _ -> None)
          s.sanitizers
      else None)
    tool.specs

let wrap_targets san targets prog =
  let is_target (e : Ast.expr) =
    List.exists
      (fun (t : Ast.expr) ->
        Loc.equal t.eloc e.eloc && Ast.equal_expr (Strip.expr t) (Strip.expr e))
      targets
  in
  Visitor.map_stmts
    (fun e ->
      if is_target e then
        Ast.mk_e ~loc:e.eloc
          (Ast.Call (Ast.F_ident san, [ { Ast.a_expr = e; a_spread = false } ]))
      else e)
    prog

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 s

let sanitizer_monotonicity ctx case =
  match Parser.parse_string ~file case.source with
  | exception (Lexer.Error _ | Parser.Error _) -> Pass
  | p ->
      let tool = Lazy.force ctx.tool in
      let s1 = Printer.program_to_string p in
      let o1 = scan ~jobs:1 tool s1 in
      let cands1 = o1.result.candidates in
      let pick =
        List.find_map
          (fun (c : Wap_taint.Trace.candidate) ->
            match sanitizer_for tool c.vclass with
            | Some san when c.tainted_positions <> [] -> Some (c, san)
            | _ -> None)
          cands1
      in
      (match pick with
      | None -> Pass
      | Some (c, san) -> (
          let targets =
            List.filteri
              (fun i _ -> List.mem i c.tainted_positions)
              c.sink_args
          in
          let p1 = Parser.parse_string ~file s1 in
          let s2 = Printer.program_to_string (wrap_targets san targets p1) in
          if count_lines s2 <> count_lines s1 then Pass
            (* wrapping moved lines (multi-line argument); incomparable *)
          else
            let o2 = scan ~jobs:1 tool s2 in
            let before = count_by_key cands1 in
            let after = count_by_key o2.result.candidates in
            let grew = ref None in
            Hashtbl.iter
              (fun (group, line) n2 ->
                let n1 = Option.value ~default:0 (Hashtbl.find_opt before (group, line)) in
                if n2 > n1 && !grew = None then grew := Some (group, line, n1, n2))
              after;
            match !grew with
            | Some (group, line, n1, n2) ->
                failf
                  "wrapping a tainted argument in %s added %s candidates at line %d (%d -> %d)"
                  san group line n1 n2
            | None -> Pass))

(* ------------------------------------------------------------------ *)
(* 6. Fixer soundness: corrected source reparses, and the rescan reports
   no candidate of the fixed class at the fixed line. *)

let fixer_soundness ctx case =
  match Parser.parse_string ~file case.source with
  | exception (Lexer.Error _ | Parser.Error _) -> Pass
  | p -> (
      let tool = Lazy.force ctx.tool in
      let s1 = Printer.program_to_string p in
      let o1 = scan ~jobs:1 tool s1 in
      if o1.result.reported = [] then Pass
      else
        let fixed, report = Wap_core.Tool.correct_source tool ~file s1 in
        match Parser.parse_string ~file fixed with
        | exception Lexer.Error (m, loc) ->
            failf "corrected source does not lex: %s at %s" m (Loc.to_string loc)
        | exception Parser.Error (m, loc) ->
            failf "corrected source does not parse: %s at %s" m (Loc.to_string loc)
        | (_ : Ast.program) -> (
            let shift = count_lines fixed - count_lines s1 in
            let o2 = scan ~jobs:1 tool fixed in
            let group = Wap_catalog.Vuln_class.report_group in
            (* strict only where *every* original candidate at the sink
               line was reported (and therefore fixed): a predicted-FP
               twin flow legitimately survives the correction *)
            let count l g line =
              List.length
                (List.filter
                   (fun (c : Wap_taint.Trace.candidate) ->
                     String.equal (group c.vclass) g && c.sink_loc.Loc.line = line)
                   l)
            in
            let offending =
              List.find_opt
                (fun ((fix : Wap_fixer.Fix.t), (loc : Loc.t)) ->
                  let g = group fix.vclass in
                  count o1.result.reported g loc.Loc.line
                  >= count o1.result.candidates g loc.Loc.line
                  && count o2.result.candidates g (loc.Loc.line + shift) > 0)
                report.applied
            in
            match offending with
            | Some (fix, loc) ->
                failf "%s still reported at line %d after applying %s"
                  (group fix.vclass) (loc.Loc.line + shift) fix.fix_name
            | None -> Pass))

(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "lexer-totality";
      describe = "lexing/tolerant parsing never raises unexpectedly; token spans in bounds";
      check = lexer_totality };
    { name = "printer-fixpoint";
      describe = "parse (print ast) = ast modulo locations; printing idempotent";
      check = printer_fixpoint };
    { name = "scan-determinism";
      describe = "JSON export byte-identical across --jobs and cache states; well-formed";
      check = scan_determinism };
    { name = "scan-fused-equiv";
      describe = "fused multi-spec scan equal to one re-walking analyzer run per spec";
      check = scan_fused_equiv };
    { name = "sanitizer-monotonicity";
      describe = "sanitizing a tainted argument never adds candidates";
      check = sanitizer_monotonicity };
    { name = "fixer-soundness";
      describe = "corrected source reparses; fixed line no longer reported";
      check = fixer_soundness };
  ]

let by_name name = List.find_opt (fun o -> String.equal o.name name) all

let names = List.map (fun o -> o.name) all
