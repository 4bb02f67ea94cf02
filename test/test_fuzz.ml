(** The fuzzing harness itself: PRNG and generator determinism, the
    shrinker's contract, replay of the checked-in regression seeds, and
    a small bounded fuzz run with every oracle armed. *)

open Wap_php
module Rng = Wap_fuzz.Rng
module Gen = Wap_fuzz.Gen
module Shrink = Wap_fuzz.Shrink
module Oracle = Wap_fuzz.Oracle
module Driver = Wap_fuzz.Driver

let tool = lazy (Wap_core.Tool.create ~seed:2016 Wap_core.Version.Wape)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* PRNG.                                                               *)

let test_rng_deterministic () =
  let seq seed = List.init 64 (fun _ -> Rng.bits (Rng.create ~seed)) in
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  Alcotest.(check (list int))
    "same seed, same stream"
    (List.init 64 (fun _ -> Rng.bits a))
    (List.init 64 (fun _ -> Rng.bits b));
  Alcotest.(check bool)
    "different seeds diverge" false
    (seq 1 = seq 2)

let test_rng_ranges () =
  let t = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let n = Rng.int t 10 in
    Alcotest.(check bool) "int in [0,10)" true (n >= 0 && n < 10);
    let r = Rng.range t (-3) 3 in
    Alcotest.(check bool) "range inclusive" true (r >= -3 && r <= 3)
  done

(* ------------------------------------------------------------------ *)
(* Generator.                                                          *)

let test_gen_deterministic () =
  List.iter
    (fun i ->
      let src c = c.Oracle.source in
      Alcotest.(check string)
        (Printf.sprintf "case %d regenerates byte-identically" i)
        (src (Driver.case_at ~seed:42 ~max_stmts:10 i))
        (src (Driver.case_at ~seed:42 ~max_stmts:10 i)))
    [ 0; 1; 17; 125; 499 ]

let test_gen_programs_parse () =
  (* every AST-backed case must parse: the generator only emits
     canonical shapes *)
  for i = 0 to 63 do
    let case = Driver.case_at ~seed:2016 ~max_stmts:10 i in
    match case.Oracle.gen_ast with
    | None -> ()  (* spiced raw source; totality is oracle 1's job *)
    | Some _ ->
        let prog = Parser.parse_string ~file:"gen.php" case.Oracle.source in
        Alcotest.(check bool)
          (Printf.sprintf "case %d parses to a non-degenerate program" i)
          true
          (List.length prog >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Shrinker.                                                           *)

let test_shrink_source () =
  let fails src = contains ~needle:"needle" src in
  let source =
    "<?php\n$a = 1;\n$b = 2;\necho 'needle';\n$c = 3;\n$d = 4;\n$e = 5;\n"
  in
  let shrunk = Shrink.source ~fails source in
  Alcotest.(check bool) "shrunk input still fails" true (fails shrunk);
  Alcotest.(check bool)
    "shrunk no larger" true
    (String.length shrunk <= String.length source);
  (* line-based ddmin keeps the <?php line and the needle line only *)
  let lines = String.split_on_char '\n' (String.trim shrunk) in
  Alcotest.(check int) "minimal: two lines survive" 2 (List.length lines)

let test_shrink_program () =
  let prog =
    Ast.
      [
        mk_s (Expr_stmt (mk_e (Assign (A_eq, var "a", int_ 1))));
        mk_s (Expr_stmt (mk_e (Assign (A_eq, var "b", int_ 2))));
        mk_s
          (If
             ( [ (var "b", [ mk_s (Echo [ mk_e (Var "_GET") ]) ]) ],
               Some [ mk_s (Expr_stmt (mk_e (Assign (A_eq, var "c", int_ 3)))) ]
             ));
        mk_s (Expr_stmt (call "strlen" [ var "a" ]));
      ]
  in
  let fails p =
    contains ~needle:"$_GET" (Printer.program_to_string p)
  in
  Alcotest.(check bool) "original fails" true (fails prog);
  let shrunk = Shrink.program ~fails prog in
  Alcotest.(check bool) "shrunk program still fails" true (fails shrunk);
  Alcotest.(check bool)
    "if-branch unwrapped to a single statement" true
    (Visitor.stmt_count shrunk <= 2)

(* ------------------------------------------------------------------ *)
(* Seeds and the loop.                                                 *)

let test_replay_seeds () =
  let report = Driver.replay ~tool:(Lazy.force tool) "fuzz_seeds" in
  Alcotest.(check bool)
    "at least the seven pinned reproducers present" true (report.cases >= 7);
  List.iter
    (fun (f : Driver.failure) ->
      Alcotest.failf "seed %s violates %s: %s"
        (Option.value ~default:"?" f.fl_seed_file)
        f.fl_oracle f.fl_message)
    report.failures

let test_bounded_fuzz () =
  let config =
    {
      Driver.default_config with
      Driver.seed = 2016;
      iterations = 150;
      out_seed_dir = None;
    }
  in
  let report = Driver.run ~tool:(Lazy.force tool) config in
  Alcotest.(check int) "all cases checked" 150 report.Driver.cases;
  List.iter
    (fun (f : Driver.failure) ->
      Alcotest.failf "iteration %d violates %s: %s\n%s" f.fl_iteration
        f.fl_oracle f.fl_message f.fl_source)
    report.Driver.failures

(* The [--oracle] help is built from [Oracle.names], so it can neither
   omit an oracle nor name a deleted one.  The binary is built as a
   dependency of this suite. *)
let test_cli_help_names_oracles () =
  let ic =
    Unix.open_process_args_in "../bin/wap_cli.exe"
      [| "wap"; "fuzz"; "--help=plain" |]
  in
  let help = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is in the help") true
        (contains ~needle:name help))
    Oracle.names;
  List.iter
    (fun gone -> Alcotest.(check bool) (gone ^ " is gone") false (contains ~needle:gone help))
    [ "scan-ir-equiv"; "tokenize-equiv" ]

let () =
  Alcotest.run "wap_fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_rng_deterministic;
          Alcotest.test_case "bounded draws" `Quick test_rng_ranges;
        ] );
      ( "gen",
        [
          Alcotest.test_case "byte-identical regeneration" `Quick
            test_gen_deterministic;
          Alcotest.test_case "canonical programs parse" `Quick
            test_gen_programs_parse;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "source ddmin minimal + still failing" `Quick
            test_shrink_source;
          Alcotest.test_case "program shrink minimal + still failing" `Quick
            test_shrink_program;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "checked-in seeds replay clean" `Slow
            test_replay_seeds;
          Alcotest.test_case "bounded fuzz run, all oracles" `Slow
            test_bounded_fuzz;
          Alcotest.test_case "wap fuzz --help names every oracle" `Quick
            test_cli_help_names_oracles;
        ] );
    ]
