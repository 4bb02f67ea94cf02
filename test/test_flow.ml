(** Tests for the flow substrate: CFG shape, reachability, reaching
    definitions and liveness. *)

module Cfg = Wap_flow.Cfg
module Reach = Wap_flow.Reach
module Reaching = Wap_flow.Reaching
module Live = Wap_flow.Live
module Scope = Wap_flow.Scope

let parse src = Wap_php.Parser.parse_string ~file:"t.php" ("<?php\n" ^ src)
let cfg_of src = Cfg.of_stmts (parse src)

(* is some non-empty block unreachable? *)
let has_dead_block cfg =
  let reach = Cfg.reachable cfg in
  Array.exists
    (fun (b : Cfg.block) -> (not reach.(b.Cfg.bid)) && b.Cfg.elems <> [])
    cfg.Cfg.blocks

(* ------------------------------------------------------------------ *)
(* CFG shape.                                                          *)

let test_straight_line () =
  let cfg = cfg_of "$a = 1;\n$b = 2;\necho $a;" in
  Alcotest.(check bool) "no dead code" false (has_dead_block cfg);
  Alcotest.(check bool)
    "exit reachable" true
    (Cfg.reachable cfg).(cfg.Cfg.exit_)

let test_if_branches () =
  let cfg = cfg_of "if ($c) { $a = 1; } else { $a = 2; }\necho $a;" in
  (* some block ends in a two-way branch *)
  let branching =
    Array.exists
      (fun (b : Cfg.block) ->
        List.length (List.sort_uniq compare b.Cfg.succs) >= 2)
      cfg.Cfg.blocks
  in
  Alcotest.(check bool) "has a branch" true branching;
  Alcotest.(check bool) "no dead code" false (has_dead_block cfg)

let test_while_back_edge () =
  let cfg = cfg_of "$i = 0;\nwhile ($i < 3) { $i = $i + 1; }\necho $i;" in
  (* a loop has an edge to an earlier block *)
  let back_edge =
    Array.exists
      (fun (b : Cfg.block) -> List.exists (fun s -> s <= b.Cfg.bid) b.Cfg.succs)
      cfg.Cfg.blocks
  in
  Alcotest.(check bool) "has a back edge" true back_edge;
  Alcotest.(check bool) "no dead code" false (has_dead_block cfg)

(* A switch head gets one edge per case.  Checking each new edge
   against the head's whole successor list makes the build quadratic:
   1.3 s of CPU for 16k cases on a 2-core x86-64 host, against ~24 ms
   when the check stops at the shorter of the two endpoint lists.  The
   bound leaves a wide margin on both sides. *)
let test_wide_switch_linear () =
  let n = 16_384 in
  let b = Buffer.create (n * 32) in
  Buffer.add_string b "switch ($x) {\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "case %d: $y = $x . '%d'; break;\n" i i
  done;
  Buffer.add_string b "}\n";
  let stmts = parse (Buffer.contents b) in
  let t0 = Sys.time () in
  let cfg = Cfg.of_stmts stmts in
  let cpu = Sys.time () -. t0 in
  let head = Cfg.block cfg cfg.Cfg.entry in
  Alcotest.(check int) "one edge per case plus the no-default exit" (n + 1)
    (List.length (List.sort_uniq compare head.Cfg.succs));
  Alcotest.(check int) "no duplicate successor" (n + 1)
    (List.length head.Cfg.succs);
  Alcotest.(check bool)
    (Printf.sprintf "built in %.0f ms of CPU (bound 250 ms)" (cpu *. 1e3))
    true (cpu < 0.25)

let test_duplicate_edge_dropped () =
  (* an empty try body is both the start and the end of the body, so the
     handler edge is added twice from one block *)
  let cfg = cfg_of "try { } catch (Exception $e) { echo 1; }" in
  Array.iter
    (fun (blk : Cfg.block) ->
      Alcotest.(check int)
        (Printf.sprintf "block %d: successors are distinct" blk.Cfg.bid)
        (List.length (List.sort_uniq compare blk.Cfg.succs))
        (List.length blk.Cfg.succs);
      Alcotest.(check int)
        (Printf.sprintf "block %d: predecessors are distinct" blk.Cfg.bid)
        (List.length (List.sort_uniq compare blk.Cfg.preds))
        (List.length blk.Cfg.preds))
    cfg.Cfg.blocks

(* ------------------------------------------------------------------ *)
(* Reachability.                                                       *)

let test_code_after_exit_dead () =
  Alcotest.(check bool) "echo after exit is dead" true
    (has_dead_block (cfg_of "exit;\necho \"x\";"));
  Alcotest.(check bool) "echo after die is dead" true
    (has_dead_block (cfg_of "die(\"bye\");\necho \"x\";"))

let test_code_after_return_dead () =
  Alcotest.(check bool) "stmt after return is dead" true
    (has_dead_block (cfg_of "return 1;\n$a = 2;"))

let test_code_after_break_dead () =
  Alcotest.(check bool) "stmt after break is dead" true
    (has_dead_block (cfg_of "while ($c) { break;\n$a = 1; }"))

let test_both_branches_terminate () =
  Alcotest.(check bool) "join after exiting if/else is dead" true
    (has_dead_block (cfg_of "if ($c) { exit; } else { return; }\necho \"x\";"));
  Alcotest.(check bool) "join after one-armed if stays live" false
    (has_dead_block (cfg_of "if ($c) { exit; }\necho \"x\";"))

let test_infinite_for_dead_exit () =
  let cfg = cfg_of "for (;;) { $a = 1; }\necho \"after\";" in
  Alcotest.(check bool) "code after for(;;) is dead" true (has_dead_block cfg)

let test_conditional_exit_live () =
  Alcotest.(check bool) "code after a guarded exit stays live" false
    (has_dead_block (cfg_of "if ($c) { exit; }\nmysql_query($q);"))

let test_switch_dead_after_exit_in_case () =
  Alcotest.(check bool) "stmt after exit inside a case is dead" true
    (has_dead_block
       (cfg_of "switch ($x) {\ncase 1:\nexit;\necho \"a\";\n}"))

(* ------------------------------------------------------------------ *)
(* Reaching definitions.                                               *)

let defs_of_var reaching cfg v =
  Reaching.Set.elements (Reaching.reaching_in reaching cfg.Cfg.exit_)
  |> List.filter (fun (v', _) -> v' = v)
  |> List.length

let test_reaching_join () =
  let cfg = cfg_of "$a = 1;\nif ($c) { $a = 2; }\necho $a;" in
  let r = Reaching.analyze cfg in
  Alcotest.(check int) "two defs of $a reach the end" 2 (defs_of_var r cfg "a")

let test_reaching_strong_kill () =
  let cfg = cfg_of "$a = 1;\n$a = 2;\necho $a;" in
  let r = Reaching.analyze cfg in
  Alcotest.(check int) "second def kills the first" 1 (defs_of_var r cfg "a")

let test_reaching_unset_kills () =
  let cfg = cfg_of "$a = 1;\nunset($a);" in
  let r = Reaching.analyze cfg in
  Alcotest.(check int) "unset leaves no def" 0 (defs_of_var r cfg "a")

let test_reaching_weak_accumulates () =
  let cfg = cfg_of "$a = array();\n$a[0] = 1;\necho $a;" in
  let r = Reaching.analyze cfg in
  Alcotest.(check int) "container update accumulates" 2 (defs_of_var r cfg "a")

let test_reaching_params () =
  let cfg = cfg_of "echo $p;" in
  let r = Reaching.analyze ~params:[ "p" ] cfg in
  Alcotest.(check bool) "parameter is defined at entry" true
    (Reaching.defines (Reaching.reaching_in r cfg.Cfg.exit_) "p")

let test_switch_fallthrough_reaches () =
  (* $a defined in case 1 reaches case 2 through the fallthrough edge *)
  let cfg =
    cfg_of "switch ($x) {\ncase 1:\n$a = 1;\ncase 2:\necho $a;\n}"
  in
  let r = Reaching.analyze cfg in
  let reaches_echo = ref false in
  Array.iter
    (fun (b : Cfg.block) ->
      Reaching.fold_block r b.Cfg.bid ~init:() ~f:(fun () defs elem ->
          match elem with
          | Cfg.Elem_stmt { Wap_php.Ast.s = Wap_php.Ast.Echo _; _ } ->
              if Reaching.defines defs "a" then reaches_echo := true
          | _ -> ()))
    cfg.Cfg.blocks;
  Alcotest.(check bool) "fallthrough carries the definition" true !reaches_echo

(* ------------------------------------------------------------------ *)
(* Liveness.                                                           *)

let live_at_entry src =
  let cfg = cfg_of src in
  Live.VarSet.elements (Live.live_in (Live.analyze cfg) cfg.Cfg.entry)

let test_liveness_undefined_use () =
  Alcotest.(check (list string)) "used-before-def is live at entry" [ "x" ]
    (live_at_entry "echo $x;")

let test_liveness_killed_by_def () =
  Alcotest.(check (list string)) "defined-then-used is not live at entry" []
    (live_at_entry "$x = 1;\necho $x;")

let test_liveness_through_loop () =
  Alcotest.(check (list string)) "loop-carried use stays live" [ "n" ]
    (live_at_entry "while ($n > 0) { $n = $n - 1; }")

(* ------------------------------------------------------------------ *)
(* Scopes and the dead-location oracle.                                *)

let test_scope_split () =
  let prog = parse "function f($p) { return $p; }\n$x = 1;" in
  match Scope.of_program prog with
  | [ top; fn ] ->
      Alcotest.(check bool) "top level is anonymous" true (top.Scope.name = None);
      Alcotest.(check (option string)) "function scope" (Some "f") fn.Scope.name;
      Alcotest.(check (list string)) "params" [ "p" ] fn.Scope.params
  | scopes ->
      Alcotest.failf "expected 2 scopes, got %d" (List.length scopes)

let test_dead_oracle () =
  let prog = parse "echo \"live\";\nexit;\necho \"dead\";" in
  let stmts = Array.of_list prog in
  let loc_of i = stmts.(i).Wap_php.Ast.sloc in
  let dead = Reach.of_program prog in
  Alcotest.(check bool) "before exit: live" false (Reach.is_dead dead (loc_of 0));
  Alcotest.(check bool) "after exit: dead" true (Reach.is_dead dead (loc_of 2))

let test_dead_oracle_hoisted_function () =
  (* function declarations are hoisted: a body after exit is NOT dead *)
  let prog = parse "exit;\nfunction g() {\necho \"body\";\n}" in
  let dead = Reach.of_program prog in
  let body_loc =
    List.find_map
      (fun (s : Wap_php.Ast.stmt) ->
        match s.Wap_php.Ast.s with
        | Wap_php.Ast.Func_def f ->
            Some (List.hd f.Wap_php.Ast.f_body).Wap_php.Ast.sloc
        | _ -> None)
      prog
    |> Option.get
  in
  Alcotest.(check bool) "hoisted body stays live" false
    (Reach.is_dead dead body_loc)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wap_flow"
    [
      ( "cfg",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "if branches" `Quick test_if_branches;
          Alcotest.test_case "while back edge" `Quick test_while_back_edge;
          Alcotest.test_case "16k-case switch builds in linear time" `Quick
            test_wide_switch_linear;
          Alcotest.test_case "duplicate edge dropped" `Quick
            test_duplicate_edge_dropped;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "after exit" `Quick test_code_after_exit_dead;
          Alcotest.test_case "after return" `Quick test_code_after_return_dead;
          Alcotest.test_case "after break" `Quick test_code_after_break_dead;
          Alcotest.test_case "terminating if/else" `Quick
            test_both_branches_terminate;
          Alcotest.test_case "infinite for" `Quick test_infinite_for_dead_exit;
          Alcotest.test_case "guarded exit" `Quick test_conditional_exit_live;
          Alcotest.test_case "exit inside case" `Quick
            test_switch_dead_after_exit_in_case;
        ] );
      ( "reaching",
        [
          Alcotest.test_case "join" `Quick test_reaching_join;
          Alcotest.test_case "strong kill" `Quick test_reaching_strong_kill;
          Alcotest.test_case "unset" `Quick test_reaching_unset_kills;
          Alcotest.test_case "weak update" `Quick test_reaching_weak_accumulates;
          Alcotest.test_case "params" `Quick test_reaching_params;
          Alcotest.test_case "switch fallthrough" `Quick
            test_switch_fallthrough_reaches;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "undefined use" `Quick test_liveness_undefined_use;
          Alcotest.test_case "killed by def" `Quick test_liveness_killed_by_def;
          Alcotest.test_case "through loop" `Quick test_liveness_through_loop;
        ] );
      ( "scopes",
        [
          Alcotest.test_case "scope split" `Quick test_scope_split;
          Alcotest.test_case "dead oracle" `Quick test_dead_oracle;
          Alcotest.test_case "hoisted function" `Quick
            test_dead_oracle_hoisted_function;
        ] );
    ]
