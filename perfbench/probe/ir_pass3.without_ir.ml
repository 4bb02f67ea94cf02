(* Without lib/ir, pass 3 is the AST walker. *)
let available = false
let run st ~units u = Wap_taint.Analyzer.analyze_file_toplevel st ~units u
