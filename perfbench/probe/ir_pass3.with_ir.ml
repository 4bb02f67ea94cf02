(* Pass 3 over the lowered IR, cold: no memo key, so every call lowers. *)
let available = true
let run st ~units u = Wap_ir.Exec.analyze_file_toplevel st ~units u
